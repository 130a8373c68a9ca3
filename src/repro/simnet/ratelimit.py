"""Per-interface ICMP rate limiting.

Ravaioli et al. [19] found most routers cap ICMP generation at 500 or fewer
replies per second.  The paper both respects this (its Table 4 methodology
counts an interface as overprobed in any one-second interval in which it is
asked for more responses than the limit) and exploits it as the motivation
for spreading probes.  We implement the same one-second-bin semantics.

``allow`` is on the per-probe hot path (once per responding probe), so the
bookkeeping is two flat ``array('q')`` lookups, one slot per interface of
the topology: a *stamp* array holding a generation-tagged second and a
*count* array.  The stamp token is ``((generation + 1) << 34) + second`` —
``reset()`` just bumps the generation, instantly invalidating every bin
without touching the arrays (zeroed stamps can never match, since tokens
start at generation 1).
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

#: Seconds fit in 34 bits for any plausible virtual clock; the generation
#: lives above them so stamps from before a reset can never collide.
_GENERATION_SHIFT = 34

#: The virtual clock's range in seconds — what the stamp layout above
#: assumes.  Code that lets outside input move a clock (the daemon's
#: ``advance`` op) checks against it: a second that does not fit a
#: stamp fails every probe sent after it.
MAX_VIRTUAL_SECONDS = 1 << _GENERATION_SHIFT

#: Generations whose tokens still fit a signed 64-bit stamp.
_MAX_GENERATION = 1 << (63 - _GENERATION_SHIFT)


class IcmpRateLimiter:
    """One-second-bin rate limiter shared by all interfaces of a scan.

    The first ``limit`` requests of an interface in each one-second bin are
    answered; the rest are dropped and counted.  Matching the paper's
    analysis, bins are aligned to whole virtual seconds.
    """

    def __init__(self, limit: int, num_interfaces: int) -> None:
        if limit <= 0:
            raise ValueError("rate limit must be positive")
        self.limit = limit
        self._generation = 0
        self._stamp = array("q", [0]) * num_interfaces
        self._count = array("q", [0]) * num_interfaces
        self.dropped = 0
        self._overprobed: set = set()

    def allow(self, iface: int, now: float) -> bool:
        """Account one ICMP generation request of interface ``iface`` (an
        index below ``num_interfaces``) at virtual time ``now``."""
        token = ((self._generation + 1) << _GENERATION_SHIFT) + int(now)
        stamp = self._stamp
        if stamp[iface] != token:
            stamp[iface] = token
            self._count[iface] = 1
            return True
        count = self._count[iface] + 1
        self._count[iface] = count
        if count > self.limit:
            self.dropped += 1
            self._overprobed.add(iface)
            return False
        return True

    @property
    def overprobed_interfaces(self) -> frozenset:
        """Interfaces that exceeded the limit in at least one bin."""
        return frozenset(self._overprobed)

    def export_bins(self, now: float) -> Dict[str, object]:
        """Serialize the live bins for a checkpoint.

        Only bins still capable of influencing future decisions are
        captured: current-generation bins whose second is >= ``int(now)``
        (older bins can never match again because the clock is
        monotonic).  Seconds are stored generation-free; ``restore_bins``
        re-tags them with the restoring limiter's generation.
        """
        gen_base = (self._generation + 1) << _GENERATION_SHIFT
        horizon = int(now)
        live = []
        count = self._count
        for iface, token in enumerate(self._stamp):
            if token >= gen_base and token - gen_base >= horizon:
                live.append([iface, token - gen_base, count[iface]])
        return {"limit": self.limit, "dropped": self.dropped,
                "overprobed": sorted(self._overprobed), "bins": live}

    def restore_bins(self, state: Dict[str, object]) -> None:
        """Restore counters and live bins from :meth:`export_bins`.

        The state comes from a checkpoint file: a bin naming an interface
        this topology does not have raises ``ValueError``."""
        self.dropped = state["dropped"]
        self._overprobed = set(state["overprobed"])
        gen_base = (self._generation + 1) << _GENERATION_SHIFT
        stamp = self._stamp
        for iface, second, bin_count in state["bins"]:
            if not 0 <= iface < len(stamp):
                raise ValueError(
                    f"rate-limiter bin names interface {iface}; the "
                    f"topology has {len(stamp)}")
            stamp[iface] = gen_base + second
            self._count[iface] = bin_count

    def stats(self) -> Dict[str, int]:
        """Observability counters (folded into ``simnet.ratelimit.*`` by
        :func:`repro.obs.record_network`)."""
        return {"limit": self.limit, "dropped": self.dropped,
                "overprobed_interfaces": len(self._overprobed)}

    def reset(self, limit: Optional[int] = None) -> None:
        """Clear all dynamic state (between scans), optionally taking a
        new ``limit`` (a network session reusing a dead one's limiter).

        O(1) for the array bins: bumping the generation changes every
        future stamp token, so stale bins — including a partially filled
        bin mid-second — can never be mistaken for the current one.  Only
        when the generation would no longer fit a stamp are the stamps
        zeroed and the generation restarted.
        """
        if limit is not None:
            if limit <= 0:
                raise ValueError("rate limit must be positive")
            self.limit = limit
        self._generation += 1
        if self._generation + 1 >= _MAX_GENERATION:
            self._stamp = array("q", [0]) * len(self._stamp)
            self._generation = 0
        self.dropped = 0
        self._overprobed.clear()
