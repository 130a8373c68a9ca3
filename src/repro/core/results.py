"""Scan results: discovered routes, interfaces, probe/time accounting.

A :class:`ScanResult` is produced by every probing engine in this library
(FlashRoute and the baselines), so the analysis layer can compare tools
uniformly.  Its hops live in one :class:`HopTable`: three columns (block
key, TTL, responder) in arrival order, as Yarrp records each answer as a
flat ``(target, TTL, hop)`` row.  Every view of the routes (the interface
set, a route, its length and holes) is one pass over the columns.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)


def format_scan_time(seconds: float) -> str:
    """Render a duration the way the paper's tables do (``17:16.94`` or
    ``1:00:15.21``)."""
    if seconds < 0:
        raise ValueError("negative duration")
    hours = int(seconds // 3600)
    minutes = int((seconds % 3600) // 60)
    rest = seconds % 60
    if hours:
        return f"{hours}:{minutes:02d}:{rest:05.2f}"
    return f"{minutes}:{rest:05.2f}"


class HopTable:
    """Every TTL-exceeded hop of a scan, one row per answer in arrival
    order: the block key (``array('Q')``), the TTL (``array('B')``) and
    the responder (a list of the simulator's shared ``int`` per interface,
    IPv4 and IPv6 alike).  A later row for a (key, TTL) supersedes an
    earlier one; tables compare by the routes they resolve to."""

    __slots__ = ("keys", "ttls", "responders")

    def __init__(self) -> None:
        self.keys = array("Q")
        self.ttls = array("B")
        self.responders: List[int] = []

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HopTable) and self.routes() == other.routes()

    def appenders(self) -> Tuple[Callable[[int], None], ...]:
        """The three columns' bound ``append``s, for an engine to hoist."""
        return self.keys.append, self.ttls.append, self.responders.append

    def extend(self, other: "HopTable") -> None:
        self.keys.extend(other.keys)
        self.ttls.extend(other.ttls)
        self.responders.extend(other.responders)

    def routes(self) -> Dict[int, Dict[int, int]]:
        """A new ``{key: {ttl: responder}}``, later rows winning."""
        routes: Dict[int, Dict[int, int]] = defaultdict(dict)
        for key, ttl, responder in zip(self.keys, self.ttls,
                                       self.responders):
            routes[key][ttl] = responder
        return dict(routes)

    def route(self, key: int) -> Dict[int, int]:
        """One key's ``{ttl: responder}``, later rows winning."""
        return {ttl: responder for row, ttl, responder
                in zip(self.keys, self.ttls, self.responders) if row == key}

    def ttl_masks(self) -> Dict[int, int]:
        """Per key, the bit set of its answered TTLs."""
        masks: Dict[int, int] = {}
        for key, ttl in zip(self.keys, self.ttls):
            masks[key] = masks.get(key, 0) | 1 << ttl
        return masks

    def live_responders(self) -> Set[int]:
        """Responders of the rows no later row supersedes, holding one TTL
        bit set per key and no object per hop.  When the bit sets count
        every row, no (key, TTL) repeats and every row is live."""
        masks = self.ttl_masks()
        if sum(bin(mask).count("1") for mask in masks.values()) == len(self):
            return set(self.responders)
        found: Set[int] = set()
        seen = dict.fromkeys(masks, 0)
        for key, ttl, responder in zip(reversed(self.keys),
                                       reversed(self.ttls),
                                       reversed(self.responders)):
            mask = seen[key]
            if not mask >> ttl & 1:
                seen[key] = mask | 1 << ttl
                found.add(responder)
        return found


@dataclass
class ScanResult:
    """Everything one scan discovered and what it cost."""

    tool: str
    num_targets: int = 0

    #: Prefix bits of one scanned block (24 = one target per /24; the keys
    #: of ``hops``/``targets``/``dest_distance`` are ``addr >> (32 -
    #: granularity)``).
    granularity: int = 24

    #: (prefix index, ttl, responder address) of every TTL-exceeded hop.
    hops: HopTable = field(default_factory=HopTable)

    #: prefix index -> measured hop distance of the destination (from
    #: "unreachable"-family responses).
    dest_distance: Dict[int, int] = field(default_factory=dict)

    #: prefix index -> the representative address that was traced.
    targets: Dict[int, int] = field(default_factory=dict)

    probes_sent: int = 0
    preprobe_probes: int = 0
    responses: int = 0
    #: Responses that were injected duplicates of an earlier reply
    #: (:mod:`repro.simnet.faults`); counted inside ``responses`` too.
    duplicate_responses: int = 0
    mismatched_quotes: int = 0
    #: Probes withheld by optimizations (Yarrp's neighborhood protection).
    skipped_probes: int = 0
    duration: float = 0.0
    rounds: int = 0
    aborted: bool = False

    #: probes issued per TTL (Fig. 7's "targets with routes probed at a
    #: given TTL"; each engine probes a (target, TTL) pair at most once).
    ttl_probe_histogram: Counter = field(default_factory=Counter)

    #: responses per semantic kind (ttl_exceeded, port_unreachable, ...).
    response_kinds: Counter = field(default_factory=Counter)

    rtt_sum_ms: float = 0.0
    rtt_count: int = 0

    #: Simulator-side telemetry (``SimulatedNetwork.stats()``) attached
    #: after the scan, so fault/cache counters travel with the result —
    #: ``--loss`` runs surface them in :meth:`as_row` and the human CLI
    #: output without needing a separate metrics file.  ``None`` (the
    #: default) leaves :meth:`as_row` byte-identical to its pre-telemetry
    #: output.
    simnet_stats: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # Recording (engines call these)
    # ------------------------------------------------------------------ #

    def add_hop(self, prefix: int, ttl: int, responder: int) -> None:
        """Record a TTL-exceeded response: ``responder`` sits at ``ttl`` on
        the route toward ``prefix``'s representative."""
        hops = self.hops
        hops.keys.append(prefix)
        hops.ttls.append(ttl)
        hops.responders.append(responder)

    def record_destination(self, prefix: int, distance: int) -> None:
        """Record that the representative answered from ``distance`` hops."""
        known = self.dest_distance.get(prefix)
        if known is None or distance < known:
            self.dest_distance[prefix] = distance

    def add_rtt(self, rtt_ms: float) -> None:
        self.rtt_sum_ms += rtt_ms
        self.rtt_count += 1

    def attach_simnet_stats(self, stats: Dict[str, object]) -> None:
        """Attach ``SimulatedNetwork.stats()`` output (route cache, rate
        limiter, fault injector counters) to this result."""
        self.simnet_stats = stats

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    @property
    def routes(self) -> Dict[int, Dict[int, int]]:
        """prefix index -> {ttl -> responder}: a new dict per read, for
        tests and one-shot analysis."""
        return self.hops.routes()

    def interfaces(self) -> Set[int]:
        """Unique router interface addresses revealed by the scan."""
        return self.hops.live_responders()

    def interface_count(self) -> int:
        return len(self.interfaces())

    def route(self, prefix: int) -> List[Tuple[int, int]]:
        """Sorted ``(ttl, responder)`` pairs for one prefix."""
        return sorted(self.hops.route(prefix).items())

    def route_length(self, prefix: int) -> Optional[int]:
        """Measured route length: the destination's distance if it answered,
        else the deepest responding hop, else ``None``."""
        return self.route_lengths().get(prefix)

    def route_lengths(self) -> Dict[int, int]:
        """:meth:`route_length` of every prefix that has one, in one pass."""
        lengths = {prefix: mask.bit_length() - 1
                   for prefix, mask in self.hops.ttl_masks().items()}
        lengths.update(self.dest_distance)
        return lengths

    def mean_rtt_ms(self) -> Optional[float]:
        if self.rtt_count == 0:
            return None
        return self.rtt_sum_ms / self.rtt_count

    def route_holes(self) -> int:
        """Unanswered TTLs *inside* discovered routes.

        For each prefix, counts the TTLs strictly between the shallowest
        recorded hop and the route's end (the destination's distance when
        measured, else the deepest recorded hop) that have no responder.
        Loss and blackouts turn previously answered hops silent, so this
        is the per-scan observable of loss-induced route damage; a
        loss-free scan of a fully responsive path reports 0.
        """
        return len(self.holes())

    def holes(self) -> Set[Tuple[int, int]]:
        """The ``(prefix, ttl)`` pairs :meth:`route_holes` counts."""
        found: Set[Tuple[int, int]] = set()
        for prefix, mask in self.hops.ttl_masks().items():
            end = self.dest_distance.get(prefix, mask.bit_length() - 1)
            found.update((prefix, ttl) for ttl
                         in range((mask & -mask).bit_length(), end)
                         if not mask >> ttl & 1)
        return found

    def probes_per_target(self) -> float:
        if self.num_targets == 0:
            return 0.0
        return self.probes_sent / self.num_targets

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON serialization of this result.

        Two scans are byte-identical exactly when their fingerprints
        match; the resilience property tests and the checkpoint/resume
        acceptance criteria compare scans through this digest.
        """
        import hashlib
        import json

        from .output import result_to_dict

        canonical = json.dumps(result_to_dict(self), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        """One table row in the paper's format."""
        return (f"{self.tool}: interfaces={self.interface_count():,} "
                f"probes={self.probes_sent:,} "
                f"time={format_scan_time(self.duration)}")

    def as_row(self) -> Dict[str, object]:
        """Structured row used by the experiment drivers.

        The original keys (``tool``, ``interfaces``, ``probes``,
        ``scan_time``, ``scan_time_text``) are stable; the derived and
        fault-accounting columns were added so drivers stop recomputing
        them ad hoc.
        """
        row: Dict[str, object] = {
            "tool": self.tool,
            "interfaces": self.interface_count(),
            "probes": self.probes_sent,
            "probes_per_target": self.probes_per_target(),
            "responses": self.responses,
            "mean_rtt_ms": self.mean_rtt_ms(),
            "holes": self.route_holes(),
            "duplicate_responses": self.duplicate_responses,
            "scan_time": self.duration,
            "scan_time_text": format_scan_time(self.duration),
        }
        stats = self.simnet_stats
        if stats is not None:
            cache = stats.get("route_cache")
            if cache is not None:
                row["cache_hits"] = cache["hits"]
                row["cache_misses"] = cache["misses"]
            ratelimit = stats.get("ratelimit")
            if ratelimit is not None:
                row["rate_limited_drops"] = ratelimit["dropped"]
            faults = stats.get("faults")
            if faults is not None:
                row["probes_lost"] = faults["probes_lost"]
                row["responses_lost"] = faults["responses_lost"]
                row["blackout_drops"] = faults["blackout_drops"]
                row["duplicates_injected"] = faults["duplicates_injected"]
        return row


def union_interfaces(results: Iterable[ScanResult]) -> FrozenSet[int]:
    """Interfaces discovered by any of several scans (discovery-optimized
    mode reports the union of the main scan and its extra scans, §5.2)."""
    combined: Set[int] = set()
    for result in results:
        combined.update(result.interfaces())
    return frozenset(combined)
