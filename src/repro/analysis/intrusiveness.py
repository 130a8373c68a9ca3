"""Scan-intrusiveness analysis (paper §4.2.2, Table 4).

The paper cannot observe real router rate limiting, so it replays the probe
timeline each tool produced at 100 Kpps against the topology discovered by a
slow (10 Kpps) Scamper scan: a probe (destination, TTL, send time) maps to
the interface Scamper saw at that TTL for that destination, and an interface
is *overprobed* in any one-second interval in which it is asked to generate
more ICMP responses than the 500/s limit.  ``Dropped probes`` counts the
excess requests over all bins.

We reproduce the same methodology over the simulator's probe logs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

from ..core.results import ScanResult
from ..simnet.engine import ProbeLog


@dataclass
class OverprobingReport:
    """Table 4 row: overprobed interfaces and dropped probes for one tool."""

    tool: str
    overprobed_interfaces: int
    dropped_probes: int
    probes_mapped: int


class TopologyMap:
    """(destination /24, TTL) -> interface map built from a reference scan.

    The paper builds this from the Scamper topology; any
    :class:`ScanResult` works.
    """

    def __init__(self, reference: ScanResult) -> None:
        self._hops: Dict[Tuple[int, int], int] = {}
        for prefix, hops in reference.routes.items():
            for ttl, responder in hops.items():
                self._hops[(prefix, ttl)] = responder

    def __len__(self) -> int:
        return len(self._hops)

    def interface_for(self, dst: int, ttl: int) -> Optional[int]:
        return self._hops.get((dst >> 8, ttl))


def analyze_overprobing(tool: str, probe_log: Iterable[Tuple[float, int, int]],
                        topology_map: TopologyMap,
                        rate_limit: int = 500) -> OverprobingReport:
    """Replay a probe log against the reference topology (Table 4).

    ``probe_log`` yields (send_time, dst, ttl) triples —
    :class:`~repro.simnet.engine.ProbeLog` instances iterate exactly that.
    """
    if rate_limit <= 0:
        raise ValueError("rate_limit must be positive")
    per_bin: Counter = Counter()
    mapped = 0
    for send_time, dst, ttl in probe_log:
        interface = topology_map.interface_for(dst, ttl)
        if interface is None:
            continue
        mapped += 1
        per_bin[(interface, int(send_time))] += 1

    overprobed: Set[int] = set()
    dropped = 0
    for (interface, _second), count in per_bin.items():
        if count > rate_limit:
            overprobed.add(interface)
            dropped += count - rate_limit
    return OverprobingReport(tool=tool,
                             overprobed_interfaces=len(overprobed),
                             dropped_probes=dropped,
                             probes_mapped=mapped)


def count_route_holes(result: ScanResult,
                      probe_log: Iterable[Tuple[float, int, int]]) -> int:
    """Probed hops that never produced a recorded interface ("holes").

    The paper's §4.2.2 trade-off: FlashRoute-16 and FlashRoute-32 find the
    same interfaces, but FlashRoute-32 overprobes less, loses fewer
    responses, and therefore leaves fewer holes in its routes.  A hole is a
    (destination, TTL) pair that *was probed* but produced no recorded hop,
    counted only within the responsive span of the route (beyond the last
    response lies genuine silence, not a hole).
    """
    shift = 32 - result.granularity
    probed: Dict[int, Set[int]] = {}
    for _send_time, dst, ttl in probe_log:
        probed.setdefault(dst >> shift, set()).add(ttl)

    holes = 0
    routes, lengths = result.routes, result.route_lengths()
    for prefix, ttls in probed.items():
        end = lengths.get(prefix)
        if end is None:
            continue
        hops = routes.get(prefix, {})
        holes += sum(1 for ttl in ttls if ttl < end and ttl not in hops)
    return holes


def scaled_rate_limit(paper_limit: int, num_prefixes: int,
                      paper_prefixes: int = 2**24,
                      paper_rate: float = 100_000.0) -> int:
    """Scale the 500/s per-interface limit to a scaled-down scan.

    The probing rate scales with the scanned space (so scan durations match
    the paper); the ratio of offered load to the limit is what determines
    overprobing, so the limit scales the same way.  A floor of 1 keeps the
    one-second-bin semantics meaningful.
    """
    scaled = paper_limit * num_prefixes / paper_prefixes
    return max(1, round(scaled))
