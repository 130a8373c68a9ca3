"""Cross-tool metrics: comparison rows, depth histograms, coverage.

These helpers turn :class:`~repro.core.results.ScanResult` objects into the
quantities the paper's evaluation section reports.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set

from ..core.results import ScanResult
from ..simnet.topology import Topology


def comparison_rows(results: Sequence[ScanResult]) -> List[Dict[str, object]]:
    """Table-3-style rows: tool, interfaces, probes, scan time."""
    return [result.as_row() for result in results]


def interface_depth_histogram(result: ScanResult) -> Dict[int, int]:
    """Unique interfaces by the shallowest TTL they were observed at."""
    depth_of: Dict[int, int] = {}
    for hops in result.routes.values():
        for ttl, responder in hops.items():
            known = depth_of.get(responder)
            if known is None or ttl < known:
                depth_of[responder] = ttl
    histogram: Counter = Counter(depth_of.values())
    return dict(histogram)


def targets_probed_per_ttl(result: ScanResult) -> Dict[int, int]:
    """Figure 7: number of targets whose route was probed at each TTL.

    Every engine in this library probes a given (target, TTL) pair at most
    once per scan, so the per-TTL probe count equals the target count.
    """
    return {ttl: count for ttl, count in
            sorted(result.ttl_probe_histogram.items())}


def route_length_distribution(result: ScanResult) -> Dict[int, int]:
    """Histogram of measured route lengths across targets."""
    histogram: Counter = Counter()
    lengths = result.route_lengths()
    for prefix in result.targets:
        length = lengths.get(prefix)
        if length is not None:
            histogram[length] += 1
    return dict(sorted(histogram.items()))


def coverage_against_topology(result: ScanResult,
                              topology: Topology,
                              max_ttl: int = 32) -> float:
    """Fraction of the ground-truth discoverable interfaces a scan found.

    Upper-bound denominator: every responsive interface on any route within
    ``max_ttl`` (including load-balancer alternates a single-flow scan
    cannot see).
    """
    reachable = topology.reachable_interfaces(max_ttl=max_ttl)
    if not reachable:
        return 1.0
    reachable_addrs = {topology.iface_addrs[iface] for iface in reachable}
    return len(result.interfaces() & reachable_addrs) / len(reachable_addrs)


def missed_interfaces(result: ScanResult, reference: ScanResult) -> Set[int]:
    """Interfaces the reference scan found that ``result`` missed."""
    return reference.interfaces() - result.interfaces()


def speedup_summary(fast: ScanResult, slow: ScanResult) -> Dict[str, float]:
    """Headline ratios (the abstract's '3.5x faster' style numbers)."""
    return {
        "time_ratio": slow.duration / fast.duration if fast.duration else 0.0,
        "probe_ratio": (slow.probes_sent / fast.probes_sent
                        if fast.probes_sent else 0.0),
        "interface_ratio": (fast.interface_count() /
                            max(slow.interface_count(), 1)),
    }


def describe(results: Iterable[ScanResult]) -> str:
    """Multi-line text summary of several scans."""
    lines = []
    for result in results:
        lines.append(result.summary())
    return "\n".join(lines)
