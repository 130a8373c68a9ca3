"""Drivers for Table 5, §5.2 (discovery-optimized mode), §5.3 (address
rewriting) and the ablations DESIGN.md §5 calls out."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.report import render_table
from ..baselines.yarrp import Yarrp, YarrpConfig
from ..core.config import FlashRouteConfig
from ..core.discovery import DiscoveryOptimizedResult, run_discovery_optimized
from ..core.prober import FlashRoute
from ..core.results import ScanResult, format_scan_time
from ..obs.timing import Stopwatch
from .common import ExperimentContext
from .figures import one_probe_distances
from ..core.preprobe import predict_distances


# --------------------------------------------------------------------- #
# Table 5: non-throttled scan speed
# --------------------------------------------------------------------- #

@dataclass
class ThroughputRow:
    """One tool's measured Python-implementation throughput."""

    tool: str
    probes: int
    wall_seconds: float

    @property
    def rate_pps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.probes / self.wall_seconds


@dataclass
class ThroughputResult:
    """Table 5: unthrottled send rates plus estimated full-scan times.

    The paper measures each tool's maximum achievable probing rate and
    estimates the full-scan time as (probes from Table 3) / rate.  Here the
    "hardware" is this Python implementation, so absolute rates are
    Python-bound; the FlashRoute-vs-Yarrp ordering and the estimation method
    are the reproduction targets.
    """

    rows: List[ThroughputRow] = field(default_factory=list)

    def render(self) -> str:
        return render_table(
            ["Tool", "Scan Speed (probes/s)", "Estimated Scan Time"],
            [[row.tool, round(row.rate_pps),
              format_scan_time(row.probes / row.rate_pps)
              if row.rate_pps else "-"]
             for row in self.rows],
            title="[Table 5] non-throttled scan speed "
                  "(this Python implementation)")


def run_table5(context: ExperimentContext) -> ThroughputResult:
    """Wall-clock throughput of each engine over one full scan: the best
    of three runs (pytest-benchmark's min convention), the tools
    interleaved within each repeat so that drift in the host's speed
    reaches all of them alike."""
    scanners = (
        ("FlashRoute-32",
         lambda: FlashRoute(FlashRouteConfig.flashroute_32())),
        ("FlashRoute-16",
         lambda: FlashRoute(FlashRouteConfig.flashroute_16())),
        ("Yarrp-32", lambda: Yarrp(YarrpConfig.yarrp_32())),
        ("Yarrp-16", lambda: Yarrp(YarrpConfig.yarrp_16())),
    )
    rows: Dict[str, ThroughputRow] = {}
    for _ in range(3):
        for tool, scanner in scanners:
            with Stopwatch() as watch:
                scan = scanner().scan(context.network(),
                                      targets=context.random_targets)
            best = rows.get(tool)
            if best is None or watch.elapsed < best.wall_seconds:
                rows[tool] = ThroughputRow(tool=tool,
                                           probes=scan.probes_sent,
                                           wall_seconds=watch.elapsed)
    return ThroughputResult(rows=list(rows.values()))


# --------------------------------------------------------------------- #
# §5.2: discovery-optimized mode
# --------------------------------------------------------------------- #

@dataclass
class DiscoveryExperimentResult:
    """Discovery-optimized mode vs the exhaustive Yarrp-UDP simulation."""

    discovery: DiscoveryOptimizedResult
    yarrp_udp_sim: ScanResult

    def extra_interfaces(self) -> int:
        return (len(self.discovery.interfaces())
                - self.yarrp_udp_sim.interface_count())

    def render(self) -> str:
        rows = [[scan.tool, scan.interface_count(), scan.probes_sent,
                 format_scan_time(scan.duration)]
                for scan in self.discovery.all_scans()]
        rows.append(["(union)", len(self.discovery.interfaces()),
                     self.discovery.total_probes(),
                     format_scan_time(self.discovery.total_duration())])
        rows.append([self.yarrp_udp_sim.tool,
                     self.yarrp_udp_sim.interface_count(),
                     self.yarrp_udp_sim.probes_sent,
                     format_scan_time(self.yarrp_udp_sim.duration)])
        table = render_table(["Scan", "Interfaces", "Probes", "Time"], rows,
                             title="[§5.2] discovery-optimized mode")
        return (f"{table}\n  extra interfaces over Yarrp-32-UDP: "
                f"{self.extra_interfaces():+d}")


def run_discovery_experiment(context: ExperimentContext,
                             extra_scans: int = 3,
                             length_guided: bool = False
                             ) -> DiscoveryExperimentResult:
    discovery = run_discovery_optimized(
        context.network(), extra_scans=extra_scans,
        targets=context.random_targets, length_guided=length_guided)
    yarrp_sim = FlashRoute(FlashRouteConfig.yarrp32_udp_simulation()).scan(
        context.network(), targets=context.random_targets,
        tool_name="Yarrp-32-UDP (Simulation)")
    return DiscoveryExperimentResult(discovery=discovery,
                                     yarrp_udp_sim=yarrp_sim)


# --------------------------------------------------------------------- #
# §5.3: in-flight destination rewriting
# --------------------------------------------------------------------- #

@dataclass
class RewriteDetectionResult:
    """Checksum-mismatch rates per scan (paper: 0.007%–0.054%)."""

    rows: List[Tuple[str, int, int, float]] = field(default_factory=list)

    def render(self) -> str:
        return render_table(
            ["Scan", "Responses", "Mismatched quotes", "Rate"],
            [[tool, responses, mismatches, f"{rate * 100:.4f}%"]
             for tool, responses, mismatches, rate in self.rows],
            title="[§5.3] in-flight destination modification")


def run_rewrite_detection(context: ExperimentContext,
                          seeds: Tuple[int, ...] = (1, 2, 3)
                          ) -> RewriteDetectionResult:
    """Run several scans with different target draws and collect the
    fraction of responses dropped for checksum/port mismatches."""
    from ..core.targets import random_targets

    result = RewriteDetectionResult()
    for seed in seeds:
        targets = random_targets(context.topology, seed)
        scan = FlashRoute(FlashRouteConfig.flashroute_16(seed=seed)).scan(
            context.network(), targets=targets,
            tool_name=f"FlashRoute-16 (seed {seed})")
        total = scan.responses + scan.mismatched_quotes
        rate = scan.mismatched_quotes / total if total else 0.0
        result.rows.append((scan.tool, scan.responses,
                            scan.mismatched_quotes, rate))
    return result


# --------------------------------------------------------------------- #
# §4.2.2: route completeness (holes)
# --------------------------------------------------------------------- #

@dataclass
class RouteHolesResult:
    """FlashRoute-16 vs FlashRoute-32 route completeness.

    The paper's trade-off: both configurations find the same interfaces,
    but FlashRoute-32 loses fewer responses, so "the routes discovered by
    FlashRoute-32 will have fewer holes".
    """

    rows: List[Tuple[str, int, int, int]] = field(default_factory=list)

    def holes(self, tool: str) -> int:
        for row_tool, holes, _interfaces, _probes in self.rows:
            if row_tool == tool:
                return holes
        raise KeyError(tool)

    def render(self) -> str:
        return render_table(
            ["Tool", "Route holes", "Interfaces", "Probes"],
            [list(row) for row in self.rows],
            title="[§4.2.2] route completeness")


def run_route_holes(context: ExperimentContext,
                    probing_rate: float = 100_000.0) -> RouteHolesResult:
    from ..analysis.intrusiveness import count_route_holes

    result = RouteHolesResult()
    for label, config in (
            ("FlashRoute-16",
             FlashRouteConfig.flashroute_16(probing_rate=probing_rate)),
            ("FlashRoute-32",
             FlashRouteConfig.flashroute_32(probing_rate=probing_rate))):
        network = context.network(log_probes=True)
        scan = FlashRoute(config).scan(network,
                                   targets=context.random_targets,
                                   tool_name=label)
        holes = count_route_holes(scan, network.probe_log)
        result.rows.append((label, holes, scan.interface_count(),
                            scan.probes_sent))
    return result


# --------------------------------------------------------------------- #
# Ablations (DESIGN.md §5)
# --------------------------------------------------------------------- #

@dataclass
class AblationResult:
    """Generic sweep result: label -> metrics rows."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


def run_proximity_span_ablation(context: ExperimentContext,
                                spans: Tuple[int, ...] = (0, 1, 2, 3, 5, 8, 13)
                                ) -> AblationResult:
    """§5.4 future work: how the proximity span trades coverage for error.

    Reports, per span: distance coverage, prediction exactness, and the
    probes a FlashRoute-16 scan needs when using that span.
    """
    from ..analysis.distances import prediction_accuracy

    measured = one_probe_distances(context.network(), context.hitlist)
    num_prefixes = context.topology.num_prefixes
    result = AblationResult(
        title="[ablation] proximity span",
        headers=["Span", "Coverage", "Exact predictions", "Probes"])
    for span in spans:
        predicted = predict_distances(measured, num_prefixes, span)
        coverage = (len(measured) + len(predicted)) / num_prefixes
        accuracy = prediction_accuracy(measured, span, num_prefixes)
        scan = FlashRoute(FlashRouteConfig.flashroute_16(
            proximity_span=span)).scan(
            context.network(), targets=context.random_targets,
            tool_name=f"span-{span}")
        result.rows.append([span, f"{coverage * 100:.1f}%",
                            f"{accuracy.fraction_exact() * 100:.1f}%"
                            if accuracy.samples else "-",
                            scan.probes_sent])
    return result


def run_round_pacing_ablation(context: ExperimentContext,
                              round_seconds: Tuple[float, ...] = (0.0, 0.5,
                                                                  1.0, 2.0)
                              ) -> AblationResult:
    """The >= 1 s round pacing (§3.2): responses must arrive in time to
    stop probing; pacing below the response latency wastes probes."""
    result = AblationResult(
        title="[ablation] round pacing",
        headers=["Round seconds", "Probes", "Interfaces", "Scan time"])
    for seconds in round_seconds:
        config = FlashRouteConfig.flashroute_16(round_seconds=seconds)
        scan = FlashRoute(config).scan(context.network(),
                                   targets=context.random_targets,
                                   tool_name=f"pacing-{seconds}")
        result.rows.append([seconds, scan.probes_sent,
                            scan.interface_count(),
                            format_scan_time(scan.duration)])
    return result


def run_granularity_future_work(context: ExperimentContext,
                                fine_granularity: int = 26,
                                extra_scans: int = 3) -> AblationResult:
    """Answer the paper's §5.4 open question in simulation.

    The paper proposes two ways to find the distinct internal paths hiding
    inside a /24 — scan at finer granularity (one target per /28, paying
    an exponentially larger DCB array) or run the discovery-optimized mode
    with *varying destination addresses* — and leaves "which approach is
    more productive" to future work.  This experiment runs both (plus the
    /24 baseline) over the same topology and compares interfaces found per
    probe spent.
    """
    from ..core.dcb import projected_scan_memory

    result = AblationResult(
        title="[§5.4 future work] fine granularity vs dst-varying discovery",
        headers=["Approach", "Interfaces", "Probes", "Interfaces/Kprobe",
                 "Full-scan DCB memory"])

    def add(label, interfaces, probes, granularity):
        memory = projected_scan_memory(granularity)
        result.rows.append([
            label, interfaces, probes,
            round(interfaces / max(probes / 1000.0, 0.001), 1),
            f"{memory / 2**30:.1f} GiB"])

    baseline = FlashRoute(FlashRouteConfig.flashroute_32()).scan(
        context.network(), targets=context.random_targets,
        tool_name="baseline /24")
    add("baseline one-per-/24", baseline.interface_count(),
        baseline.probes_sent, 24)

    fine = FlashRoute(FlashRouteConfig.flashroute_32(
        granularity=fine_granularity)).scan(
        context.network(), tool_name=f"fine /{fine_granularity}")
    add(f"one-per-/{fine_granularity}", fine.interface_count(),
        fine.probes_sent, fine_granularity)

    varied = run_discovery_experiment_for_ablation(context, extra_scans)
    add(f"discovery + varying dst ({extra_scans} extras)",
        len(varied.interfaces()), varied.total_probes(), 24)
    return result


def run_discovery_experiment_for_ablation(context: ExperimentContext,
                                          extra_scans: int):
    from ..core.discovery import run_discovery_optimized

    return run_discovery_optimized(context.network(),
                                   extra_scans=extra_scans,
                                   targets=context.random_targets,
                                   vary_destination=True)


def run_discovery_start_ablation(context: ExperimentContext,
                                 extra_scans: int = 3) -> AblationResult:
    """§5.4: uniform-random vs length-guided extra-scan starting TTLs."""
    result = AblationResult(
        title="[ablation] discovery-optimized starting TTL policy",
        headers=["Policy", "Union interfaces", "Extra-scan probes"])
    for label, guided in (("uniform [1,32]", False),
                          ("length-guided", True)):
        experiment = run_discovery_experiment(context,
                                              extra_scans=extra_scans,
                                              length_guided=guided)
        extra_probes = sum(scan.probes_sent
                           for scan in experiment.discovery.extras)
        result.rows.append([label, len(experiment.discovery.interfaces()),
                            extra_probes])
    return result
