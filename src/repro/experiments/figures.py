"""Drivers for the paper's Figures 3, 4, 6, 7 and 8.

Each ``run_*`` function produces a small result object carrying the series
the figure plots plus a text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.distances import (
    DifferenceDistribution,
    measurement_accuracy,
    prediction_accuracy,
    prediction_neighbourhood_coverage,
)
from ..analysis.hitlist_bias import HitlistBiasReport, analyze_hitlist_bias
from ..analysis.jaccard import jaccard_by_hops_from_destination
from ..analysis.metrics import targets_probed_per_ttl
from ..analysis.report import render_distribution, render_pdf_cdf, render_table
from ..baselines.scamper import Scamper, ScamperConfig
from ..baselines.traceroute import ClassicTraceroute
from ..core.config import FlashRouteConfig, PreprobeMode
from ..core.encoding import decode_response, encode_probe
from ..core.prober import FlashRoute
from ..core.results import ScanResult, format_scan_time
from ..net.icmp import ResponseKind, distance_from_unreachable
from ..simnet.network import SimulatedNetwork
from .common import ExperimentContext

_PREPROBE_TTL = 32


def one_probe_distances(network: SimulatedNetwork,
                        targets: Dict[int, int],
                        send_rate: float = 1000.0) -> Dict[int, int]:
    """FlashRoute's one-probe hop-distance measurement for each target.

    Returns prefix-offset -> measured distance for the targets that
    answered with port-unreachable (paper §3.3.1).
    """
    measured: Dict[int, int] = {}
    base_prefix = network.topology.base_prefix
    gap = 1.0 / send_rate
    now = 0.0
    for prefix in sorted(targets):
        dst = targets[prefix]
        marking = encode_probe(dst, _PREPROBE_TTL, now, is_preprobe=True)
        response = network.send_probe(dst, _PREPROBE_TTL, now,
                                      marking.src_port, ipid=marking.ipid,
                                      udp_length=marking.udp_length)
        now += gap
        if response is None:
            continue
        if response.kind is not ResponseKind.PORT_UNREACHABLE:
            continue
        if response.responder != decode_response(response).dst:
            continue
        distance = distance_from_unreachable(response, _PREPROBE_TTL)
        if distance is not None:
            measured[prefix - base_prefix] = distance
    return measured


# --------------------------------------------------------------------- #
# Figures 3 and 4: distance measurement and prediction accuracy
# --------------------------------------------------------------------- #

@dataclass
class DistanceAccuracyResult:
    """Figure 3 (and the Fig. 4 inputs): measured vs traceroute distances."""

    measured: Dict[int, int]
    triggering: Dict[int, int]
    distribution: DifferenceDistribution

    def render(self) -> str:
        header = ("[Figure 3] triggering TTL minus one-probe distance "
                  f"({self.distribution.samples} destinations)")
        return render_pdf_cdf(self.distribution.pdf, header)


def run_fig3(context: ExperimentContext,
             traceroute_start_time: Optional[float] = None
             ) -> DistanceAccuracyResult:
    """One-probe measurement vs the classic-traceroute triggering TTL.

    The traceroute pass starts one route-dynamics epoch later, so the
    churn the paper blames for most of the ±1 discrepancies can act
    between the two measurements.
    """
    if traceroute_start_time is None:
        epoch = context.topology.config.flap_epoch_seconds
        traceroute_start_time = epoch * 1.05
    measured = one_probe_distances(context.network(), context.hitlist)
    tracer = ClassicTraceroute(context.network(),
                               start_time=traceroute_start_time)
    base_prefix = context.topology.base_prefix
    triggering: Dict[int, int] = {}
    for offset in measured:
        dst = context.hitlist[base_prefix + offset]
        ttl = tracer.triggering_ttl(dst)
        if ttl is not None:
            triggering[offset] = ttl
    distribution = measurement_accuracy(measured, triggering)
    return DistanceAccuracyResult(measured=measured, triggering=triggering,
                                  distribution=distribution)


@dataclass
class PredictionAccuracyResult:
    """Figure 4: proximity-span prediction vs measured/traceroute distance."""

    distribution: DifferenceDistribution
    neighbourhood_coverage: float
    proximity_span: int

    def render(self) -> str:
        header = (f"[Figure 4] predicted minus reference distance "
                  f"(span {self.proximity_span}, "
                  f"{self.distribution.samples} predictable targets, "
                  f"{self.neighbourhood_coverage * 100:.1f}% of measured "
                  f"blocks have a measured neighbour)")
        return render_pdf_cdf(self.distribution.pdf, header)


def run_fig4(context: ExperimentContext, proximity_span: int = 5,
             fig3: Optional[DistanceAccuracyResult] = None
             ) -> PredictionAccuracyResult:
    """Leave-one-out prediction error against the traceroute reference."""
    if fig3 is None:
        fig3 = run_fig3(context)
    distribution = prediction_accuracy(
        fig3.measured, proximity_span, context.topology.num_prefixes,
        reference=fig3.triggering)
    coverage = prediction_neighbourhood_coverage(fig3.measured,
                                                 proximity_span)
    return PredictionAccuracyResult(distribution=distribution,
                                    neighbourhood_coverage=coverage,
                                    proximity_span=proximity_span)


# --------------------------------------------------------------------- #
# Figure 6: gap limit sweep
# --------------------------------------------------------------------- #

@dataclass
class GapLimitSweepResult:
    """Figure 6: discovered interfaces and scan time per gap limit."""

    rows: List[Tuple[int, int, float]] = field(default_factory=list)

    def interfaces_series(self) -> Dict[int, int]:
        return {gap: interfaces for gap, interfaces, _time in self.rows}

    def time_series(self) -> Dict[int, float]:
        return {gap: duration for gap, _interfaces, duration in self.rows}

    def render(self) -> str:
        return render_table(
            ["GapLimit", "Interfaces", "Scan time"],
            [[gap, interfaces, format_scan_time(duration)]
             for gap, interfaces, duration in self.rows],
            title="[Figure 6] gap-limit sweep (split 16, random preprobing)")


def run_fig6(context: ExperimentContext,
             gap_limits: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8)
             ) -> GapLimitSweepResult:
    """Sweep GapLimit with the paper's §4.1.2 configuration."""
    result = GapLimitSweepResult()
    for gap in gap_limits:
        config = FlashRouteConfig(split_ttl=16, gap_limit=gap,
                                  preprobe=PreprobeMode.RANDOM)
        scan = FlashRoute(config).scan(context.network(),
                                   targets=context.random_targets,
                                   tool_name=f"FlashRoute-16/gap{gap}")
        result.rows.append((gap, scan.interface_count(), scan.duration))
    return result


# --------------------------------------------------------------------- #
# Figure 7: targets probed per TTL
# --------------------------------------------------------------------- #

@dataclass
class ProbedTtlResult:
    """Figure 7: per-TTL probing histograms of FlashRoute-16 and Scamper."""

    flashroute: Dict[int, int]
    scamper: Dict[int, int]

    def render(self) -> str:
        ttls = sorted(set(self.flashroute) | set(self.scamper))
        rows = [[ttl, self.flashroute.get(ttl, 0), self.scamper.get(ttl, 0)]
                for ttl in ttls]
        return render_table(["TTL", "FlashRoute-16", "Scamper"], rows,
                            title="[Figure 7] targets with routes probed "
                                  "at a given TTL")


def run_fig7(context: ExperimentContext) -> ProbedTtlResult:
    flashroute = FlashRoute(FlashRouteConfig.flashroute_16()).scan(
        context.network(), targets=context.random_targets,
        tool_name="FlashRoute-16")
    scamper = Scamper(ScamperConfig.scamper_16()).scan(
        context.network(), targets=context.random_targets)
    return ProbedTtlResult(
        flashroute=targets_probed_per_ttl(flashroute),
        scamper=targets_probed_per_ttl(scamper))


# --------------------------------------------------------------------- #
# Figure 8 and §5.1: hitlist bias
# --------------------------------------------------------------------- #

@dataclass
class HitlistBiasResult:
    """Figure 8 plus the §5.1 report."""

    jaccard_by_hop: Dict[int, float]
    report: HitlistBiasReport
    hitlist_scan: ScanResult
    random_scan: ScanResult

    def render(self) -> str:
        figure = render_distribution(
            self.jaccard_by_hop,
            "[Figure 8] Jaccard index of interface sets by hop-distance "
            "from destination", x_label="hops-back", y_label="jaccard")
        report = self.report
        table = render_table(
            ["Quantity", "Hitlist scan", "Random scan"],
            [["interfaces", report.hitlist_interfaces,
              report.random_interfaces],
             ["responsive targets", report.hitlist_responsive,
              report.random_responsive],
             ["longer routes (vs other)", report.hitlist_longer,
              report.random_longer],
             ["extra tail interfaces", report.hitlist_extra_tail_interfaces,
              report.random_extra_tail_interfaces],
             ["targets on other scan's routes",
              report.hitlist_on_random_routes,
              report.random_on_hitlist_routes]],
            title="[§5.1] hitlist-bias quantities")
        loops = (f"loops on routes to unresponsive random targets: "
                 f"{report.looped_routes} / "
                 f"{report.unresponsive_random_with_responsive_hitlist} "
                 f"({report.loop_fraction() * 100:.1f}%)")
        return "\n".join([figure, table, loops])


def run_fig8(context: ExperimentContext) -> HitlistBiasResult:
    """Exhaustive (TTL 1..32) scans of hitlist vs random representatives."""
    exhaustive = FlashRouteConfig.yarrp32_udp_simulation()
    hitlist_scan = FlashRoute(exhaustive).scan(
        context.network(), targets=context.hitlist,
        tool_name="exhaustive-hitlist")
    random_scan = FlashRoute(exhaustive).scan(
        context.network(), targets=context.random_targets,
        tool_name="exhaustive-random")
    return HitlistBiasResult(
        jaccard_by_hop=jaccard_by_hops_from_destination(hitlist_scan,
                                                        random_scan),
        report=analyze_hitlist_bias(hitlist_scan, random_scan),
        hitlist_scan=hitlist_scan,
        random_scan=random_scan)
