"""Loss-sweep experiment: tool degradation under injected faults.

Yarrp motivates statelessness with loss tolerance, and FlashRoute's gap
limit of 5 exists to survive silent stretches (paper §4.2) — but none of
the paper's tables actually measure behaviour under loss.  This driver
does: it scans one topology under increasing symmetric loss rates with a
fixed fault seed (:mod:`repro.simnet.faults`) and reports interface
discovery, probe cost, and loss-induced route damage per tool, plus a
gap-limit comparison showing how FlashRoute's forward probing bounds the
route truncation a single lost reply would otherwise cause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.report import render_table
from ..api import ScanRequest
from ..core.results import ScanResult
from ..core.scanner import create_scanner
from ..simnet.faults import FaultModel
from .common import ExperimentContext

#: Default sweep: no faults, light, moderate, heavy loss.
DEFAULT_LOSS_RATES = (0.0, 0.02, 0.05, 0.10)

DEFAULT_TOOLS = ("flashroute-16", "flashroute-32", "yarrp-16", "yarrp-32")

#: Seed of every injected fault sequence; fixed so the sweep is exactly
#: reproducible run to run.
DEFAULT_FAULT_SEED = 0x10552020


@dataclass
class LossSweepResult:
    """Tall table of (tool, loss rate) scans plus a gap-limit comparison."""

    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    #: (tool, loss) -> full scan result.
    scans: Dict[Tuple[str, float], ScanResult] = field(default_factory=dict)
    gap_headers: List[str] = field(default_factory=list)
    gap_rows: List[List[object]] = field(default_factory=list)

    def render(self) -> str:
        parts = [render_table(self.headers, self.rows,
                              title="[Loss sweep: discovery vs loss rate]")]
        if self.gap_rows:
            parts.append("")
            parts.append(render_table(
                self.gap_headers, self.gap_rows,
                title="[Gap limit bounding route truncation under loss]"))
        return "\n".join(parts)


def _mean_route_length(scan: ScanResult) -> float:
    """Mean :meth:`ScanResult.route_length` over the prefixes with hops."""
    lengths = scan.route_lengths()
    prefixes = set(scan.hops.keys)
    if not prefixes:
        return 0.0
    return sum(lengths[prefix] for prefix in prefixes) / len(prefixes)


def run_loss_sweep(context: ExperimentContext,
                   loss_rates: Tuple[float, ...] = DEFAULT_LOSS_RATES,
                   tools: Tuple[str, ...] = DEFAULT_TOOLS,
                   fault_seed: int = DEFAULT_FAULT_SEED) -> LossSweepResult:
    """Scan under each loss rate with a fixed fault seed; deterministic."""
    result = LossSweepResult(
        headers=["Tool", "Loss", "Interfaces", "Probes/target", "Holes",
                 "Duplicates"])
    for tool in tools:
        for loss in loss_rates:
            model = FaultModel.symmetric_loss(loss, seed=fault_seed)
            scanner = create_scanner(ScanRequest(tool=tool))
            scan = scanner.scan(context.network(faults=model),
                                targets=context.random_targets)
            result.scans[(tool, loss)] = scan
            result.rows.append([
                tool, f"{loss:.0%}", scan.interface_count(),
                f"{scan.probes_per_target():.1f}", scan.route_holes(),
                scan.duplicate_responses])

    # Gap-limit comparison (§4.2): under loss, a gap limit of 1 truncates
    # forward probing at the first lost/silent reply; the default 5 keeps
    # walking and recovers the hops behind it.
    result.gap_headers = ["Gap limit", "Loss", "Interfaces",
                          "Mean route length", "Holes"]
    gap_loss = max(loss_rates)
    for gap in (5, 1):
        model = FaultModel.symmetric_loss(gap_loss, seed=fault_seed)
        scanner = create_scanner(
            ScanRequest(tool="flashroute-16", gap_limit=gap))
        scan = scanner.scan(context.network(faults=model),
                            targets=context.random_targets)
        result.scans[(f"flashroute-16/gap-{gap}", gap_loss)] = scan
        result.gap_rows.append([
            gap, f"{gap_loss:.0%}", scan.interface_count(),
            f"{_mean_route_length(scan):.2f}", scan.route_holes()])
    return result


# --------------------------------------------------------------------- #
# Loss recovery: probe retransmission vs loss-induced route damage
# --------------------------------------------------------------------- #

@dataclass
class LossRecoveryResult:
    """Recovery table: per (tool, loss), how many of the route holes a
    retry budget repairs (see ``docs/robustness.md``)."""

    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    #: (tool, loss, retries) -> full scan result.
    scans: Dict[Tuple[str, float, int], ScanResult] = field(
        default_factory=dict)
    #: (tool, loss) -> fraction of loss-induced holes absent with
    #: retries (set-based; the machine-readable acceptance number).
    recovery: Dict[Tuple[str, float], float] = field(default_factory=dict)

    def render(self) -> str:
        return render_table(
            self.headers, self.rows,
            title="[Loss recovery: retransmission vs route holes]")

    def to_json(self) -> Dict[str, object]:
        """The CI artifact: the table plus the raw recovery fractions."""
        return {
            "headers": self.headers,
            "rows": [[str(cell) for cell in row] for row in self.rows],
            "recovery": {f"{tool}@{loss}": fraction
                         for (tool, loss), fraction
                         in sorted(self.recovery.items())},
        }


def run_loss_recovery(context: ExperimentContext,
                      loss_rates: Tuple[float, ...] = (0.02, 0.05),
                      tools: Tuple[str, ...] = DEFAULT_TOOLS,
                      retries: int = 2,
                      fault_seed: int = DEFAULT_FAULT_SEED
                      ) -> LossRecoveryResult:
    """Same scan, same faults, with and without a retry budget.

    For each (tool, loss): a clean reference fixes the tool's baseline
    holes, the retry-free faulted run measures the loss-induced damage,
    and the ``retries``-budget run shows how much of it deterministic
    retransmission repairs.  Recovery is set-based — the fraction of
    loss-induced (prefix, ttl) holes no longer holes with retries — so
    holes the lossy runs merely relocate cannot inflate it.
    """
    result = LossRecoveryResult(
        headers=["Tool", "Loss", "Holes clean", "Holes r0",
                 f"Holes r{retries}", "Induced", "Recovered", "Recovery",
                 "Probe cost"])
    for tool in tools:
        clean = create_scanner(ScanRequest(tool=tool)).scan(
            context.network(), targets=context.random_targets)
        clean_holes = clean.holes()
        for loss in loss_rates:
            model = FaultModel.symmetric_loss(loss, seed=fault_seed)
            bare = create_scanner(ScanRequest(tool=tool)).scan(
                context.network(faults=model),
                targets=context.random_targets)
            retried = create_scanner(
                ScanRequest(tool=tool, retries=retries)).scan(
                context.network(faults=model),
                targets=context.random_targets)
            result.scans[(tool, loss, 0)] = bare
            result.scans[(tool, loss, retries)] = retried
            induced = bare.holes() - clean_holes
            recovered = induced - retried.holes()
            fraction = (len(recovered) / len(induced)) if induced else 1.0
            result.recovery[(tool, loss)] = fraction
            cost = (retried.probes_sent / bare.probes_sent
                    if bare.probes_sent else 1.0)
            result.rows.append([
                tool, f"{loss:.0%}", len(clean_holes),
                bare.route_holes(), retried.route_holes(), len(induced),
                len(recovered), f"{fraction:.1%}", f"{cost:.2f}x"])
    return result
