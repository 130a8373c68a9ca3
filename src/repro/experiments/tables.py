"""Drivers for the paper's Tables 1–4.

Each ``run_*`` function executes the scans a table needs and returns a
:class:`TableResult` with structured rows and a paper-style text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..analysis.intrusiveness import TopologyMap, analyze_overprobing
from ..analysis.report import render_table
from ..api import ScanRequest
from ..baselines.yarrp import Yarrp, YarrpConfig
from ..core.config import FlashRouteConfig, PreprobeMode
from ..core.prober import FlashRoute
from ..core.results import ScanResult, format_scan_time
from ..core.scanner import create_scanner
from .common import PAPER_RATE_LIMIT, ExperimentContext


@dataclass
class TableResult:
    """Structured rows plus rendering for one reproduced table."""

    table_id: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    scans: Dict[str, ScanResult] = field(default_factory=dict)

    def render(self) -> str:
        return render_table(self.headers, self.rows,
                            title=f"[{self.table_id}]")


# --------------------------------------------------------------------- #
# Table 1: impact of redundancy elimination during backward probing
# --------------------------------------------------------------------- #

def run_table1(context: ExperimentContext) -> TableResult:
    """Full scans with/without convergence termination, split 16 and 32."""
    result = TableResult(
        table_id="Table 1: impact of redundancy elimination",
        headers=["Split-TTL", "Redundancy removal", "Interfaces", "Probes",
                 "Scan time"])
    for split in (32, 16):
        for removal in (True, False):
            config = FlashRouteConfig(split_ttl=split, gap_limit=5,
                                      preprobe=PreprobeMode.RANDOM,
                                      redundancy_removal=removal)
            label = f"{split}/{'On' if removal else 'Off'}"
            scan = FlashRoute(config).scan(
                context.network(), targets=context.random_targets,
                tool_name=label)
            result.scans[label] = scan
            result.rows.append([split, "On" if removal else "Off",
                                scan.interface_count(), scan.probes_sent,
                                format_scan_time(scan.duration)])
    return result


# --------------------------------------------------------------------- #
# Table 2: effect of preprobing
# --------------------------------------------------------------------- #

def run_table2(context: ExperimentContext) -> TableResult:
    """Six scans: split {32, 16} x preprobing {hitlist, random, none}."""
    result = TableResult(
        table_id="Table 2: effect of preprobing",
        headers=["Configuration", "Interfaces", "Probes", "Scan Time"])
    modes = [(PreprobeMode.HITLIST, "hitlist preprobing"),
             (PreprobeMode.RANDOM, "random preprobing"),
             (PreprobeMode.NONE, "no preprobing")]
    for split in (32, 16):
        for mode, mode_label in modes:
            label = f"{split}/{mode_label}"
            config = FlashRouteConfig(split_ttl=split, preprobe=mode)
            scan = FlashRoute(config).scan(
                context.network(), targets=context.random_targets,
                tool_name=label)
            result.scans[label] = scan
            result.rows.append([label, scan.interface_count(),
                                scan.probes_sent,
                                format_scan_time(scan.duration)])
    return result


# --------------------------------------------------------------------- #
# Table 3: tool comparison
# --------------------------------------------------------------------- #

def run_table3(context: ExperimentContext,
               include_scamper: bool = True) -> TableResult:
    """FlashRoute-16/32, Yarrp-16/32, Scamper-16, Yarrp-32-UDP simulation.

    Tools are resolved through the scanner registry
    (:mod:`repro.core.scanner`) from default requests — the exact
    configurations their registrations encode, which are the paper's
    Table 3 configurations.
    """
    result = TableResult(
        table_id="Table 3: full /24 traceroute scan comparison",
        headers=["Tool", "Interfaces", "Probes", "Scan Time"])

    def add(label: str, tool: str) -> None:
        scan = create_scanner(ScanRequest(tool=tool)).scan(
            context.network(), targets=context.random_targets,
            tool_name=label)
        result.scans[label] = scan
        result.rows.append([label, scan.interface_count(), scan.probes_sent,
                            format_scan_time(scan.duration)])

    add("FlashRoute-16", "flashroute-16")
    add("FlashRoute-32", "flashroute-32")
    add("Yarrp-16", "yarrp-16")
    add("Yarrp-32", "yarrp-32")
    if include_scamper:
        add("Scamper-16", "scamper-16")
    add("Yarrp-32-UDP (Simulation)", "yarrp-32-udp-sim")
    return result


def run_neighborhood_protection(context: ExperimentContext) -> TableResult:
    """The §4.2.1 side experiment: Yarrp-32 with 3- and 6-hop protection."""
    result = TableResult(
        table_id="Yarrp neighborhood protection (§4.2.1)",
        headers=["Configuration", "Interfaces", "Probes", "Scan Time",
                 "Skipped probes"])
    for radius in (0, 3, 6):
        config = YarrpConfig.yarrp_32(neighborhood_radius=radius)
        label = config.label
        scanner = Yarrp(config)
        scan = scanner.scan(context.network(), targets=context.random_targets,
                            tool_name=label)
        result.scans[label] = scan
        result.rows.append([label, scan.interface_count(), scan.probes_sent,
                            format_scan_time(scan.duration),
                            scan.skipped_probes])
    return result


# --------------------------------------------------------------------- #
# Table 4: interface overprobing
# --------------------------------------------------------------------- #

def run_table4(context: ExperimentContext,
               rate_limit: int = PAPER_RATE_LIMIT,
               probing_rate: float = 100_000.0) -> TableResult:
    """Replay each tool's probe timeline against a reference topology.

    Following the paper, the scans run at the full 100 Kpps (the virtual
    clock makes that free) and probes are mapped to "the hop discovered by
    Scamper for the same destination address at the same TTL distance".
    That phrasing presumes *complete* per-destination routes: Doubletree's
    premise is that the segment below a convergence point was already
    discovered, so Scamper's output determines hops even at TTLs it skipped
    for a given destination.  Our Scamper model records only the hops it
    probed, so the completed map is built from an exhaustive reference scan
    at Scamper's 10x-lower rate — the same per-destination hop truth the
    paper's completed Scamper topology provides.
    """
    # The reference network runs without rate limiting: the map stands for
    # ground-truth routes, and the slow reference scan's own ICMP throttling
    # (an artifact of its synchronized per-TTL rounds) must not blind the
    # replay to exactly the shared interfaces being studied.
    reference = FlashRoute(FlashRouteConfig.yarrp32_udp_simulation(
        probing_rate=probing_rate / 10.0)).scan(
        context.network(rate_limit=2**31), targets=context.random_targets,
        tool_name="reference (complete routes @10% rate)")
    topology_map = TopologyMap(reference)

    result = TableResult(
        table_id="Table 4: interface overprobing",
        headers=["Tool and Configuration", "Overprobed Interfaces",
                 "Dropped Probes"])
    result.scans["scamper-reference"] = reference

    runs = [
        ("FlashRoute-16",
         lambda net: FlashRoute(FlashRouteConfig.flashroute_16(
             probing_rate=probing_rate)).scan(
             net, targets=context.random_targets, tool_name="FlashRoute-16")),
        ("FlashRoute-32",
         lambda net: FlashRoute(FlashRouteConfig.flashroute_32(
             probing_rate=probing_rate)).scan(
             net, targets=context.random_targets, tool_name="FlashRoute-32")),
        ("Yarrp-32",
         lambda net: Yarrp(YarrpConfig.yarrp_32(
             probing_rate=probing_rate)).scan(
             net, targets=context.random_targets, tool_name="Yarrp-32")),
        ("Yarrp-32 3-hop protection",
         lambda net: Yarrp(YarrpConfig.yarrp_32(
             probing_rate=probing_rate, neighborhood_radius=3)).scan(
             net, targets=context.random_targets,
             tool_name="Yarrp-32 3-hop protection")),
        ("Yarrp-32 6-hop protection",
         lambda net: Yarrp(YarrpConfig.yarrp_32(
             probing_rate=probing_rate, neighborhood_radius=6)).scan(
             net, targets=context.random_targets,
             tool_name="Yarrp-32 6-hop protection")),
    ]
    for label, runner in runs:
        network = context.network(log_probes=True)
        scan = runner(network)
        report = analyze_overprobing(label, network.probe_log, topology_map,
                                     rate_limit=rate_limit)
        result.scans[label] = scan
        result.rows.append([label, report.overprobed_interfaces,
                            report.dropped_probes])
    return result
