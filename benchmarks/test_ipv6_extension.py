"""§5.4's IPv6 extension, measured.

The paper defers IPv6 to future work, noting that the control state must
be redesigned for sparse allocation.  This benchmark runs FlashRoute's one
engine over the simulator's IPv6 address plan — the one routed topology
with each stub a /48 site and each block a sparsely numbered /64, scanned
from its seed list of one known address per /64, with the DCB array
indexed through a dict of the scan's own /64s — against Yarrp's stateless
sweep of one probe per (target, hop), and checks that FlashRoute's
headline carries over: a small fraction of the probes for (nearly) the
same interface discovery.
"""

from conftest import run_once
from repro.analysis.report import render_table
from repro.core import FlashRoute, FlashRouteConfig
from repro.core.results import format_scan_time
from repro.simnet import SimulatedNetwork, Topology, TopologyConfig


def _run_v6_comparison():
    # seed 2018: Yarrp6's IMC year.
    topology = Topology(TopologyConfig(num_prefixes=1024, seed=2018,
                                       address_bits=128))
    targets = topology.seed_targets()
    flashroute = FlashRoute(FlashRouteConfig.flashroute_16_v6()).scan(
        SimulatedNetwork(topology), targets=targets)
    exhaustive = FlashRoute(FlashRouteConfig.yarrp32_udp_simulation(
        granularity=64, probing_rate=1000.0)).scan(
        SimulatedNetwork(topology), targets=targets,
        tool_name="Yarrp-32-UDP sim")
    return topology, flashroute, exhaustive


def test_ipv6_extension(benchmark, save_result):
    topology, flashroute, exhaustive = run_once(benchmark,
                                                _run_v6_comparison)

    table = render_table(
        ["Tool", "Interfaces", "Probes", "Scan Time"],
        [[scan.tool, scan.interface_count(), scan.probes_sent,
          format_scan_time(scan.duration)]
         for scan in (flashroute, exhaustive)],
        title=f"[§5.4] IPv6 extension "
              f"({len(topology.subnets)} announced /64s, indexed DCB array)")
    save_result("ipv6_extension", table)

    # The redesigned control state scans a target list the flat array
    # never could, and the probing strategy's savings carry over.
    assert flashroute.probes_sent < 0.5 * exhaustive.probes_sent
    assert flashroute.interface_count() >= \
        0.97 * exhaustive.interface_count()
    assert flashroute.duration < exhaustive.duration
    # One probe per (target, hop) in the baseline — sanity of comparison.
    assert exhaustive.probes_sent == 32 * len(topology.subnets)
