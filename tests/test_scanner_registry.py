"""Scanner protocol + registry (repro.core.scanner)."""

import pytest

from repro.baselines.scamper import Scamper
from repro.baselines.traceroute import TracerouteScanner
from repro.baselines.yarrp import Yarrp
from repro.core import FlashRoute, ScanResult
from repro.core.scanner import (
    Scanner,
    ScannerOptions,
    create_scanner,
    register_scanner,
    scanner_names,
    unregister_scanner,
)
from repro.simnet import SimulatedNetwork, Topology, TopologyConfig


@pytest.fixture(scope="module")
def topology():
    return Topology(TopologyConfig(num_prefixes=64, seed=7))


EXPECTED_TYPES = {
    "flashroute-16": FlashRoute,
    "flashroute-32": FlashRoute,
    "yarrp-16": Yarrp,
    "yarrp-32": Yarrp,
    "scamper-16": Scamper,
    "traceroute": TracerouteScanner,
    "yarrp-32-udp-sim": FlashRoute,
}


class TestRegistry:
    def test_builtin_names(self):
        names = scanner_names()
        assert set(EXPECTED_TYPES) <= set(names)
        assert names == tuple(sorted(names))

    def test_create_builds_expected_types(self):
        for name, cls in EXPECTED_TYPES.items():
            scanner = create_scanner(name)
            assert isinstance(scanner, cls), name
            assert isinstance(scanner, Scanner), name

    def test_create_returns_fresh_instances(self):
        assert create_scanner("flashroute-16") is not \
            create_scanner("flashroute-16")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="flashroute-16"):
            create_scanner("nmap")

    def test_decorator_registration_and_cleanup(self):
        @register_scanner("test-dummy")
        def _build(options):
            return FlashRoute()
        try:
            assert "test-dummy" in scanner_names()
            assert isinstance(create_scanner("test-dummy"), FlashRoute)
            with pytest.raises(ValueError, match="already registered"):
                register_scanner("test-dummy", lambda options: FlashRoute())
        finally:
            unregister_scanner("test-dummy")
        assert "test-dummy" not in scanner_names()

    def test_options_reach_the_config(self):
        scanner = create_scanner("flashroute-16", ScannerOptions(
            probing_rate=1234.0, split_ttl=12, gap_limit=3,
            preprobe="none", seed=99))
        config = scanner.config
        assert config.probing_rate == 1234.0
        assert config.split_ttl == 12
        assert config.gap_limit == 3
        assert config.preprobe.value == "none"
        assert config.seed == 99

    def test_default_options_match_paper_configs(self):
        fr16 = create_scanner("flashroute-16").config
        assert (fr16.split_ttl, fr16.gap_limit) == (16, 5)
        assert fr16.preprobe.value == "hitlist"
        y16 = create_scanner("yarrp-16").config
        assert (y16.fill_start, y16.max_ttl) == (16, 32)
        udp_sim = create_scanner("yarrp-32-udp-sim").config
        assert (udp_sim.split_ttl, udp_sim.gap_limit) == (32, 0)
        assert udp_sim.preprobe.value == "none"


class TestEveryScannerScans:
    @pytest.mark.parametrize("name", sorted(EXPECTED_TYPES))
    def test_scan_produces_result(self, topology, name):
        network = SimulatedNetwork(topology)
        result = create_scanner(name).scan(network)
        assert isinstance(result, ScanResult)
        assert result.probes_sent > 0
        assert result.interface_count() > 0
        assert sum(result.response_kinds.values()) == result.responses


class TestTracerouteScanner:
    def test_aggregates_per_destination_traces(self, topology):
        network = SimulatedNetwork(topology)
        result = TracerouteScanner().scan(network)
        assert result.tool == "Traceroute"
        assert result.num_targets == topology.num_prefixes
        assert result.responses > 0
        assert result.duration > 0
        # Sequential traceroute costs far more probes per target than
        # FlashRoute against the same topology.
        network.reset()
        flash = FlashRoute().scan(network)
        assert result.probes_per_target() > flash.probes_per_target()

    def test_rate_maps_to_probe_gap(self):
        scanner = create_scanner("traceroute",
                                 ScannerOptions(probing_rate=50.0))
        assert scanner.inter_probe_gap == pytest.approx(0.02)
