"""Scanner protocol + registry (repro.core.scanner)."""

from operator import attrgetter

import pytest

from repro.api import ScanRequest
from repro.baselines.scamper import Scamper
from repro.baselines.traceroute import TracerouteScanner
from repro.baselines.yarrp import Yarrp
from repro.core import FlashRoute, PreprobeMode, ScanResult
from repro.core.resilience import ResilienceConfig
from repro.core.scanner import (
    Scanner,
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
            scanner = create_scanner(ScanRequest(tool=name))
            assert isinstance(scanner, cls), name
            assert isinstance(scanner, Scanner), name

    def test_create_returns_fresh_instances(self):
        assert create_scanner(ScanRequest()) is not \
            create_scanner(ScanRequest())

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="tool must be one of .*"
                                             "flashroute-16"):
            ScanRequest(tool="nmap")

    def test_decorator_registration_and_cleanup(self):
        @register_scanner("test-dummy")
        def _build(request, telemetry, resilience):
            return FlashRoute()
        try:
            assert "test-dummy" in scanner_names()
            assert isinstance(create_scanner(ScanRequest(tool="test-dummy")),
                              FlashRoute)
            with pytest.raises(ValueError, match="already registered"):
                register_scanner("test-dummy", _build)
        finally:
            unregister_scanner("test-dummy")
        assert "test-dummy" not in scanner_names()

    def test_default_options_match_paper_configs(self):
        fr16 = create_scanner(ScanRequest()).config
        assert (fr16.split_ttl, fr16.gap_limit) == (16, 5)
        assert fr16.preprobe.value == "hitlist"
        y16 = create_scanner(ScanRequest(tool="yarrp-16")).config
        assert (y16.fill_start, y16.max_ttl) == (16, 32)
        udp_sim = create_scanner(ScanRequest(tool="yarrp-32-udp-sim")).config
        assert (udp_sim.split_ttl, udp_sim.gap_limit) == (32, 0)
        assert udp_sim.preprobe.value == "none"


#: Where each tool's factory puts the fields of ``KNOBS``: attribute paths
#: on its config (traceroute: on the scanner itself).  A tool's factory
#: ignores the fields its row does not list.
KNOBS = dict(rate=50.0, split_ttl=12, gap_limit=3, preprobe="none",
             retries=2)
_FLASHROUTE = {"probing_rate": 50.0, "split_ttl": 12, "gap_limit": 3,
               "preprobe": PreprobeMode.NONE, "resilience.retries": 2}
_YARRP = {"probing_rate": 50.0, "resilience.retries": 2}
REACHES = {
    "flashroute-16": _FLASHROUTE, "flashroute-32": _FLASHROUTE,
    "yarrp-16": _YARRP, "yarrp-32": _YARRP, "yarrp-32-udp-sim": _YARRP,
    "scamper-16": {"probing_rate": 50.0, "first_ttl": 12, "gap_limit": 3,
                   "retries": 2},
    "traceroute": {"inter_probe_gap": 0.02, "retries": 2},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_TYPES))
def test_request_fields_reach_the_config(name):
    scanner = create_scanner(ScanRequest(tool=name, **KNOBS))
    config = getattr(scanner, "config", scanner)
    assert {path: attrgetter(path)(config) for path in REACHES[name]} \
        == REACHES[name]


def test_explicit_resilience_wins_over_request_retries():
    scanner = create_scanner(ScanRequest(retries=2), None,
                             ResilienceConfig(retries=5))
    assert scanner.config.resilience.retries == 5


class TestEveryScannerScans:
    @pytest.mark.parametrize("name", sorted(EXPECTED_TYPES))
    def test_scan_produces_result(self, topology, name):
        network = SimulatedNetwork(topology)
        result = create_scanner(ScanRequest(tool=name)).scan(network)
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
