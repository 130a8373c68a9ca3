"""Deterministic fault injection (repro.simnet.faults)."""

import pytest

from repro.core import FlashRoute, FlashRouteConfig
from repro.core.output import result_to_dict
from repro.core.scanner import ScannerOptions, create_scanner
from repro.simnet import (
    FaultInjector,
    FaultModel,
    SimulatedNetwork,
    Topology,
    TopologyConfig,
)

from oracle.network import OracleNetwork

CFG = TopologyConfig(num_prefixes=96, seed=13)


@pytest.fixture(scope="module")
def topology():
    return Topology(CFG)


def scan_dict(topology, faults=None, network_class=SimulatedNetwork,
              gap_limit=5, seed=1):
    network = network_class(topology, faults=faults)
    config = FlashRouteConfig(split_ttl=16, gap_limit=gap_limit, seed=seed)
    result = FlashRoute(config).scan(network)
    return result_to_dict(result)


class TestFaultModel:
    def test_default_is_disabled(self):
        assert not FaultModel().enabled

    def test_enabled_by_any_fault(self):
        assert FaultModel(probe_loss=0.1).enabled
        assert FaultModel(response_loss=0.1).enabled
        assert FaultModel(reorder_window=0.01).enabled
        assert FaultModel(duplicate_probability=0.1).enabled
        assert FaultModel(blackout_fraction=0.1).enabled

    def test_blackout_without_duration_is_disabled(self):
        assert not FaultModel(blackout_fraction=0.5,
                              blackout_duration=0.0).enabled

    @pytest.mark.parametrize("kwargs", [
        {"probe_loss": -0.1},
        {"probe_loss": 1.0},
        {"response_loss": 1.5},
        {"duplicate_probability": -1},
        {"blackout_fraction": 1.2},
        {"reorder_window": -0.5},
        {"blackout_period": 0.0},
        {"blackout_duration": 100.0},  # > default period
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultModel(**kwargs)

    def test_symmetric_loss(self):
        model = FaultModel.symmetric_loss(0.05, seed=9)
        assert model.probe_loss == 0.05
        assert model.response_loss == 0.05
        assert model.seed == 9


class TestZeroFaultIdentity:
    def test_disabled_model_builds_no_injector(self, topology):
        network = SimulatedNetwork(topology, faults=FaultModel())
        assert network.faults is None

    def test_zero_fault_scan_is_bit_identical(self, topology):
        """A FaultModel() network must reproduce the no-faults network's
        output exactly, field for field."""
        baseline = scan_dict(topology, faults=None)
        with_model = scan_dict(topology, faults=FaultModel())
        assert with_model == baseline

    def test_config_default_model_is_bit_identical(self, topology):
        """TopologyConfig grows a faults field; its default must leave the
        network's behaviour untouched."""
        assert not topology.config.faults.enabled
        baseline = scan_dict(topology, faults=None)
        assert scan_dict(topology) == baseline


class TestDeterminism:
    def test_same_seed_same_result(self, topology):
        model = FaultModel.symmetric_loss(0.05, seed=77)
        first = scan_dict(topology, faults=model)
        second = scan_dict(topology, faults=model)
        assert first == second

    def test_cached_and_uncached_agree_under_faults(self, topology):
        """The cached-vs-uncached equivalence guarantee must survive fault
        injection: faults apply post-lookup from stateless per-probe
        hashes, so serving mode cannot change the fault sequence."""
        model = FaultModel(probe_loss=0.04, response_loss=0.04,
                           duplicate_probability=0.03, seed=5)
        cached = scan_dict(topology, faults=model)
        uncached = scan_dict(topology, faults=model,
                             network_class=OracleNetwork)
        assert cached == uncached

    def test_different_seeds_differ(self, topology):
        a = scan_dict(topology, faults=FaultModel.symmetric_loss(0.1, seed=1))
        b = scan_dict(topology, faults=FaultModel.symmetric_loss(0.1, seed=2))
        assert a != b


class TestFaultEffects:
    def test_loss_reduces_discovery(self, topology):
        baseline = scan_dict(topology)
        lossy = scan_dict(topology,
                          faults=FaultModel.symmetric_loss(0.2, seed=3))
        count = lambda payload: len({r for hops in payload["routes"].values()
                                     for r in hops.values()})
        assert count(lossy) < count(baseline)
        assert lossy["responses"] < baseline["responses"]

    def test_duplicates_are_recorded(self, topology):
        model = FaultModel(duplicate_probability=0.3, seed=11)
        payload = scan_dict(topology, faults=model)
        assert payload["duplicate_responses"] > 0
        # Counted inside responses, never beyond them.
        assert payload["duplicate_responses"] <= payload["responses"]
        # A duplicate re-hits the Doubletree stop set, so it terminates
        # backward probing earlier — the scan must shrink, not grow.
        baseline = scan_dict(topology)
        assert payload["probes_sent"] <= baseline["probes_sent"]

    def test_blackouts_drop_responses(self, topology):
        model = FaultModel(blackout_fraction=0.5, blackout_period=10.0,
                           blackout_duration=5.0, seed=21)
        network = SimulatedNetwork(topology, faults=model)
        FlashRoute(FlashRouteConfig(split_ttl=16)).scan(network)
        assert network.faults.blackout_drops > 0

    def test_reordering_changes_arrival_only(self, topology):
        model = FaultModel(reorder_window=0.05, seed=8)
        payload = scan_dict(topology, faults=model)
        baseline = scan_dict(topology)
        # Same topology knowledge, possibly different counters/timing.
        assert payload["routes"] == baseline["routes"]

    def test_injector_counters(self, topology):
        model = FaultModel.symmetric_loss(0.1, seed=4)
        network = SimulatedNetwork(topology, faults=model)
        FlashRoute(FlashRouteConfig(split_ttl=16)).scan(network)
        stats = network.faults.stats()
        assert stats["probes_lost"] > 0
        assert stats["responses_lost"] > 0
        network.reset()
        assert network.faults.stats()["probes_lost"] == 0


class TestGapLimitUnderLoss:
    def test_gap_limit_bounds_truncation(self, topology):
        """§4.2: under loss, gap limit 5 keeps forward probing alive past
        lost replies; gap limit 1 truncates at the first one.  The default
        must therefore discover at least as much, and strictly more
        somewhere, than gap 1 on the same fault sequence."""
        model = FaultModel.symmetric_loss(0.1, seed=6)

        def interfaces(gap):
            scanner = create_scanner("flashroute-16",
                                     ScannerOptions(gap_limit=gap))
            network = SimulatedNetwork(topology, faults=model)
            return scanner.scan(network).interface_count()

        assert interfaces(5) > interfaces(1)


class TestInjectorUnit:
    def test_filter_probe_loss_certain(self):
        # probe_loss close to 1 drops (nearly) everything; the filter must
        # never return a response object for a dropped probe.
        injector = FaultInjector(FaultModel(probe_loss=0.999, seed=1))
        dropped = sum(
            1 for i in range(500)
            if injector.filter(i, 10, float(i), None) is None)
        assert dropped == 500
        assert injector.probes_lost > 450

    def test_filter_is_pure_per_probe(self):
        injector = FaultInjector(FaultModel(probe_loss=0.5, seed=1))
        first = [injector.filter(dst, 7, 0.25, None) is None
                 for dst in range(100)]
        second = [injector.filter(dst, 7, 0.25, None) is None
                  for dst in range(100)]
        assert first == second
