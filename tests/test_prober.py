"""FlashRoute engine integration tests: probing logic, stop conditions,
preprobing, folding, and ground-truth consistency."""

import pytest

from repro.core.config import FlashRouteConfig, PreprobeMode
from repro.core.prober import FlashRoute
from repro.core.targets import hitlist_targets, random_targets
from repro.simnet.config import TopologyConfig
from repro.simnet.network import SimulatedNetwork
from repro.simnet.topology import Topology


def scan(topology, targets, **config_kwargs):
    config = FlashRouteConfig(**config_kwargs)
    return FlashRoute(config).scan(SimulatedNetwork(topology),
                                   targets=targets)


class TestScanCompletion:
    def test_scan_terminates(self, tiny_topology, tiny_targets):
        result = scan(tiny_topology, tiny_targets)
        assert not result.aborted
        assert result.rounds >= 1
        assert result.duration > 0

    def test_every_target_recorded(self, tiny_topology, tiny_targets):
        result = scan(tiny_topology, tiny_targets)
        assert result.targets == tiny_targets
        assert result.num_targets == len(tiny_targets)

    def test_deterministic(self, tiny_topology, tiny_targets):
        a = scan(tiny_topology, tiny_targets, seed=5)
        b = scan(tiny_topology, tiny_targets, seed=5)
        assert a.probes_sent == b.probes_sent
        assert a.routes == b.routes
        assert a.duration == b.duration


class TestGroundTruthConsistency:
    def test_hops_match_reality(self, tiny_topology, tiny_targets):
        """Every recorded hop must be the true interface at that TTL for
        some flow (the engine cannot invent topology)."""
        topo = tiny_topology
        result = scan(topo, tiny_targets)
        for prefix, hops in result.routes.items():
            dst = tiny_targets[prefix]
            from repro.net.checksum import addr_checksum
            flow = addr_checksum(dst)
            for ttl, responder in hops.items():
                candidates = set()
                for epoch in (0, 1):
                    hop = topo.hop_at(dst, ttl, flow=flow, epoch=epoch)
                    if hop.iface >= 0:
                        candidates.add(topo.iface_addrs[hop.iface])
                assert responder in candidates

    def test_interfaces_are_real(self, tiny_topology, tiny_targets):
        topo = tiny_topology
        result = scan(topo, tiny_targets)
        known = set(topo.iface_addrs)
        assert result.interfaces() <= known

    def test_destination_distances_are_true(self, tiny_topology, tiny_targets):
        topo = tiny_topology
        result = scan(topo, tiny_targets)
        for prefix, measured in result.dest_distance.items():
            dst = tiny_targets[prefix]
            truth = {topo.destination_distance(dst, epoch=epoch)
                     for epoch in (0, 1)}
            assert measured in truth


class TestProbeBudget:
    def test_exhaustive_mode_is_exactly_32_per_target(self, tiny_topology,
                                                      tiny_targets):
        config = FlashRouteConfig.yarrp32_udp_simulation()
        result = FlashRoute(config).scan(SimulatedNetwork(tiny_topology),
                                         targets=tiny_targets)
        assert result.probes_sent == 32 * len(tiny_targets)

    def test_redundancy_removal_saves_probes(self, tiny_topology,
                                             tiny_targets):
        with_removal = scan(tiny_topology, tiny_targets, split_ttl=16,
                            preprobe=PreprobeMode.NONE,
                            redundancy_removal=True)
        without = scan(tiny_topology, tiny_targets, split_ttl=16,
                       preprobe=PreprobeMode.NONE, redundancy_removal=False)
        assert with_removal.probes_sent < without.probes_sent

    def test_flashroute16_beats_exhaustive(self, tiny_topology, tiny_targets):
        fr16 = scan(tiny_topology, tiny_targets, split_ttl=16)
        exhaustive = FlashRoute(
            FlashRouteConfig.yarrp32_udp_simulation()).scan(
            SimulatedNetwork(tiny_topology), targets=tiny_targets)
        # On 128 prefixes path sharing is weak, so the savings are smaller
        # than at scale (the benchmarks assert the paper's full ratios).
        assert fr16.probes_sent < 0.65 * exhaustive.probes_sent
        # ... while finding nearly as many interfaces.
        assert fr16.interface_count() > 0.9 * exhaustive.interface_count()

    def test_each_target_ttl_probed_at_most_once(self, tiny_topology,
                                                 tiny_targets):
        """Without retries, no (destination, TTL) pair is probed twice."""
        topo = tiny_topology
        network = SimulatedNetwork(topo, log_probes=True)
        FlashRoute(FlashRouteConfig(split_ttl=16,
                                    preprobe=PreprobeMode.NONE)).scan(
            network, targets=tiny_targets)
        seen = set()
        for _t, dst, ttl in network.probe_log:
            assert (dst, ttl) not in seen
            seen.add((dst, ttl))


class TestPreprobing:
    def test_preprobe_probe_count(self, tiny_topology, tiny_targets):
        result = scan(tiny_topology, tiny_targets, split_ttl=16,
                      preprobe=PreprobeMode.RANDOM)
        assert result.preprobe_probes == len(tiny_targets)

    def test_no_preprobe_means_no_preprobe_probes(self, tiny_topology,
                                                  tiny_targets):
        result = scan(tiny_topology, tiny_targets,
                      preprobe=PreprobeMode.NONE)
        assert result.preprobe_probes == 0

    def test_fold_saves_the_preprobe_round(self, tiny_topology, tiny_targets):
        """With split 32 + random preprobing the preprobe IS the first
        round, so it must not cost extra probes compared to no preprobing
        (paper §4.1.3: 'preprobing does not entail extra probes')."""
        folded = scan(tiny_topology, tiny_targets, split_ttl=32,
                      preprobe=PreprobeMode.RANDOM)
        plain = scan(tiny_topology, tiny_targets, split_ttl=32,
                     preprobe=PreprobeMode.NONE)
        # The preprobe round replaces the first main round one-for-one, so
        # folding never costs more than a sliver (distance-guided split
        # points can shift a couple of probes either way on 128 prefixes).
        assert folded.probes_sent <= plain.probes_sent * 1.02

    def test_split16_preprobe_costs_extra(self, tiny_topology, tiny_targets):
        """With split 16 the preprobe cannot fold; wasted preprobes make the
        scan at least as expensive in probes (paper Table 2)."""
        preprobed = scan(tiny_topology, tiny_targets, split_ttl=16,
                         preprobe=PreprobeMode.RANDOM)
        plain = scan(tiny_topology, tiny_targets, split_ttl=16,
                     preprobe=PreprobeMode.NONE)
        assert preprobed.preprobe_probes > 0


class TestStopConditions:
    def test_gap_limit_zero_means_no_forward(self, tiny_topology,
                                             tiny_targets):
        result = scan(tiny_topology, tiny_targets, split_ttl=16, gap_limit=0,
                      preprobe=PreprobeMode.NONE)
        # No probe may exceed the split TTL.
        assert all(ttl <= 16 for ttl in result.ttl_probe_histogram)

    def test_forward_probing_extends_beyond_split(self, tiny_topology,
                                                  tiny_targets):
        result = scan(tiny_topology, tiny_targets, split_ttl=16, gap_limit=5,
                      preprobe=PreprobeMode.NONE)
        assert any(ttl > 16 for ttl in result.ttl_probe_histogram)

    def test_max_ttl_respected(self, tiny_topology, tiny_targets):
        result = scan(tiny_topology, tiny_targets, split_ttl=16, gap_limit=5,
                      preprobe=PreprobeMode.NONE, max_ttl=20)
        assert max(result.ttl_probe_histogram) <= 20

    def test_backward_probing_reaches_ttl_1_without_removal(
            self, tiny_topology, tiny_targets):
        result = scan(tiny_topology, tiny_targets, split_ttl=16,
                      preprobe=PreprobeMode.NONE, redundancy_removal=False)
        assert result.ttl_probe_histogram[1] == len(tiny_targets)

    def test_redundancy_removal_prunes_low_ttls(self, tiny_topology,
                                                tiny_targets):
        result = scan(tiny_topology, tiny_targets, split_ttl=16,
                      preprobe=PreprobeMode.NONE, redundancy_removal=True)
        # Convergence termination means almost nobody probes TTL 1.
        assert result.ttl_probe_histogram[1] < len(tiny_targets) * 0.2


class TestStartTtls:
    def test_start_ttls_override_split(self, tiny_topology, tiny_targets):
        start = {prefix: 4 for prefix in tiny_targets}
        result = FlashRoute(FlashRouteConfig(
            split_ttl=16, gap_limit=0, preprobe=PreprobeMode.NONE)).scan(
            SimulatedNetwork(tiny_topology), targets=tiny_targets,
            start_ttls=start)
        assert max(result.ttl_probe_histogram) <= 4


class TestSharedStopSet:
    def test_shared_stop_set_shrinks_second_scan(self, tiny_topology,
                                                 tiny_targets):
        stop_set = set()
        first = FlashRoute(FlashRouteConfig(
            split_ttl=16, preprobe=PreprobeMode.NONE)).scan(
            SimulatedNetwork(tiny_topology), targets=tiny_targets,
            stop_set=stop_set)
        assert stop_set  # populated by the first scan
        second = FlashRoute(FlashRouteConfig(
            split_ttl=16, preprobe=PreprobeMode.NONE, seed=2)).scan(
            SimulatedNetwork(tiny_topology), targets=tiny_targets,
            stop_set=stop_set)
        assert second.probes_sent < first.probes_sent


class TestExclusions:
    def test_excluded_prefixes_never_probed(self, tiny_topology,
                                            tiny_targets):
        excluded = sorted(tiny_targets)[:5]
        network = SimulatedNetwork(tiny_topology, log_probes=True)
        FlashRoute(FlashRouteConfig(preprobe=PreprobeMode.NONE)).scan(
            network, targets=tiny_targets, excluded=excluded)
        probed_prefixes = {dst >> 8 for _t, dst, ttl in network.probe_log}
        assert not probed_prefixes & set(excluded)

    def test_all_excluded_raises(self, tiny_topology, tiny_targets):
        with pytest.raises(ValueError):
            FlashRoute(FlashRouteConfig(preprobe=PreprobeMode.NONE)).scan(
                SimulatedNetwork(tiny_topology), targets=tiny_targets,
                excluded=list(tiny_targets))


class TestTiming:
    def test_duration_respects_round_pacing(self, tiny_topology,
                                            tiny_targets):
        result = scan(tiny_topology, tiny_targets,
                      preprobe=PreprobeMode.NONE, round_seconds=1.0)
        assert result.duration >= result.rounds * 1.0

    def test_higher_rate_is_faster(self, tiny_topology, tiny_targets):
        slow = scan(tiny_topology, tiny_targets, preprobe=PreprobeMode.NONE,
                    probing_rate=100.0)
        fast = scan(tiny_topology, tiny_targets, preprobe=PreprobeMode.NONE,
                    probing_rate=10_000.0)
        assert fast.duration < slow.duration
        assert fast.probes_sent == pytest.approx(slow.probes_sent, rel=0.15)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"split_ttl": 0}, {"split_ttl": 33}, {"gap_limit": -1},
        {"max_ttl": 0}, {"max_ttl": 40}, {"proximity_span": -1},
        {"probing_rate": 0.0}, {"round_seconds": -0.5},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            FlashRouteConfig(**kwargs)

    @pytest.mark.parametrize("seconds", [float("inf"), float("-inf"),
                                         float("nan")])
    def test_rejects_non_finite_round_seconds(self, seconds):
        """``inf`` used to die mid-scan (``int(inf * 1000)`` in the next
        marking) and ``nan`` ran rounds with no wait at all."""
        with pytest.raises(ValueError, match="round_seconds must be a "
                                             "non-negative finite number"):
            FlashRouteConfig(round_seconds=seconds)

    def test_zero_round_seconds_is_a_configuration(self):
        assert FlashRouteConfig(round_seconds=0.0).round_seconds == 0.0

    def test_string_preprobe_coerced(self):
        assert FlashRouteConfig(preprobe="hitlist").preprobe is \
            PreprobeMode.HITLIST


class TestSetUpScalesWithTargets:
    """Scan set-up costs the scan's targets, not the topology it runs on
    (what a shard slice of a large topology depends on)."""

    def test_own_hitlist_is_the_hitlist_restricted(self, tiny_topology,
                                                   tiny_targets):
        from repro.core.prober import _own_hitlist

        blocks = sorted(tiny_targets)[::3] + [0, 1 << 24]  # two off-space
        for granularity in (24, 26):
            full = hitlist_targets(tiny_topology, granularity=granularity)
            shift = granularity - 24
            fine = [(block << shift) | 1 for block in blocks]
            assert _own_hitlist(tiny_topology, fine, granularity) \
                == {block: full[block] for block in fine if block in full}

    @staticmethod
    def census(monkeypatch, prefixes: int):
        """(Feistel rounds, prediction lookups) of a 16-target
        ``flashroute-16`` scan on a ``prefixes``-prefix topology."""
        from repro.core import permutation, prober

        counts = {"rounds": 0, "lookups": 0}
        real_mix, real_predict = permutation._mix, prober.predict_distances

        def counted_mix(value, key):
            counts["rounds"] += 1
            return real_mix(value, key)

        class CountingDict(dict):
            def get(self, key, default=None):
                counts["lookups"] += 1
                return super().get(key, default)

            def __contains__(self, key):
                counts["lookups"] += 1
                return super().__contains__(key)

        def counted_predict(measured, num_prefixes, span):
            assert measured, "the census needs measured distances"
            return real_predict(CountingDict(measured), num_prefixes, span)

        topology = Topology(TopologyConfig(num_prefixes=prefixes, seed=3))
        # Sixteen blocks, 32 apart, inside the stubs both sizes share (a
        # topology is generated stub by stub from one seeded stream).
        drawn = random_targets(topology, seed=1)
        targets = {prefix: drawn[prefix] for prefix
                   in range(topology.base_prefix + 16,
                            topology.base_prefix + 512, 32)}
        with monkeypatch.context() as patch:
            patch.setattr(permutation, "_mix", counted_mix)
            patch.setattr(prober, "predict_distances", counted_predict)
            FlashRoute(FlashRouteConfig(probing_rate=1000.0)).scan(
                SimulatedNetwork(topology), targets=targets)
        return counts

    def test_set_up_census_is_independent_of_topology_size(self,
                                                          monkeypatch):
        small = self.census(monkeypatch, 1024)
        large = self.census(monkeypatch, 16384)
        # Both sizes fill the Feistel square exactly: one 4-round
        # inverse evaluation per ring member, no cycle-walking.
        assert small["rounds"] == large["rounds"] == 16 * 4
        assert small["lookups"] == large["lookups"]
        assert 0 < large["lookups"] < 16 * 11 * 11
