"""The IPv6 extension: the sparse v6 topology, and FlashRoute scanning it
on the one engine (``FlashRoute.scan`` over ``ScanRuntime`` and the DCB
ring), with the address family read from the topology."""

import pytest

from repro.core import FlashRoute, FlashRouteConfig
from repro.core.config import PreprobeMode
from repro.core.encoding import (EncodingError, decode_response,
                                 destination_intact, encode_probe, rtt_ms)
from repro.core.prober import _ScanRun
from repro.core.runtime import ScanRuntime
from repro.net.checksum import flow_source_port
from repro.net.icmp import ResponseKind
from repro.obs import EventRecorder, Telemetry, read_events
from repro.simnet import SimulatedNetwork, Topology, TopologyConfig
from repro.v6 import SimulatedNetwork6, Topology6, TopologyConfig6


@pytest.fixture(scope="module")
def topo6():
    return Topology6(TopologyConfig6(num_sites=48, seed=5))


@pytest.fixture(scope="module")
def seed_targets(topo6):
    return topo6.seed_targets()


def scan6(topology, targets=None, telemetry=None, network=None,
          **overrides):
    """FlashRoute-16 over IPv6 (``overrides`` adjust its config)."""
    config = FlashRouteConfig.flashroute_16_v6(**overrides)
    return FlashRoute(config, telemetry=telemetry).scan(
        network if network is not None else SimulatedNetwork6(topology),
        targets=targets)


def exhaustive6(topology, targets):
    """Yarrp's sweep of one probe per (target, hop), at the v6 rate."""
    config = FlashRouteConfig.yarrp32_udp_simulation(granularity=64,
                                                     probing_rate=1000.0)
    return FlashRoute(config).scan(SimulatedNetwork6(topology),
                                   targets=targets)


def scan_run(topology, targets):
    """The set-up of a v6 scan, for its DCB array and runtime."""
    return _ScanRun(FlashRouteConfig.flashroute_16_v6(),
                    SimulatedNetwork6(topology), targets,
                    None, None, None, None, None)


def spread_targets(count):
    """``count`` targets whose /64 keys spread over the whole key space."""
    step = (2**64 - 1) // count
    return {key: (key << 64) | 0x42
            for key in range(1, count * step, step)}


class RecordingNetwork6(SimulatedNetwork6):
    """Keeps every (destination, TTL) it was sent."""

    def __init__(self, topology):
        super().__init__(topology)
        self.sent = []

    def send_probe(self, dst, hop_limit, *args, **kwargs):
        self.sent.append((dst, hop_limit))
        return super().send_probe(dst, hop_limit, *args, **kwargs)


class TestSparseStore:
    """§5.4's hash-indexed store: a dict from the scan's own targets in
    front of the shared DCB array."""

    def test_one_block_per_subnet(self):
        targets = spread_targets(5)
        run = scan_run(Topology6(TopologyConfig6(num_sites=4)), targets)
        assert run.dcb.size == len(run.dcb) == len(targets)
        for key, dst in targets.items():
            assert run.dcb.destination[run.rt.block_index[key]] == dst

    def test_o1_lookup_by_subnet(self, topo6, seed_targets):
        seen = []
        rt = ScanRuntime(
            SimulatedNetwork6(topo6), "lookup", seed_targets, 1000.0,
            block_shift=64, verify_quotes=True,
            on_response=lambda response, dst, ttl, pre, offset:
            seen.append((dst, ttl, offset)))
        key, dst = sorted(seed_targets.items())[7]
        rt.emit([(dst, 1)])  # the root router always answers
        assert rt.owes(rt.block_index[key])
        rt.settle()
        assert seen == [(dst, 1, rt.block_index[key])]
        assert rt.block_keys[seen[0][2]] == key

    def test_ring_is_shuffled_permutation(self):
        run = scan_run(Topology6(TopologyConfig6(num_sites=4)),
                       spread_targets(50))
        ring = list(run.dcb.iter_ring())
        assert sorted(ring) == list(range(50))
        assert ring != sorted(ring)

    def test_remove_unlinks(self):
        dcb = scan_run(Topology6(TopologyConfig6(num_sites=4)),
                       spread_targets(5)).dcb
        ring = list(dcb.iter_ring())
        dcb.remove(ring[2])
        assert list(dcb.iter_ring()) == ring[:2] + ring[3:]
        assert len(dcb) == 4
        assert dcb.is_removed(ring[2])

    def test_remove_all(self):
        dcb = scan_run(Topology6(TopologyConfig6(num_sites=4)),
                       spread_targets(5)).dcb
        for index in dcb.iter_ring():
            dcb.remove(index)
        assert len(dcb) == 0
        assert dcb.head == -1
        assert list(dcb.iter_ring()) == []

    def test_set_distance(self):
        targets = spread_targets(5)
        run = scan_run(Topology6(TopologyConfig6(num_sites=4)), targets)
        index = run.rt.block_index[sorted(targets)[3]]
        run.dcb.set_distance(index, 12, predicted=False)
        view = run.dcb.view(index)
        assert view.split_ttl == 12
        assert view.next_backward == 12
        assert view.next_forward == 13
        assert view.distance_measured
        assert not view.distance_predicted

    def test_memory_scales_with_targets_not_universe(self):
        topology = Topology6(TopologyConfig6(num_sites=4))
        small = scan_run(topology, spread_targets(10)).dcb
        large = scan_run(topology, spread_targets(1000)).dcb
        ratio = large.memory_footprint() / small.memory_footprint()
        assert 20 < ratio < 200  # linear in targets, nothing like 2^64

    def test_rejects_empty(self, topo6):
        with pytest.raises(ValueError):
            scan_run(topo6, {})


class TestEncoding6:
    """The one §3.1 marking over 128-bit addresses: the word rides the
    UDP payload and SimulatedNetwork6 quotes it back."""

    def answer(self, topo6, seed_targets, send_time, ttl=32,
               is_preprobe=True):
        subnet = next(subnet for subnet, record in topo6.subnets.items()
                      if record.target_responds)
        dst = seed_targets[subnet]
        marking = encode_probe(dst, ttl, send_time, is_preprobe=is_preprobe)
        response = SimulatedNetwork6(topo6).send_probe(
            dst, ttl, send_time, marking.src_port, ipid=marking.ipid,
            udp_length=marking.udp_length)
        return dst, response

    def test_round_trip(self, topo6, seed_targets):
        dst, response = self.answer(topo6, seed_targets, send_time=3.5)
        assert response.kind is ResponseKind.PORT_UNREACHABLE
        decoded = decode_response(response)
        assert decoded.initial_ttl == 32
        assert decoded.is_preprobe
        assert decoded.timestamp_ms == 3500
        assert decoded.dst == dst
        assert destination_intact(decoded)

    def test_rewrite_detected(self, topo6, seed_targets):
        dst, response = self.answer(topo6, seed_targets, send_time=0.0)
        response.quoted.dst = dst + 1
        assert not destination_intact(decode_response(response))

    def test_ttl_bounds(self):
        dst = (0x20010DB8 << 96) | 7
        with pytest.raises(EncodingError):
            encode_probe(dst, 0, 0.0)
        with pytest.raises(EncodingError):
            encode_probe(dst, 33, 0.0)
        with pytest.raises(ValueError):
            FlashRouteConfig.flashroute_16_v6(max_ttl=33)

    def test_rtt_wraparound(self, topo6, seed_targets):
        _dst, response = self.answer(topo6, seed_targets, send_time=65.530)
        assert response.arrival_time > 65.536  # past the 16-bit wrap
        assert rtt_ms(decode_response(response), response.arrival_time) \
            == pytest.approx((response.arrival_time - 65.530) * 1000.0,
                             abs=1.0)

    def test_ports_unprivileged(self):
        for addr in (0, 1, 2**127, 2**128 - 1):
            assert 1024 <= flow_source_port(addr) <= 65535
            assert 1024 <= flow_source_port(addr, 3) <= 65535
            assert 1024 <= encode_probe(addr, 8, 0.0).src_port <= 65535


class TestTopology6:
    def test_sparse_subnet_numbering(self, topo6):
        # Announced /64 subnet ids are scattered, not 0..k.
        for site in topo6.sites:
            subnet_ids = [record.subnet & 0xFFFF
                          for record in topo6.subnets.values()
                          if record.site_id == site.site_id]
            if len(subnet_ids) >= 3:
                assert max(subnet_ids) - min(subnet_ids) >= len(subnet_ids)
                break

    def test_seed_targets_one_per_subnet(self, topo6, seed_targets):
        assert len(seed_targets) == len(topo6.subnets)
        for subnet, target in seed_targets.items():
            assert target >> 64 == subnet

    def test_route_structure(self, topo6, seed_targets):
        subnet, target = next(iter(seed_targets.items()))
        record = topo6.subnets[subnet]
        site = topo6.sites[record.site_id]
        assert topo6.hop_iface_at(target, site.border_depth) == \
            site.border_iface
        assert topo6.hop_iface_at(target, site.border_depth + 1) == \
            record.router_iface
        assert topo6.hop_iface_at(target, site.border_depth + 2) is None

    def test_destination_distance(self, topo6, seed_targets):
        for subnet, target in seed_targets.items():
            record = topo6.subnets[subnet]
            distance = topo6.destination_distance(target)
            if record.target_responds:
                site = topo6.sites[record.site_id]
                assert distance == site.border_depth + 2
            else:
                assert distance is None

    def test_unknown_subnet_is_off_route(self, topo6):
        assert topo6.hop_iface_at(0xDEAD << 64, 5) is None

    def test_deterministic(self):
        a = Topology6(TopologyConfig6(num_sites=16, seed=9))
        b = Topology6(TopologyConfig6(num_sites=16, seed=9))
        assert a.iface_addrs == b.iface_addrs
        assert a.seed_targets() == b.seed_targets()


class TestV6Scan:
    @pytest.fixture(scope="class")
    def scan(self, topo6, seed_targets):
        return scan6(topo6, seed_targets)

    @pytest.fixture(scope="class")
    def exhaustive(self, topo6, seed_targets):
        return exhaustive6(topo6, seed_targets)

    def test_completes(self, scan):
        assert not scan.aborted
        assert scan.granularity == 64

    def test_interfaces_are_real(self, scan, topo6):
        assert scan.interfaces() <= set(topo6.iface_addrs)

    def test_probe_savings(self, scan, exhaustive):
        """The v4 headline transfers: far fewer probes, same discovery."""
        assert scan.probes_sent < 0.55 * exhaustive.probes_sent
        assert scan.interface_count() >= 0.97 * exhaustive.interface_count()

    def test_exhaustive_probe_count_exact(self, exhaustive, seed_targets):
        assert exhaustive.probes_sent == 32 * len(seed_targets)

    def test_destination_distances_true(self, scan, topo6, seed_targets):
        assert scan.dest_distance
        for subnet, measured in scan.dest_distance.items():
            assert measured == topo6.destination_distance(
                seed_targets[subnet])

    def test_preprobe_sets_split_points(self, scan, topo6, seed_targets):
        without = scan6(topo6, seed_targets, preprobe=PreprobeMode.NONE)
        assert scan.preprobe_probes == len(seed_targets)
        assert without.preprobe_probes == 0

    def test_redundancy_removal_saves(self, topo6, seed_targets):
        on = scan6(topo6, seed_targets, preprobe=PreprobeMode.NONE)
        off = scan6(topo6, seed_targets, preprobe=PreprobeMode.NONE,
                    redundancy_removal=False)
        assert on.probes_sent < off.probes_sent

    def test_seed_list_is_the_default_target_list(self, scan, topo6):
        assert scan6(topo6) == scan

    def test_requires_targets(self, topo6):
        with pytest.raises(ValueError):
            scan6(topo6, targets={})

    def test_excluded_subnet_is_never_probed(self, topo6, seed_targets):
        subnet, dst = sorted(seed_targets.items())[3]
        network = RecordingNetwork6(topo6)
        result = FlashRoute(FlashRouteConfig.flashroute_16_v6()).scan(
            network, targets=seed_targets, excluded=[subnet])
        probed = {probe_dst for probe_dst, _ in network.sent}
        assert dst not in probed
        assert probed == set(seed_targets.values()) - {dst}
        assert subnet not in result.routes

    def test_start_ttls_map_through_the_index(self, topo6, seed_targets):
        subnet, dst = sorted(seed_targets.items())[3]
        network = RecordingNetwork6(topo6)
        FlashRoute(FlashRouteConfig.flashroute_16_v6(
            preprobe=PreprobeMode.NONE)).scan(
            network, targets=seed_targets, start_ttls={subnet: 3})
        assert [ttl for probe_dst, ttl in network.sent
                if probe_dst == dst][:2] == [3, 4]

    def test_event_log_validates_and_leaves_the_result_alone(
            self, scan, topo6, tmp_path):
        path = tmp_path / "v6.jsonl"
        telemetry = Telemetry(events=EventRecorder(path=str(path)))
        recorded = scan6(topo6, telemetry=telemetry)
        telemetry.close()
        events = read_events(str(path))  # validate_events on the way
        assert recorded == scan
        kinds = {event["ev"] for event in events[1:]}
        assert {"probe_sent", "response", "dcb_release"} <= kinds
        keys = {event["prefix"] for event in events[1:]
                if event["ev"] == "probe_sent"}
        assert keys == set(scan.targets)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlashRouteConfig.flashroute_16_v6(max_ttl=64)
        with pytest.raises(ValueError):
            FlashRouteConfig.flashroute_16_v6(split_ttl=0)
        with pytest.raises(ValueError):
            FlashRouteConfig.flashroute_16_v6(probing_rate=0)

    @pytest.mark.parametrize("seconds", [float("inf"), float("-inf"),
                                         float("nan"), -1.0])
    def test_round_seconds_must_be_finite(self, seconds):
        with pytest.raises(ValueError, match="round_seconds"):
            FlashRouteConfig.flashroute_16_v6(round_seconds=seconds)


class TestFamilyGuard:
    """A config that does not fit the topology's address family is
    refused, naming both, before any probe."""

    @pytest.mark.parametrize("granularity", [24, 30])
    def test_ipv4_granularity_on_ipv6(self, topo6, granularity):
        network = SimulatedNetwork6(topo6)
        with pytest.raises(ValueError,
                           match=f"/{granularity} .*IPv6 .*Topology6"):
            scan6(topo6, network=network, granularity=granularity)
        assert network.probes_sent == 0

    def test_ipv6_granularity_on_ipv4(self):
        network = SimulatedNetwork(Topology(TopologyConfig(num_prefixes=16)))
        with pytest.raises(ValueError, match="/64 .*IPv4 .*Topology"):
            FlashRoute(FlashRouteConfig.flashroute_16_v6()).scan(network)
        assert network.probes_sent == 0

    def test_hitlist_preprobing_on_ipv6(self, topo6):
        network = SimulatedNetwork6(topo6)
        with pytest.raises(ValueError, match="hitlist.*IPv6 .*Topology6"):
            scan6(topo6, network=network, preprobe=PreprobeMode.HITLIST)
        assert network.probes_sent == 0

    def test_unscaled_rate_on_ipv6(self, topo6):
        with pytest.raises(ValueError, match="probing_rate.*Topology6"):
            scan6(topo6, probing_rate=None)
