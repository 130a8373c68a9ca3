"""The IPv6 extension: the address plan over the one topology generator,
the network's edge that answers v6 probes on the IPv4 code path, and
FlashRoute scanning it on the one engine (``FlashRoute.scan`` over
``ScanRuntime`` and the DCB ring), with the address family read from the
topology."""

import io
from dataclasses import replace

import pytest

from repro.api import Engine
from repro.core import FlashRoute, FlashRouteConfig
from repro.core.config import PreprobeMode
from repro.core.encoding import (EncodingError, decode_response,
                                 destination_intact, encode_probe, rtt_ms)
from repro.core.prober import _ScanRun
from repro.core.runtime import ScanRuntime
from repro.net.addr6 import ip6_to_int
from repro.net.checksum import flow_source_port
from repro.net.icmp import ResponseKind
from repro.obs import EventRecorder, Telemetry, read_events
from repro.simnet import SimulatedNetwork, Topology, TopologyConfig
from repro.simnet.faults import FaultModel

from oracle.network import OracleNetwork


def v6_topology(num_prefixes, seed=2018):
    return Topology(TopologyConfig(num_prefixes=num_prefixes, seed=seed,
                                   address_bits=128))


@pytest.fixture(scope="module")
def topo6():
    return v6_topology(192, seed=5)


@pytest.fixture(scope="module")
def topo4(topo6):
    """The same config built as IPv4: the structure the plan relabels."""
    return Topology(replace(topo6.config, address_bits=32))


@pytest.fixture(scope="module")
def seed_targets(topo6):
    return topo6.seed_targets()


def scan6(topology, targets=None, telemetry=None, network=None,
          **overrides):
    """FlashRoute-16 over IPv6 (``overrides`` adjust its config)."""
    config = FlashRouteConfig.flashroute_16_v6(**overrides)
    return FlashRoute(config, telemetry=telemetry).scan(
        network if network is not None else SimulatedNetwork(topology),
        targets=targets)


def exhaustive6(topology, targets):
    """Yarrp's sweep of one probe per (target, hop), at the v6 rate."""
    config = FlashRouteConfig.yarrp32_udp_simulation(granularity=64,
                                                     probing_rate=1000.0)
    return FlashRoute(config).scan(SimulatedNetwork(topology),
                                   targets=targets)


def scan_run(topology, targets):
    """The set-up of a v6 scan, for its DCB array and runtime."""
    return _ScanRun(FlashRouteConfig.flashroute_16_v6(),
                    SimulatedNetwork(topology), targets,
                    None, None, None, None, None)


def spread_targets(count):
    """``count`` targets whose /64 keys spread over the whole key space."""
    step = (2**64 - 1) // count
    return {key: (key << 64) | 0x42
            for key in range(1, count * step, step)}


class RecordingNetwork:
    """Forwards to a network, keeping every (destination, TTL) it sent."""

    def __init__(self, network):
        self._network = network
        self.sent = []

    def __getattr__(self, name):
        return getattr(self._network, name)

    def send_probes(self, probes, *args, **kwargs):
        self.sent.extend((probe[0], probe[1]) for probe in probes)
        return self._network.send_probes(probes, *args, **kwargs)

    def send_probe(self, dst, ttl, *args, **kwargs):
        self.sent.append((dst, ttl))
        return self._network.send_probe(dst, ttl, *args, **kwargs)


class TestSparseStore:
    """§5.4's hash-indexed store: a dict from the scan's own targets in
    front of the shared DCB array."""

    def test_one_block_per_subnet(self):
        targets = spread_targets(5)
        run = scan_run(v6_topology(16), targets)
        assert run.dcb.size == len(run.dcb) == len(targets)
        for key, dst in targets.items():
            assert run.dcb.destination[run.rt.block_index[key]] == dst

    def test_o1_lookup_by_subnet(self, topo6, seed_targets):
        seen = []
        rt = ScanRuntime(
            SimulatedNetwork(topo6), "lookup", seed_targets, 1000.0,
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
        run = scan_run(v6_topology(16), spread_targets(50))
        ring = list(run.dcb.iter_ring())
        assert sorted(ring) == list(range(50))
        assert ring != sorted(ring)

    def test_remove_unlinks(self):
        dcb = scan_run(v6_topology(16), spread_targets(5)).dcb
        ring = list(dcb.iter_ring())
        dcb.remove(ring[2])
        assert list(dcb.iter_ring()) == ring[:2] + ring[3:]
        assert len(dcb) == 4
        assert dcb.is_removed(ring[2])

    def test_remove_all(self):
        dcb = scan_run(v6_topology(16), spread_targets(5)).dcb
        for index in dcb.iter_ring():
            dcb.remove(index)
        assert len(dcb) == 0
        assert dcb.head == -1
        assert list(dcb.iter_ring()) == []

    def test_set_distance(self):
        targets = spread_targets(5)
        run = scan_run(v6_topology(16), targets)
        index = run.rt.block_index[sorted(targets)[3]]
        run.dcb.set_distance(index, 12, predicted=False)
        view = run.dcb.view(index)
        assert view.split_ttl == 12
        assert view.next_backward == 12
        assert view.next_forward == 13
        assert view.distance_measured
        assert not view.distance_predicted

    def test_memory_scales_with_targets_not_universe(self):
        topology = v6_topology(16)
        small = scan_run(topology, spread_targets(10)).dcb
        large = scan_run(topology, spread_targets(1000)).dcb
        ratio = large.memory_footprint() / small.memory_footprint()
        assert 20 < ratio < 200  # linear in targets, nothing like 2^64

    def test_rejects_empty(self, topo6):
        with pytest.raises(ValueError):
            scan_run(topo6, {})


class TestEncoding6:
    """The one §3.1 marking over 128-bit addresses: the word rides the
    ipid slot and the network quotes it back."""

    def answer(self, topo6, seed_targets, send_time, ttl=32,
               is_preprobe=True):
        network = SimulatedNetwork(topo6)
        for dst in seed_targets.values():
            if topo6.destination_distance(dst) is None:
                continue
            marking = encode_probe(dst, ttl, send_time,
                                   is_preprobe=is_preprobe)
            response = network.send_probe(
                dst, ttl, send_time, marking.src_port, ipid=marking.ipid,
                udp_length=marking.udp_length)
            if response is not None and response.quoted.dst == dst:
                return dst, response
        raise AssertionError("no seed target answers")

    def test_round_trip(self, topo6, seed_targets):
        dst, response = self.answer(topo6, seed_targets, send_time=3.5)
        assert response.kind is ResponseKind.PORT_UNREACHABLE
        assert response.responder == dst
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


class TestAddressPlan:
    """A 128-bit topology is the IPv4 one, relabelled."""

    def test_sparse_subnet_numbering(self, topo6):
        # Each stub is a /48 site; its /64 subnet IDs are unique within
        # it and scattered, not 0..k.
        site_prefix = ip6_to_int("2001:db8::") >> 64
        for stub in topo6.stubs:
            keys = topo6.subnet_keys[stub.first_offset:
                                     stub.first_offset + stub.block_size]
            assert {key >> 16 for key in keys} == {
                site_prefix >> 16 | stub.stub_id}
            subnet_ids = [key & 0xFFFF for key in keys]
            assert len(set(subnet_ids)) == len(subnet_ids)
            if len(subnet_ids) >= 3:
                assert max(subnet_ids) - min(subnet_ids) >= len(subnet_ids)

    def test_seed_targets_one_per_subnet(self, topo6, seed_targets):
        assert len(seed_targets) == len(topo6.subnets) == topo6.num_prefixes
        for key, target in seed_targets.items():
            assert target >> 64 == key
            offset = topo6.subnets[key]
            assert target & 0xFF == topo6.hitlist_host[offset]

    def test_route_structure(self, topo6, topo4, seed_targets):
        # The v6 route is the v4 route of the internal address, mapped.
        for dst in list(seed_targets.values())[:40]:
            internal = topo6.internal_addr(dst)
            assert topo6.external_addr(internal) == dst
            for flow in (0, flow_source_port(dst)):
                v4_route = topo4.true_route(internal, flow=flow)
                assert topo6.true_route(dst, flow=flow) == [
                    None if addr is None else topo6.external_addr(addr)
                    for addr in v4_route]

    def test_destination_distance(self, topo6, topo4, seed_targets):
        for target in seed_targets.values():
            for epoch in (0, 1):
                assert topo6.destination_distance(target, epoch) == \
                    topo4.destination_distance(topo6.internal_addr(target),
                                              epoch)

    def test_unknown_subnet_is_off_route(self, topo6, seed_targets):
        known = next(iter(seed_targets))
        for dst in (0xDEAD << 64, known << 64 | 0x100):
            assert topo6.internal_addr(dst) == -1
            assert topo6.true_route(dst) == [None] * 32
            assert topo6.destination_distance(dst) is None

    def test_deterministic(self):
        a = v6_topology(64, seed=9)
        b = v6_topology(64, seed=9)
        assert a.subnet_keys == b.subnet_keys
        assert a.seed_targets() == b.seed_targets()

    def test_v4_columns_unchanged(self, topo6, topo4):
        assert topo4.address_bits == 32
        assert not hasattr(topo4, "subnets")
        for column in ("iface_addrs", "iface_depth", "udp_resp",
                       "chain_start", "chain_len", "prefix_flags",
                       "hitlist_host", "active_octets", "ping_octets"):
            assert getattr(topo4, column) == getattr(topo6, column)

    def test_rejects_other_families(self):
        with pytest.raises(ValueError, match="address_bits"):
            TopologyConfig(address_bits=64)


class TestEngineAddressSpace:
    def test_contains_the_v6_plan_not_its_internal_form(self):
        engine = Engine(topology=v6_topology(16))
        targets = engine.topology.seed_targets().values()
        assert all(engine.contains(target) for target in targets)
        assert not any(engine.contains(engine.topology.internal_addr(target))
                       for target in targets)
        assert engine.address_space() == "2001:db8::/48..2001:db8:2::/48 " \
            "(16 /64s)"


class TestEdge:
    """Translation happens at the network's edge only; between the edges
    a v6 probe takes the IPv4 path."""

    def test_unknown_subnet_is_silence_but_sent(self, topo6, seed_targets):
        network = SimulatedNetwork(topo6)
        known = next(iter(seed_targets))
        for dst in (0xDEAD << 64 | 1, known << 64 | 0x1FF):
            assert network.send_probe(dst, 1, 0.0, 40000) is None
        assert network.send_probes([(0xBEEF << 64, 1, 0.0, 40000, 0, 8),
                                    (seed_targets[known], 1, 0.0, 40000,
                                     0, 8)])[0] is None
        assert network.probes_sent == 4

    def test_responses_carry_v6_addresses(self, topo6, seed_targets):
        network = SimulatedNetwork(topo6)
        dst = next(iter(seed_targets.values()))
        response = network.send_probe(dst, 1, 0.0, 40000)
        assert response.kind is ResponseKind.TTL_EXCEEDED
        assert response.responder == topo6.true_route(dst, 40000)[0]
        assert response.responder == ip6_to_int("2001:db8:ffff::")
        assert response.quoted.dst == dst
        assert response.quoted.src == ip6_to_int("2001:db8:ffff::") - 1

    @pytest.mark.parametrize("faults", [None, FaultModel(
        probe_loss=0.05, response_loss=0.05, duplicate_probability=0.2,
        reorder_window=0.05, seed=3)], ids=["clean", "faulted"])
    def test_oracle_and_cached_network_agree(self, topo6, seed_targets,
                                             faults):
        networks = [network_class(topo6, log_probes=True, faults=faults)
                    for network_class in (SimulatedNetwork, OracleNetwork)]
        cached, oracle = networks
        known = sorted(seed_targets)[:12]
        now = 0.0
        for index in range(600):
            key = known[index % len(known)]
            dst = key << 64 | (index * 37) % 300
            ttl = 1 + index % 32
            port = flow_source_port(dst)
            got = cached.send_probe(dst, ttl, now, port, ipid=index)
            expected = oracle.send_probe(dst, ttl, now, port, ipid=index)
            assert got == expected
            assert (got is None) or (got.dup == expected.dup)
            now += 0.003
        assert cached.stats()["faults"] == oracle.stats()["faults"]
        assert cached.probes_sent == oracle.probes_sent == 600

    def test_one_object_per_responder_address(self):
        """The edge translates each responder once per network, so a scan
        holds one 128-bit ``int`` per address (it held one per hop: 816
        objects for 465 addresses on this scan)."""
        result = scan6(v6_topology(256, seed=3))
        responders = [responder for hops in result.routes.values()
                      for responder in hops.values()]
        assert len(responders) > len(set(responders))
        assert len({id(responder) for responder in responders}) \
            == len(set(responders))

    def test_sessions_keep_the_edge(self, topo6, seed_targets):
        dst = next(iter(seed_targets.values()))
        session = SimulatedNetwork(topo6).open_session()
        assert session.send_probe(dst, 1, 0.0, 40000).quoted.dst == dst


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
        assert scan.interfaces() <= {topo6.external_addr(addr)
                                     for addr in topo6.iface_addrs}

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
        network = RecordingNetwork(SimulatedNetwork(topo6))
        result = FlashRoute(FlashRouteConfig.flashroute_16_v6()).scan(
            network, targets=seed_targets, excluded=[subnet])
        probed = {probe_dst for probe_dst, _ in network.sent}
        assert dst not in probed
        assert probed == set(seed_targets.values()) - {dst}
        assert subnet not in result.routes

    def test_start_ttls_map_through_the_index(self, topo6, seed_targets):
        subnet, dst = sorted(seed_targets.items())[3]
        network = RecordingNetwork(SimulatedNetwork(topo6))
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

    @pytest.mark.parametrize("ring", [None, 64])
    def test_binary_event_log_is_refused(self, topo6, ring):
        """Its records pack prefix and address as u32: refused before any
        probe, naming the format that fits."""
        network = SimulatedNetwork(topo6)
        telemetry = Telemetry(events=EventRecorder(
            stream=io.BytesIO(), binary=True, ring=ring))
        with pytest.raises(ValueError, match="JSONL"):
            scan6(topo6, telemetry=telemetry, network=network)
        assert network.probes_sent == 0

    def test_faulted_scan_is_deterministic(self, topo6, seed_targets):
        faults = FaultModel(probe_loss=0.05, response_loss=0.05, seed=11)
        first, second = (scan6(topo6, seed_targets, network=SimulatedNetwork(
            topo6, faults=faults)) for _ in range(2))
        assert first == second
        assert first.probes_sent != scan6(topo6, seed_targets).probes_sent

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
        network = SimulatedNetwork(topo6)
        with pytest.raises(ValueError,
                           match=f"/{granularity} .*IPv6 .*Topology"):
            scan6(topo6, network=network, granularity=granularity)
        assert network.probes_sent == 0

    def test_ipv6_granularity_on_ipv4(self):
        network = SimulatedNetwork(Topology(TopologyConfig(num_prefixes=16)))
        with pytest.raises(ValueError, match="/64 .*IPv4 .*Topology"):
            FlashRoute(FlashRouteConfig.flashroute_16_v6()).scan(network)
        assert network.probes_sent == 0

    def test_hitlist_preprobing_on_ipv6(self, topo6):
        network = SimulatedNetwork(topo6)
        with pytest.raises(ValueError, match="hitlist.*IPv6 .*seed list"):
            scan6(topo6, network=network, preprobe=PreprobeMode.HITLIST)
        assert network.probes_sent == 0

    def test_unscaled_rate_on_ipv6(self, topo6):
        with pytest.raises(ValueError, match="probing_rate.*IPv6"):
            scan6(topo6, probing_rate=None)
