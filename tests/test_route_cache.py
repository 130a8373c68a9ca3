"""Equivalence and property tests for the flat route cache.

The cache is only allowed to exist because it is provably
behavior-preserving; these tests are the proof obligations:

* ``RouteCache.hop_at`` agrees with ``Topology.hop_at`` over randomized
  ``(dst, ttl, flow, epoch)`` sweeps, including flap epochs, LB diamonds,
  out-of-space destinations and out-of-range TTLs;
* cached and uncached networks answer identical probe streams with
  *identical* response objects (rate limiter included);
* full FlashRoute and Yarrp scans produce identical :class:`ScanResult`
  fields either way, batched ring walk and all.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from conftest import first_prefix_with
from repro import api
from repro.baselines.yarrp import Yarrp, YarrpConfig
from repro.core.config import FlashRouteConfig, PreprobeMode
from repro.core.prober import FlashRoute
from repro.net.packets import PROTO_TCP, PROTO_UDP
from repro.simnet.config import TopologyConfig
from repro.simnet.entities import HopKind
from repro.simnet.network import SimulatedNetwork
from repro.simnet.routecache import ROUTE_CACHE_TTLS, RouteCache, Tail
from repro.simnet.topology import Topology


def _hop_key(hop):
    return (hop.kind, hop.iface, hop.residual_ttl, hop.dest_depth)


def _result_fields(result):
    """Every observable field of a ScanResult, for exact comparison."""
    return {
        "tool": result.tool,
        "num_targets": result.num_targets,
        "routes": result.routes,
        "dest_distance": result.dest_distance,
        "targets": result.targets,
        "probes_sent": result.probes_sent,
        "preprobe_probes": result.preprobe_probes,
        "responses": result.responses,
        "mismatched_quotes": result.mismatched_quotes,
        "skipped_probes": result.skipped_probes,
        "duration": result.duration,
        "rounds": result.rounds,
        "aborted": result.aborted,
        "ttl_probe_histogram": dict(result.ttl_probe_histogram),
        "response_kinds": dict(result.response_kinds),
        "rtt_sum_ms": result.rtt_sum_ms,
        "rtt_count": result.rtt_count,
    }


class TestHopAtEquivalence:
    def test_randomized_sweep(self, small_topology: Topology):
        cache = RouteCache(small_topology)
        rng = random.Random(0xCAFE)
        base = small_topology.base_prefix
        for _ in range(4000):
            dst = ((base + rng.randrange(small_topology.num_prefixes)) << 8
                   ) | rng.randrange(256)
            ttl = rng.randrange(0, 40)
            flow = rng.randrange(0, 1 << 16)
            epoch = rng.randrange(0, 4)
            expected = small_topology.hop_at(dst, ttl, flow=flow, epoch=epoch)
            got = cache.hop_at(dst, ttl, flow=flow, epoch=epoch)
            assert _hop_key(got) == _hop_key(expected), \
                f"dst={dst:#x} ttl={ttl} flow={flow} epoch={epoch}"
        assert cache.hits > 0 and cache.misses > 0

    def test_out_of_space_and_extreme_ttls(self, small_topology: Topology):
        cache = RouteCache(small_topology)
        outside = (small_topology.base_prefix - 10) << 8
        inside = (small_topology.base_prefix << 8) | 5
        for dst, ttl in [(outside, 5), (inside, 0), (inside, -3),
                         (inside, ROUTE_CACHE_TTLS + 1),
                         (inside, ROUTE_CACHE_TTLS + 20)]:
            assert _hop_key(cache.hop_at(dst, ttl)) == \
                _hop_key(small_topology.hop_at(dst, ttl))

    def test_flap_epochs_invalidate_by_key(self, small_topology: Topology):
        prefix = first_prefix_with(small_topology,
                                   lambda record, stub: record.flap)
        dst = (prefix << 8) | 9
        cache = RouteCache(small_topology)
        for epoch in (0, 1, 2, 3):
            for ttl in range(1, 33):
                assert _hop_key(cache.hop_at(dst, ttl, epoch=epoch)) == \
                    _hop_key(small_topology.hop_at(dst, ttl, epoch=epoch))
        # A flappy destination owns exactly two entries (even/odd shift);
        # nothing was flushed to serve four epochs.
        assert len(cache) == 2

    def test_flow_classes_collapse_without_diamonds(
            self, small_topology: Topology):
        prefix = first_prefix_with(
            small_topology,
            lambda record, stub: not record.flap
            and all(token >= 0 for token in stub.transit))
        dst = (prefix << 8) | 17
        cache = RouteCache(small_topology)
        for flow in (0, 1, 7, 65535):
            cache.hop_at(dst, 5, flow=flow)
        assert len(cache) == 1  # one shared entry: flow can't matter


class TestSendProbeEquivalence:
    @pytest.mark.parametrize("proto", [PROTO_UDP, PROTO_TCP])
    def test_identical_probe_streams(self, small_topology: Topology, proto):
        cached = SimulatedNetwork(small_topology)
        uncached = SimulatedNetwork(small_topology, use_route_cache=False)
        assert cached.route_cache is not None
        assert uncached.route_cache is None

        rng = random.Random(0xBEEF)
        base = small_topology.base_prefix
        now = 0.0
        for _ in range(3000):
            dst = ((base + rng.randrange(small_topology.num_prefixes)) << 8
                   ) | rng.randrange(256)
            ttl = rng.randrange(1, 33)
            src_port = rng.randrange(1024, 65536)
            a = cached.send_probe(dst, ttl, now, src_port, proto=proto)
            b = uncached.send_probe(dst, ttl, now, src_port, proto=proto)
            assert a == b, f"dst={dst:#x} ttl={ttl} t={now}"
            now += 1e-5
        assert cached.probes_sent == uncached.probes_sent
        assert cached.responses_generated == uncached.responses_generated
        assert cached.rewritten_responses == uncached.rewritten_responses
        assert cached.rate_limiter.dropped == uncached.rate_limiter.dropped

    def test_single_hint_skips_build_not_behavior(
            self, small_topology: Topology):
        hinted = SimulatedNetwork(small_topology)
        plain = SimulatedNetwork(small_topology)
        base = small_topology.base_prefix
        now = 0.0
        for host in (1, 9, 200):
            dst = (base << 8) | host
            for ttl in (32, 5):
                a = hinted.send_probe(dst, ttl, now, 33434, single=True)
                b = plain.send_probe(dst, ttl, now, 33434)
                assert a == b
                now += 1e-4
        # The hint resolved every miss directly: no tables were built...
        assert hinted.route_cache.stats()["udp_tables"] == 0
        assert hinted.probes_sent == plain.probes_sent
        # ...but an existing table still serves hinted probes.
        dst = (base << 8) | 1
        hinted.send_probe(dst, 5, now, 33434)
        tables = hinted.route_cache.stats()["udp_tables"]
        assert tables > 0
        hinted.send_probe(dst, 6, now, 33434, single=True)
        assert hinted.route_cache.stats()["udp_tables"] == tables

    def test_batch_equals_scalar(self, small_topology: Topology):
        batch_net = SimulatedNetwork(small_topology)
        scalar_net = SimulatedNetwork(small_topology)
        rng = random.Random(0xD00D)
        base = small_topology.base_prefix
        probes = []
        now = 0.0
        for _ in range(500):
            dst = ((base + rng.randrange(small_topology.num_prefixes)) << 8
                   ) | rng.randrange(256)
            probes.append((dst, rng.randrange(1, 33), now,
                           rng.randrange(1024, 65536), 0, 8))
            now += 1e-5
        batched = batch_net.send_probes(probes)
        scalar = [scalar_net.send_probe(dst, ttl, t, port, ipid=ipid,
                                        udp_length=length)
                  for dst, ttl, t, port, ipid, length in probes]
        assert batched == scalar
        assert batch_net.probes_sent == scalar_net.probes_sent


class TestScanEquivalence:
    def test_flashroute_scan_identical(self, tiny_topology: Topology,
                                       tiny_targets):
        results = []
        for use_cache in (True, False):
            network = SimulatedNetwork(tiny_topology,
                                       use_route_cache=use_cache)
            results.append(FlashRoute(FlashRouteConfig()).scan(
                network, targets=tiny_targets))
        assert _result_fields(results[0]) == _result_fields(results[1])

    def test_scan_leaves_an_uncached_network_uncached(
            self, tiny_topology: Topology, tiny_targets):
        network = SimulatedNetwork(tiny_topology, use_route_cache=False)
        result = FlashRoute(FlashRouteConfig()).scan(
            network, targets=tiny_targets)
        assert result.probes_sent > 0
        # The network's serving mode is the switch; a scan leaves it alone.
        assert network.route_cache is None

    @pytest.mark.parametrize("config_name", ["yarrp_16", "yarrp_32"])
    def test_yarrp_scan_identical(self, tiny_topology: Topology,
                                  tiny_targets, config_name):
        results = []
        for use_cache in (True, False):
            network = SimulatedNetwork(tiny_topology,
                                       use_route_cache=use_cache)
            config = getattr(YarrpConfig, config_name)()
            results.append(Yarrp(config).scan(network, targets=tiny_targets))
        assert _result_fields(results[0]) == _result_fields(results[1])

    def test_cache_survives_reset(self, small_topology: Topology):
        network = SimulatedNetwork(small_topology)
        dst = (small_topology.base_prefix << 8) | 1
        network.send_probe(dst, 5, 0.0, 33434)
        tables = network.route_cache.stats()["udp_tables"]
        # The probe built its outcome table (a stable prefix registers it
        # under both epoch parities).
        assert tables in (1, 2)
        network.reset()
        assert network.probes_sent == 0
        # Warm across scans: reset clears dynamic state, not the cache.
        assert network.route_cache.stats()["udp_tables"] == tables


class TestTablesAreRoutes:
    """A slot is read once per scan, so nothing per-slot is stored: a table
    is the route's interface ids (the topology's own ``int`` objects), at
    most one :class:`Tail`, and ``None`` — immutable once built."""

    @pytest.mark.parametrize("proto", [PROTO_UDP, PROTO_TCP])
    def test_slots_are_interface_ids_or_the_single_tail(
            self, tiny_topology: Topology, tiny_targets, proto):
        network = SimulatedNetwork(tiny_topology)
        if proto == PROTO_UDP:
            FlashRoute(FlashRouteConfig()).scan(network, targets=tiny_targets)
            tables = network.route_cache.udp_tables
        else:
            Yarrp(YarrpConfig.yarrp_32()).scan(network, targets=tiny_targets)
            tables = network.route_cache.tcp_tables
        assert len(tables) >= len(tiny_targets)
        for table in tables.values():
            assert len(table) == ROUTE_CACHE_TTLS
            assert {type(slot) for slot in table} <= {int, Tail, type(None)}
            assert len({id(slot) for slot in table
                        if type(slot) is Tail}) <= 1

    def test_probing_never_mutates_a_table(self, small_topology: Topology):
        network = SimulatedNetwork(small_topology)
        cache = network.route_cache
        rng = random.Random(0xF00D)
        base = small_topology.base_prefix
        for proto in (PROTO_UDP, PROTO_TCP):
            for _ in range(200):
                dst = ((base + rng.randrange(small_topology.num_prefixes))
                       << 8) | rng.randrange(256)
                table = cache.outcome_table(dst, 33434, 0, proto)
                before = list(table)
                for _pass in range(2):
                    for ttl in range(1, ROUTE_CACHE_TTLS + 1):
                        network.send_probe(dst, ttl, 0.0, 33434, proto=proto)
                    network.send_probes(
                        [(dst, ttl, 0.0, 33434, 0, 8)
                         for ttl in range(1, ROUTE_CACHE_TTLS + 1)],
                        33434, proto, None)
                assert len(table) == len(before)
                assert all(now is then for now, then in zip(table, before))

    def test_route_cache_bytes_per_table(self):
        """Deterministic memory guard: what a ``flashroute-16`` scan leaves
        in ``simnet/routecache.py``'s name is ≤ 1 KiB per distinct table
        (0.5 KiB as built; 2.6 KiB when slots held response tuples)."""
        request = api.ScanRequest(tool="flashroute-16", prefixes=1024,
                                  seed=11)
        engine = api.Engine.from_request(request)
        tracemalloc.start()
        try:
            engine.open_session(request).run()
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/simnet/routecache.py")]
        ).statistics("filename"))
        cache = engine.network.route_cache
        distinct = len({id(table) for table in cache.udp_tables.values()})
        assert distinct >= 1024
        assert held <= 1024 * distinct, (held, distinct)


def _census_topology() -> Topology:
    """Every stub flavour's probability raised until each occurs, and a
    short flap epoch so a sweep crosses it."""
    return Topology(TopologyConfig(
        num_prefixes=192, seed=6, route_flap_probability=0.5,
        ttl_reset_middlebox_probability=0.25,
        rewrite_middlebox_probability=0.35,
        host_unreachable_probability=0.5,
        default_route_loop_probability=0.3,
        appliance_udp_unreachable=0.6, load_balancer_probability=0.3,
        flap_epoch_seconds=60.0))


def _flavours(topo: Topology, dst: int, ttl: int, flow: int, epoch: int,
              proto: int):
    """Ground-truth names of what one probe exercises."""
    offset = topo.prefix_offset(dst)
    if offset < 0:
        return {"out_of_space"}
    record = topo.prefixes[offset]
    stub = topo.stubs[record.stub_id]
    shift = 1 if record.flap and epoch & 1 else 0
    gate = stub.gateway_depth + shift
    hop = topo.hop_at(dst, ttl, flow=flow, epoch=epoch)
    found = {"flap_shifted"} if shift else set()
    if hop.kind is HopKind.VOID:
        found.add("flap_gap" if len(stub.transit) < ttl < gate else "void")
    elif hop.kind is HopKind.ROUTER:
        if ttl <= len(stub.transit):
            found.add("lb_diamond" if stub.transit[ttl - 1] < 0
                      else "transit")
        elif ttl == gate:
            found.add("gateway")
        else:
            found.add("alt_last_hop" if hop.iface == record.alt_last_hop
                      else "interior")
        if proto == PROTO_TCP and topo.udp_resp[hop.iface] \
                and not topo.tcp_resp[hop.iface]:
            found.add("udp_not_tcp_iface")
    elif hop.kind is HopKind.LOOP_ROUTER:
        found.add("loop")
        if not record.internal_ifaces and stub.transit[-1] < 0 \
                and hop.iface != stub.gateway_iface:
            found.add("loop_upstream_in_diamond")
    elif hop.kind is HopKind.GATEWAY_UNREACHABLE:
        found.add("host_unreachable")
        if stub.rewrite:
            found.add("host_unreachable_rewritten")
        if shift:
            found.add("host_unreachable_flap_shifted")
    else:
        if ttl == gate:
            found.add("gateway_is_destination")
        elif stub.ttl_reset:
            found.add("ttl_reset")
        else:
            found.add("special_host" if hop.iface >= 0 else "destination")
        if stub.rewrite:
            found.add("destination_rewritten")
    return found


#: Every flavour :func:`_flavours` can name; the two flap ones exist only
#: in odd epochs.
_ALL_FLAVOURS = {
    "out_of_space", "void", "transit", "lb_diamond", "gateway", "interior",
    "alt_last_hop", "udp_not_tcp_iface", "loop", "loop_upstream_in_diamond",
    "host_unreachable",
    "host_unreachable_rewritten", "gateway_is_destination", "ttl_reset",
    "special_host", "destination", "destination_rewritten"}
_ODD_ONLY_FLAVOURS = {"flap_shifted", "flap_gap",
                      "host_unreachable_flap_shifted"}


class TestCensusSweep:
    """The probe-for-probe sweep that knows what it met: per prefix the
    special, an active, one random and one upper-half octet × TTL 1–32 ×
    both epoch parities × UDP/TCP, through the batched path, the scalar
    path and the uncached oracle — and a census asserting every route
    flavour was compared in both parities."""

    @pytest.fixture(scope="class")
    def sweep(self):
        topo = _census_topology()
        rng = random.Random(0xCE05)
        dsts = [(topo.base_prefix - 3) << 8 | 7]  # outside the space
        for offset, record in enumerate(topo.prefixes):
            octets = {min(record.special_hosts, default=1),
                      min(record.active_hosts, default=2),
                      rng.randrange(256), rng.randrange(128, 256)}
            dsts.extend((topo.base_prefix + offset) << 8 | octet
                        for octet in sorted(octets))
        streams = {}
        census = {}
        for proto in (PROTO_UDP, PROTO_TCP):
            probes = []
            for parity in (0, 1):
                # TCP sweeps epochs 2 and 3: parity, not the epoch, keys.
                epoch = parity + (2 if proto == PROTO_TCP else 0)
                now = epoch * topo.config.flap_epoch_seconds
                for dst in dsts:
                    port = 1024 + dst * 7919 % 60000
                    for ttl in range(1, ROUTE_CACHE_TTLS + 1):
                        probes.append((dst, ttl, now, port, ttl, 8))
                        now += 2e-5
                        for name in _flavours(topo, dst, ttl, port, epoch,
                                              proto):
                            census.setdefault(name, set()).add(parity)
            streams[proto] = probes
        return topo, streams, census

    def test_every_flavour_met_in_both_parities(self, sweep):
        _topo, _streams, census = sweep
        assert set(census) == _ALL_FLAVOURS | _ODD_ONLY_FLAVOURS
        for name in _ALL_FLAVOURS:
            assert census[name] == {0, 1}, name
        for name in _ODD_ONLY_FLAVOURS:
            assert census[name] == {1}, name

    @pytest.mark.parametrize("rate_limit", [None, 10**9],
                             ids=["default-limiter", "unlimited"])
    def test_batched_and_scalar_equal_the_oracle(self, sweep, rate_limit):
        topo, streams, _census = sweep
        oracle = SimulatedNetwork(topo, use_route_cache=False,
                                  rate_limit=rate_limit)
        batched = SimulatedNetwork(topo, rate_limit=rate_limit)
        scalar = SimulatedNetwork(topo, rate_limit=rate_limit)
        for proto, probes in streams.items():
            expected = [oracle._send_probe_uncached(
                dst, ttl, now, port, 33434, ipid, length, proto)
                for dst, ttl, now, port, ipid, length in probes]
            got = []
            for start in range(0, len(probes), 64):
                got.extend(batched.send_probes(probes[start:start + 64],
                                               33434, proto, None))
            assert got == expected
            assert [scalar.send_probe(dst, ttl, now, port, ipid=ipid,
                                      udp_length=length, proto=proto)
                    for dst, ttl, now, port, ipid, length in probes] == got
        assert oracle.rewritten_responses > 0
        assert (oracle.rate_limiter.dropped > 0) == (rate_limit is None)
        for network in (batched, scalar):
            assert network.probes_sent == oracle.probes_sent
            assert network.responses_generated == oracle.responses_generated
            assert network.rewritten_responses == oracle.rewritten_responses
            assert network.rate_limiter.dropped == \
                oracle.rate_limiter.dropped
