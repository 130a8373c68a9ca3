"""Equivalence and property tests for the flat route cache.

The cache is only allowed to exist because it is provably
behavior-preserving; these tests are the proof obligations:

* ``send_probe``, a one-element ``send_probes`` burst and the uncached
  reference answer generated probe streams identically — responses,
  counters, rate limiter and probe log — over flap epochs, LB diamonds,
  out-of-space destinations, out-of-range TTLs, faults and the ``single``
  hint;
* cached and uncached networks answer identical probe streams with
  *identical* response objects (rate limiter included);
* full FlashRoute and Yarrp scans produce identical :class:`ScanResult`
  fields either way, batched ring walk and all, IPv6 address plan too.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.baselines.yarrp import Yarrp, YarrpConfig
from repro.core.config import FlashRouteConfig, PreprobeMode
from repro.core.prober import FlashRoute
from repro.core.scanner import scanner_names
from repro.net.packets import PROTO_TCP, PROTO_UDP
from repro.simnet.config import TopologyConfig
from repro.simnet.entities import HopKind
from repro.simnet.faults import FaultModel
from repro.simnet.network import SimulatedNetwork
from repro.simnet.routecache import ROUTE_CACHE_TTLS, Tail
from repro.simnet.topology import Topology

from oracle.network import OracleNetwork


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


class TestSendProbeEquivalence:
    @pytest.mark.parametrize("proto", [PROTO_UDP, PROTO_TCP])
    def test_identical_probe_streams(self, small_topology: Topology, proto):
        cached = SimulatedNetwork(small_topology)
        uncached = OracleNetwork(small_topology)
        assert cached.stats()["route_cache"] is not None
        assert uncached.stats()["route_cache"] is None

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
        for network_class in (SimulatedNetwork, OracleNetwork):
            results.append(FlashRoute(FlashRouteConfig()).scan(
                network_class(tiny_topology), targets=tiny_targets))
        assert _result_fields(results[0]) == _result_fields(results[1])

    @pytest.mark.parametrize("faults", [None, FaultModel(
        probe_loss=0.05, response_loss=0.05, seed=5)],
        ids=["clean", "lossy"])
    def test_ipv6_scan_identical(self, faults):
        """Over the IPv6 address plan both networks sit behind the same
        edge, so the tables answer v6 scans as the topology does."""
        topology = Topology(TopologyConfig(num_prefixes=128, seed=3,
                                           address_bits=128))
        results = []
        for network_class in (SimulatedNetwork, OracleNetwork):
            results.append(FlashRoute(FlashRouteConfig.flashroute_16_v6()
                                      ).scan(network_class(topology,
                                                           faults=faults)))
        assert _result_fields(results[0]) == _result_fields(results[1])

    def test_scan_leaves_an_uncached_network_uncached(
            self, tiny_topology: Topology, tiny_targets):
        network = OracleNetwork(tiny_topology)
        result = FlashRoute(FlashRouteConfig()).scan(
            network, targets=tiny_targets)
        assert result.probes_sent > 0
        # Every probe of the scan took the uncached path: no table built.
        assert not network.route_cache.udp_tables
        assert not network.route_cache.tcp_tables
        assert network.stats()["route_cache"] is None

    @pytest.mark.parametrize("config_name", ["yarrp_16", "yarrp_32"])
    def test_yarrp_scan_identical(self, tiny_topology: Topology,
                                  tiny_targets, config_name):
        results = []
        for network_class in (SimulatedNetwork, OracleNetwork):
            config = getattr(YarrpConfig, config_name)()
            results.append(Yarrp(config).scan(network_class(tiny_topology),
                                              targets=tiny_targets))
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


class TestOneObjectPerInterface:
    """A responder is the route cache's one shared ``int`` for its
    interface, so every tool's routes hold one object per address (they
    held one per hop: yarrp-32 had 3,538 objects for 506 addresses)."""

    @pytest.fixture(scope="class")
    def engine(self):
        return api.Engine(TopologyConfig(num_prefixes=256, seed=3))

    @pytest.mark.parametrize("loss", [0.0, 0.05])
    @pytest.mark.parametrize("tool", scanner_names())
    def test_routes_hold_one_object_per_address(self, engine, tool, loss):
        request = api.ScanRequest(tool=tool, prefixes=256, seed=3,
                                  loss=loss, fault_seed=7)
        result = engine.open_session(request).run()
        responders = [responder for hops in result.routes.values()
                      for responder in hops.values()]
        assert len(responders) > len(set(responders))
        assert len({id(responder) for responder in responders}) \
            == len(set(responders))


@lru_cache(maxsize=None)
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
        oracle = OracleNetwork(topo, rate_limit=rate_limit)
        batched = SimulatedNetwork(topo, rate_limit=rate_limit)
        scalar = SimulatedNetwork(topo, rate_limit=rate_limit)
        for proto, probes in streams.items():
            expected = oracle.send_probes(probes, 33434, proto, None)
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


# --------------------------------------------------------------------- #
# One resolver: the scalar entry point is a one-probe burst
# --------------------------------------------------------------------- #

_FAULTS = FaultModel(probe_loss=0.1, response_loss=0.1, reorder_window=0.05,
                     duplicate_probability=0.3, blackout_fraction=0.2,
                     blackout_period=1.0, blackout_duration=0.3, seed=9)


def _probe_streams():
    """A handful of destinations — inside the space and a prefix or two
    outside it — and a stream of steps over them: which destination, TTL
    0–40 (the tables hold 1–32), the gap to the next probe (same rate-limit
    second, next second, next flap epoch) and the ``single`` hint."""
    topo = _census_topology()
    low = topo.base_prefix
    dsts = st.builds(lambda prefix, octet: prefix << 8 | octet,
                     st.integers(low - 2, low + topo.num_prefixes + 1),
                     st.integers(0, 255))
    step = st.tuples(st.integers(0, 5), st.integers(0, 40),
                     st.sampled_from([2e-5, 0.4, 45.0]), st.booleans())
    return st.tuples(st.lists(dsts, min_size=1, max_size=6),
                     st.lists(step, min_size=1, max_size=48))


def _delivered(response):
    """Everything a receiver can see of a response, fault slots included
    (``IcmpResponse.__eq__`` compares the five protocol fields only)."""
    if response is None:
        return None
    return (response, response.is_duplicate, _delivered(response.dup))


def _observable(network: SimulatedNetwork):
    limiter = network.rate_limiter
    return (network.probes_sent, network.responses_generated,
            network.rewritten_responses, limiter.dropped,
            limiter.overprobed_interfaces, list(network.probe_log),
            network.faults.stats() if network.faults is not None else None)


class TestOneResolver:
    """``send_probe(p)``, ``send_probes([p])[0]`` and the uncached
    reference agree on the response and on everything the network counts,
    whatever mix of protocol, faults, ``single`` hints, TTLs and
    destinations a caller sends."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stream=_probe_streams(),
           proto=st.sampled_from([PROTO_UDP, PROTO_TCP]),
           faulted=st.booleans(),
           flow=st.sampled_from([None, 0, 7, 65535]))
    def test_scalar_burst_and_reference_agree(self, stream, proto, faulted,
                                              flow):
        topo = _census_topology()

        def network(network_class=SimulatedNetwork):
            return network_class(topo, log_probes=True, rate_limit=1,
                                 faults=_FAULTS if faulted else None)

        scalar, burst, reference = (network(), network(),
                                    network(OracleNetwork))
        dsts, steps = stream
        now = 0.0
        for index, ttl, gap, single in steps:
            dst = dsts[index % len(dsts)]
            port = 1024 + dst * 7919 % 60000
            ipid, length = ttl << 8 | index, 8 + index
            expected = _delivered(reference.send_probe(
                dst, ttl, now, port, 33434, ipid, length, proto, flow))
            assert _delivered(scalar.send_probe(
                dst, ttl, now, port, 33434, ipid, length, proto, flow,
                single)) == expected
            got, = burst.send_probes([(dst, ttl, now, port, ipid, length)],
                                     33434, proto, flow)
            assert _delivered(got) == expected
            now += gap
        assert _observable(scalar) == _observable(reference)
        assert _observable(burst) == _observable(reference)
        # A hinted probe never builds a table; an unhinted one within the
        # tables' TTLs always finds or builds one, as a burst does.
        built = len(scalar.route_cache.udp_tables) \
            + len(scalar.route_cache.tcp_tables)
        if all(single or not 1 <= ttl <= ROUTE_CACHE_TTLS
               for _index, ttl, _gap, single in steps):
            assert built == 0


class _CallLog:
    """Forwards to a network, keeping what reached it: each scalar call's
    ``single`` hint, each burst's ``(probes, preprobes among them)``, and
    the UDP tables built by the time of the first burst."""

    def __init__(self, network: SimulatedNetwork) -> None:
        self._network = network
        self.singles = []
        self.bursts = []
        self.tables_at_first_burst = None

    def __getattr__(self, name):
        return getattr(self._network, name)

    def send_probe(self, *args, single=False, **kwargs):
        self.singles.append(single)
        return self._network.send_probe(*args, single=single, **kwargs)

    def send_probes(self, probes, dst_port=33434, proto=PROTO_UDP,
                    flow=None):
        if self.tables_at_first_burst is None:
            self.tables_at_first_burst = len(
                self._network.route_cache.udp_tables)
        self.bursts.append((len(probes), sum(
            bool(ipid & 0x400) for _d, _t, _n, _p, ipid, _l in probes)))
        return self._network.send_probes(probes, dst_port, proto, flow)


class TestPreprobesOnTheWire:
    def test_unfolded_preprobes_are_single_and_build_no_table(self):
        """Hitlist preprobing: one scalar, hinted call per block, each a
        table miss resolved on the reference path, so the preprobe phase
        leaves the route cache empty."""
        topo = _census_topology()
        network = _CallLog(SimulatedNetwork(topo))
        result = FlashRoute(FlashRouteConfig.flashroute_16()).scan(network)
        assert result.preprobe_probes == topo.num_prefixes
        assert network.singles == [True] * topo.num_prefixes
        assert network.tables_at_first_burst == 0
        assert all(preprobes == 0 for _probes, preprobes in network.bursts)

    def test_folded_preprobes_travel_as_bursts(self):
        """Random preprobing at split 32 is the first main round (§3.3.5):
        its targets are probed again, so it goes out as the bursts the ring
        walk built and never through the scalar entry point."""
        topo = _census_topology()
        network = _CallLog(SimulatedNetwork(topo))
        config = FlashRouteConfig(split_ttl=32, preprobe=PreprobeMode.RANDOM)
        result = FlashRoute(config).scan(network)
        assert network.singles == []
        assert result.preprobe_probes == topo.num_prefixes
        carrying = [(probes, preprobes) for probes, preprobes
                    in network.bursts if preprobes]
        assert sum(preprobes for _probes, preprobes in carrying) \
            == result.preprobe_probes
        assert all(probes == preprobes for probes, preprobes in carrying)
        assert max(probes for probes, _preprobes in carrying) > 1
