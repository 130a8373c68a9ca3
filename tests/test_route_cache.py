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

import pytest

from conftest import first_prefix_with
from repro.baselines.yarrp import Yarrp, YarrpConfig
from repro.core.config import FlashRouteConfig, PreprobeMode
from repro.core.prober import FlashRoute
from repro.net.packets import PROTO_TCP, PROTO_UDP
from repro.simnet.network import SimulatedNetwork
from repro.simnet.routecache import ROUTE_CACHE_TTLS, RouteCache
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


class TestSlotsAreInvisibleToTheCollector:
    """A scan leaves ~10 realized outcome slots per probed destination in
    the cache.  Each is a tuple of atoms (ints, floats, a bool and the
    response kind's *value*), which the cyclic collector untracks on its
    first pass; one tracked object in a slot — a ``ResponseKind`` member,
    say — keeps every slot in every later full collection."""

    @pytest.mark.parametrize("proto", [PROTO_UDP, PROTO_TCP])
    def test_no_realized_slot_stays_tracked(self, tiny_topology: Topology,
                                            tiny_targets, proto):
        network = SimulatedNetwork(tiny_topology)
        if proto == PROTO_UDP:
            FlashRoute(FlashRouteConfig()).scan(network, targets=tiny_targets)
            tables = network.route_cache.udp_tables
        else:
            Yarrp(YarrpConfig.yarrp_32()).scan(network, targets=tiny_targets)
            tables = network.route_cache.tcp_tables
        gc.collect()
        slots = [slot for table in tables.values() for slot in table
                 if type(slot) is tuple]
        # Built by outcome_table and memoized from LazyDest.realize alike.
        assert len(slots) > 5 * len(tiny_targets)
        assert {type(field) for slot in slots for field in slot} == \
            {str, int, float, bool}
        assert not any(gc.is_tracked(slot) for slot in slots)
