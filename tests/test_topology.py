"""Topology generator invariants and the hop_at ground-truth oracle."""

import gc
import tracemalloc

import pytest

from repro import api
from repro.net.addr import ip_to_int
from repro.simnet.config import TopologyConfig
from repro.simnet.entities import HopKind, PrefixInfo
from repro.simnet.topology import Topology

from conftest import first_prefix_with


class TestGenerationInvariants:
    def test_every_prefix_has_a_record(self, small_topology):
        assert len(small_topology.prefixes) == small_topology.num_prefixes

    def test_stubs_tile_the_space(self, small_topology):
        covered = 0
        for stub in small_topology.stubs:
            assert stub.first_offset == covered
            covered += stub.block_size
        assert covered == small_topology.num_prefixes

    def test_prefix_records_point_at_owning_stub(self, small_topology):
        for offset, record in enumerate(small_topology.prefixes):
            stub = small_topology.stubs[record.stub_id]
            assert stub.first_offset <= offset < (stub.first_offset
                                                  + stub.block_size)

    def test_interface_addresses_unique(self, small_topology):
        addrs = small_topology.iface_addrs
        assert len(addrs) == len(set(addrs))

    def test_gateway_depth_matches_transit_length(self, small_topology):
        for stub in small_topology.stubs:
            assert stub.gateway_depth == len(stub.transit) + 1

    def test_transit_depth_ordering(self, small_topology):
        topo = small_topology
        for stub in topo.stubs:
            for depth, token in enumerate(stub.transit, start=1):
                iface = topo.resolve_token(token, flow=0)
                assert topo.iface_depth[iface] == depth

    def test_root_interface_always_responsive(self, small_topology):
        # Backward probing must be able to terminate at TTL 1 (§3.2).
        root_token = small_topology.stubs[0].transit[0]
        root = small_topology.resolve_token(root_token, 0)
        assert small_topology.udp_resp[root]

    def test_all_stubs_share_the_same_root(self, small_topology):
        roots = {small_topology.resolve_token(stub.transit[0], 0)
                 for stub in small_topology.stubs}
        assert len(roots) == 1

    def test_gateway_address_inside_first_prefix(self, small_topology):
        topo = small_topology
        for stub in topo.stubs:
            gateway_addr = topo.iface_addrs[stub.gateway_iface]
            assert gateway_addr >> 8 == topo.base_prefix + stub.first_offset

    def test_internal_iface_addresses_inside_their_prefix(self, small_topology):
        topo = small_topology
        for offset, record in enumerate(topo.prefixes):
            for iface in record.internal_ifaces:
                assert topo.iface_addrs[iface] >> 8 == topo.base_prefix + offset

    def test_hitlist_host_always_set(self, small_topology):
        for record in small_topology.prefixes:
            assert 1 <= record.hitlist_host <= 254

    def test_deterministic_generation(self):
        a = Topology(TopologyConfig(num_prefixes=128, seed=99))
        b = Topology(TopologyConfig(num_prefixes=128, seed=99))
        assert a.iface_addrs == b.iface_addrs
        assert [s.transit for s in a.stubs] == [s.transit for s in b.stubs]
        assert [r.hitlist_host for r in a.prefixes] == \
            [r.hitlist_host for r in b.prefixes]

    def test_seed_changes_topology(self):
        a = Topology(TopologyConfig(num_prefixes=128, seed=1))
        b = Topology(TopologyConfig(num_prefixes=128, seed=2))
        assert a.iface_addrs != b.iface_addrs

    def test_lb_groups_have_multiple_branches(self, small_topology):
        for branches in small_topology.lb_groups:
            assert len(branches) >= 2
            levels = {len(branch) for branch in branches}
            assert len(levels) == 1  # all branches span the same hop count


class TestConfigValidation:
    def test_rejects_unaligned_base(self):
        with pytest.raises(ValueError):
            TopologyConfig(base_prefix_addr=0x14000001)

    def test_rejects_nonpositive_prefixes(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_prefixes=0)

    def test_rejects_overflowing_space(self):
        with pytest.raises(ValueError):
            TopologyConfig(base_prefix_addr=(2**24 - 1) << 8, num_prefixes=2)

    def test_infrastructure_may_not_grow_into_the_scanned_space(self):
        """The config can check only where the infrastructure range starts
        (here one /24 below the scanned space); the range grows as the walk
        allocates, so each allocation checks its own address."""
        config = TopologyConfig(num_prefixes=4096, seed=11,
                                base_prefix_addr=ip_to_int("60.0.1.0"))
        with pytest.raises(ValueError, match="infrastructure space overlaps "
                                             "the scanned space"):
            Topology(config)


class TestHopAt:
    def test_transit_hops_resolve(self, small_topology):
        topo = small_topology
        stub = topo.stubs[0]
        dst = (topo.base_prefix + stub.first_offset) << 8 | 200
        for ttl in range(1, len(stub.transit) + 1):
            hop = topo.hop_at(dst, ttl)
            assert hop.kind is HopKind.ROUTER
            assert topo.iface_depth[hop.iface] == ttl

    def test_gateway_expires_ordinary_probes_at_its_depth(self, small_topology):
        topo = small_topology
        prefix = first_prefix_with(
            topo, lambda record, stub: not record.flap
            and 200 not in record.special_hosts)
        record = topo.prefixes[prefix - topo.base_prefix]
        stub = topo.stubs[record.stub_id]
        dst = (prefix << 8) | 200
        hop = topo.hop_at(dst, stub.gateway_depth)
        assert hop.kind is HopKind.ROUTER
        assert hop.iface == stub.gateway_iface

    def test_active_host_destination(self, small_topology):
        topo = small_topology
        prefix = first_prefix_with(
            topo, lambda record, stub: bool(record.active_hosts)
            and not record.flap and not stub.ttl_reset)
        record = topo.prefixes[prefix - topo.base_prefix]
        stub = topo.stubs[record.stub_id]
        octet = min(record.active_hosts)
        dst = (prefix << 8) | octet
        depth = stub.gateway_depth + len(record.internal_ifaces) + 1
        hop = topo.hop_at(dst, depth)
        assert hop.kind is HopKind.DESTINATION
        assert hop.residual_ttl == 1
        assert hop.dest_depth == depth

    def test_destination_residual_arithmetic(self, small_topology):
        topo = small_topology
        prefix = first_prefix_with(
            topo, lambda record, stub: bool(record.active_hosts)
            and not record.flap and not stub.ttl_reset)
        record = topo.prefixes[prefix - topo.base_prefix]
        stub = topo.stubs[record.stub_id]
        dst = (prefix << 8) | min(record.active_hosts)
        depth = stub.gateway_depth + len(record.internal_ifaces) + 1
        hop = topo.hop_at(dst, 32)
        assert hop.kind is HopKind.DESTINATION
        # distance = initial - residual + 1 must recover the true depth
        assert 32 - hop.residual_ttl + 1 == depth

    def test_unassigned_traverses_interior_then_dies(self, small_topology):
        """Packets to unassigned addresses are forwarded down the prefix's
        interior chain and die silently at the last-hop router (§5.1: this
        is how random targets reveal interiors hitlist targets hide)."""
        topo = small_topology
        prefix = first_prefix_with(
            topo, lambda record, stub: not record.active_hosts
            and not stub.loop_unassigned and not stub.host_unreachable
            and not record.flap and not stub.ttl_reset
            and len(record.internal_ifaces) >= 1)
        record = topo.prefixes[prefix - topo.base_prefix]
        stub = topo.stubs[record.stub_id]
        # Octet below 128: the lower host half, served by the primary
        # last-hop chain (octets >= 128 may sit behind alt_last_hop).
        octet = 100
        if octet in record.special_hosts:
            octet = 101
        dst = (prefix << 8) | octet
        # Interior hops are traversed...
        hop = topo.hop_at(dst, stub.gateway_depth + 1)
        assert hop.kind is HopKind.ROUTER
        assert hop.iface == record.internal_ifaces[0]
        # ...but at the would-be host position there is only silence.
        dest_depth = stub.gateway_depth + len(record.internal_ifaces) + 1
        assert topo.hop_at(dst, dest_depth).kind is HopKind.VOID
        assert topo.hop_at(dst, dest_depth + 3).kind is HopKind.VOID

    def test_loop_stub_answers_forever(self):
        topo = Topology(TopologyConfig(num_prefixes=512, seed=5,
                                       default_route_loop_probability=0.4))
        prefix = first_prefix_with(
            topo, lambda record, stub: stub.loop_unassigned
            and not record.active_hosts and not record.flap
            and not stub.ttl_reset)
        record = topo.prefixes[prefix - topo.base_prefix]
        stub = topo.stubs[record.stub_id]
        octet = 200 if 200 not in record.special_hosts else 199
        dst = (prefix << 8) | octet
        dest_depth = stub.gateway_depth + len(record.internal_ifaces) + 1
        hops = [topo.hop_at(dst, ttl) for ttl in
                range(dest_depth, dest_depth + 6)]
        assert all(h.kind is HopKind.LOOP_ROUTER for h in hops)
        # The loop alternates between two interfaces.
        assert len({h.iface for h in hops}) == 2

    def test_host_unreachable_stub(self, small_topology):
        topo = small_topology
        prefix = first_prefix_with(
            topo, lambda record, stub: stub.host_unreachable
            and not stub.loop_unassigned and not record.active_hosts
            and not record.flap and not stub.ttl_reset)
        record = topo.prefixes[prefix - topo.base_prefix]
        stub = topo.stubs[record.stub_id]
        octet = 200 if 200 not in record.special_hosts else 199
        dst = (prefix << 8) | octet
        dest_depth = stub.gateway_depth + len(record.internal_ifaces) + 1
        hop = topo.hop_at(dst, dest_depth + 1)
        assert hop.kind is HopKind.GATEWAY_UNREACHABLE
        expected = (record.internal_ifaces[-1] if record.internal_ifaces
                    else stub.gateway_iface)
        assert hop.iface == expected

    def test_ttl_reset_middlebox_boosts_residual(self):
        config = TopologyConfig(num_prefixes=512, seed=13,
                                ttl_reset_middlebox_probability=0.5,
                                stub_active_probability=0.9)
        topo = Topology(config)
        prefix = first_prefix_with(
            topo, lambda record, stub: stub.ttl_reset
            and bool(record.active_hosts) and not record.flap)
        record = topo.prefixes[prefix - topo.base_prefix]
        stub = topo.stubs[record.stub_id]
        dst = (prefix << 8) | min(record.active_hosts)
        # Any TTL that crosses the gateway reaches the destination.
        hop = topo.hop_at(dst, stub.gateway_depth + 1)
        assert hop.kind is HopKind.DESTINATION
        # And the residual is normalized up, so the computed distance is
        # wildly wrong — the Fig. 3 tail.
        distance = (stub.gateway_depth + 1) - hop.residual_ttl + 1
        assert distance != hop.dest_depth

    def test_flap_shifts_route_in_odd_epochs(self, small_topology):
        topo = small_topology
        prefix = first_prefix_with(
            topo, lambda record, stub: record.flap
            and bool(record.active_hosts) and not stub.ttl_reset)
        record = topo.prefixes[prefix - topo.base_prefix]
        dst = (prefix << 8) | min(record.active_hosts)
        even = topo.destination_distance(dst, epoch=0)
        odd = topo.destination_distance(dst, epoch=1)
        assert odd == even + 1

    def test_out_of_space_destination_is_void(self, small_topology):
        hop = small_topology.hop_at(0x01010101, 5)
        assert hop.kind is HopKind.VOID

    def test_nonpositive_ttl_is_void(self, small_topology):
        dst = (small_topology.base_prefix << 8) | 5
        assert small_topology.hop_at(dst, 0).kind is HopKind.VOID


def prefix_of_gateway(topo, stub):
    return topo.iface_addrs[stub.gateway_iface] >> 8


class TestTrueRoute:
    def test_route_length_bounded(self, small_topology):
        dst = (small_topology.base_prefix << 8) | 77
        route = small_topology.true_route(dst, max_ttl=32)
        assert len(route) == 32

    def test_route_entries_are_addresses_or_none(self, small_topology):
        topo = small_topology
        dst = (topo.base_prefix << 8) | 77
        known = set(topo.iface_addrs)
        for entry in topo.true_route(dst):
            assert entry is None or entry in known

    def test_flow_changes_lb_branches_only(self, small_topology):
        topo = small_topology
        # Any two flows agree everywhere except load-balancer diamonds.
        for offset in range(0, topo.num_prefixes, 17):
            dst = ((topo.base_prefix + offset) << 8) | 99
            route_a = topo.true_route(dst, flow=1000)
            route_b = topo.true_route(dst, flow=2000)
            for hop_a, hop_b in zip(route_a, route_b):
                if hop_a != hop_b:
                    iface_a = None if hop_a is None else topo.iface_of(hop_a)
                    iface_b = None if hop_b is None else topo.iface_of(hop_b)
                    members = {m for group in topo.lb_groups
                               for branch in group for m in branch}
                    assert iface_a is None or iface_a in members
                    assert iface_b is None or iface_b in members


class TestReachableInterfaces:
    def test_reachable_is_subset_of_all(self, small_topology):
        reachable = small_topology.reachable_interfaces()
        assert all(0 <= iface < len(small_topology.iface_addrs)
                   for iface in reachable)

    def test_reachable_only_contains_responsive(self, small_topology):
        for iface in small_topology.reachable_interfaces():
            assert small_topology.udp_resp[iface]

    def test_max_ttl_monotone(self, small_topology):
        shallow = small_topology.reachable_interfaces(max_ttl=8)
        deep = small_topology.reachable_interfaces(max_ttl=32)
        assert shallow <= deep

    def test_tcp_reachable_subset_of_udp(self, small_topology):
        # Every TCP-responsive interface responds to UDP too (by model).
        tcp = small_topology.reachable_interfaces(udp=False)
        udp = small_topology.reachable_interfaces(udp=True)
        assert tcp <= udp


def _objects_beyond_stubs(num_prefixes: int) -> int:
    """GC-tracked objects one ``Topology`` adds, less what its stubs and
    diamonds may hold (a ``Stub`` and its transit tuple each; a diamond's
    tuple and one per branch), which grow with stubs, not with /24s."""
    gc.collect()
    before = len(gc.get_objects())
    topo = Topology(TopologyConfig(num_prefixes=num_prefixes))
    gc.collect()
    added = len(gc.get_objects()) - before
    return added - 2 * len(topo.stubs) - sum(
        1 + len(branches) for branches in topo.lb_groups)


class TestMemoryCensus:
    """The topology costs bytes per /24, not objects (paper §3.4's point:
    a flat per-/24 array is what lets one host hold a full scan)."""

    def test_heap_per_prefix(self):
        gc.collect()
        tracemalloc.start()
        try:
            topo = Topology(TopologyConfig(num_prefixes=4096))
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / topo.num_prefixes <= 400

    def test_tracked_objects_do_not_grow_with_prefixes(self):
        assert _objects_beyond_stubs(4096) <= _objects_beyond_stubs(1024)

    def test_scan_and_trace_build_no_prefix_views(self, monkeypatch):
        """``prefixes[i]`` views are for analysis: the probe and set-up
        paths of a scan and of a trace read the columns."""
        built = []
        view_init = PrefixInfo.__init__

        def counted(self, *args, **kwargs):
            built.append(args or kwargs)
            view_init(self, *args, **kwargs)

        monkeypatch.setattr(PrefixInfo, "__init__", counted)
        request = api.ScanRequest(tool="flashroute-16", prefixes=256, seed=3)
        engine = api.Engine.from_request(request)
        result = engine.open_session(request).run()
        hops = engine.open_session(api.TraceRequest(
            destination=(engine.topology.base_prefix + 5) << 8 | 77,
            flow=9)).run()
        assert result.probes_sent > 256 and hops
        assert built == []
        engine.topology.prefixes[5]  # the count does see a view
        assert len(built) == 1
