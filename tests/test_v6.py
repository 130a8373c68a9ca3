"""The IPv6 extension: sparse DCB store, encoding, topology, scanner."""

import pytest

from repro.net.icmp import ResponseKind
from repro.v6 import (
    FlashRoute6,
    FlashRoute6Config,
    SimulatedNetwork6,
    SparseDCBStore,
    Topology6,
    TopologyConfig6,
    addr6_checksum,
    decode_payload6,
    destination_intact6,
    encode_probe6,
    exhaustive_scan6,
    flow_source_port6,
    rtt_ms6,
)
from repro.v6.encoding6 import Encoding6Error


@pytest.fixture(scope="module")
def topo6():
    return Topology6(TopologyConfig6(num_sites=48, seed=5))


@pytest.fixture(scope="module")
def seed_targets(topo6):
    return topo6.seed_targets()


class TestSparseStore:
    def _store(self, n=10, **kwargs):
        destinations = [(0x20010DB8 << 96) | (i << 64) | 0x42
                        for i in range(1, n + 1)]
        return SparseDCBStore(destinations, split_ttl=16, gap_limit=5,
                              **kwargs), destinations

    def test_one_block_per_subnet(self):
        store, destinations = self._store(5)
        assert len(store) == 5
        for dst in destinations:
            assert (dst >> 64) in store

    def test_duplicate_subnets_collapse(self):
        base = (1 << 64) | 5
        store = SparseDCBStore([base, base + 1, base + 2], 16, 5)
        assert len(store) == 1

    def test_o1_lookup_by_subnet(self):
        store, destinations = self._store(5)
        block = store.get(destinations[2] >> 64)
        assert block.destination == destinations[2]
        assert store.get(0xDEAD) is None

    def test_ring_is_shuffled_permutation(self):
        store, destinations = self._store(50)
        ring = list(store.iter_ring())
        assert sorted(ring) == sorted(dst >> 64 for dst in destinations)
        assert ring != sorted(ring)

    def test_remove_unlinks(self):
        store, destinations = self._store(5)
        ring = list(store.iter_ring())
        store.remove(ring[2])
        assert len(store) == 4
        assert list(store.iter_ring()) == ring[:2] + ring[3:]

    def test_remove_all(self):
        store, _dests = self._store(3)
        for key in list(store.iter_ring()):
            store.remove(key)
        assert len(store) == 0
        assert store.head is None

    def test_set_distance(self):
        store, destinations = self._store(3)
        key = destinations[0] >> 64
        store.set_distance(key, 9, gap_limit=5)
        block = store.get(key)
        assert block.split_ttl == 9
        assert block.next_backward == 9
        assert block.next_forward == 10
        assert block.forward_horizon == 14

    def test_memory_scales_with_targets_not_universe(self):
        small, _ = self._store(10)
        large, _ = self._store(1000)
        ratio = large.memory_footprint() / small.memory_footprint()
        assert 20 < ratio < 200  # linear in targets, nothing like 2^64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SparseDCBStore([], 16, 5)


class TestEncoding6:
    def test_round_trip(self):
        dst = (0x20010DB8 << 96) | 7
        marking = encode_probe6(dst, 17, send_time=3.5, is_preprobe=True)
        decoded = decode_payload6(marking.payload, dst, marking.src_port)
        assert decoded.initial_ttl == 17
        assert decoded.is_preprobe
        assert decoded.timestamp_ms == 3500
        assert destination_intact6(decoded)

    def test_rewrite_detected(self):
        dst = (0x20010DB8 << 96) | 7
        marking = encode_probe6(dst, 17, 0.0)
        decoded = decode_payload6(marking.payload, dst + 1, marking.src_port)
        assert not destination_intact6(decoded)

    def test_ttl_bounds(self):
        with pytest.raises(Encoding6Error):
            encode_probe6(1, 0, 0.0)
        with pytest.raises(Encoding6Error):
            encode_probe6(1, 64, 0.0)
        marking = encode_probe6(1, 63, 0.0)
        assert decode_payload6(marking.payload, 1,
                               marking.src_port).initial_ttl == 63

    def test_rtt_wraparound(self):
        dst = 5
        marking = encode_probe6(dst, 8, send_time=65.530)
        decoded = decode_payload6(marking.payload, dst, marking.src_port)
        assert rtt_ms6(decoded, 65.630) == pytest.approx(100.0)

    def test_ports_unprivileged(self):
        for addr in (0, 1, 2**127, 2**128 - 1):
            assert 1024 <= addr6_checksum(addr) <= 65535
            assert 1024 <= flow_source_port6(addr, 3) <= 65535

    def test_short_payload_rejected(self):
        with pytest.raises(Encoding6Error):
            decode_payload6(b"\x01", 1, 1)


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


class TestFlashRoute6:
    @pytest.fixture(scope="class")
    def scan6(self, topo6, seed_targets):
        return FlashRoute6(FlashRoute6Config()).scan(
            SimulatedNetwork6(topo6), targets=seed_targets)

    @pytest.fixture(scope="class")
    def exhaustive6(self, topo6, seed_targets):
        return exhaustive_scan6(SimulatedNetwork6(topo6),
                                targets=seed_targets)

    def test_completes(self, scan6):
        assert not scan6.aborted
        assert scan6.granularity == 64

    def test_interfaces_are_real(self, scan6, topo6):
        assert scan6.interfaces() <= set(topo6.iface_addrs)

    def test_probe_savings(self, scan6, exhaustive6):
        """The v4 headline transfers: far fewer probes, same discovery."""
        assert scan6.probes_sent < 0.55 * exhaustive6.probes_sent
        assert scan6.interface_count() >= 0.97 * exhaustive6.interface_count()

    def test_exhaustive_probe_count_exact(self, exhaustive6, seed_targets):
        assert exhaustive6.probes_sent == 32 * len(seed_targets)

    def test_destination_distances_true(self, scan6, topo6, seed_targets):
        for subnet, measured in scan6.dest_distance.items():
            assert measured == topo6.destination_distance(
                seed_targets[subnet])

    def test_preprobe_sets_split_points(self, topo6, seed_targets):
        with_pre = FlashRoute6(FlashRoute6Config(preprobe=True)).scan(
            SimulatedNetwork6(topo6), targets=seed_targets)
        without = FlashRoute6(FlashRoute6Config(preprobe=False)).scan(
            SimulatedNetwork6(topo6), targets=seed_targets)
        assert with_pre.preprobe_probes == len(seed_targets)
        assert without.preprobe_probes == 0

    def test_redundancy_removal_saves(self, topo6, seed_targets):
        on = FlashRoute6(FlashRoute6Config(preprobe=False)).scan(
            SimulatedNetwork6(topo6), targets=seed_targets)
        off = FlashRoute6(FlashRoute6Config(
            preprobe=False, redundancy_removal=False)).scan(
            SimulatedNetwork6(topo6), targets=seed_targets)
        assert on.probes_sent < off.probes_sent

    def test_requires_targets(self, topo6):
        with pytest.raises(ValueError):
            FlashRoute6().scan(SimulatedNetwork6(topo6), targets={})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlashRoute6Config(max_ttl=64)
        with pytest.raises(ValueError):
            FlashRoute6Config(split_ttl=0)
        with pytest.raises(ValueError):
            FlashRoute6Config(probing_rate=0)

    @pytest.mark.parametrize("seconds", [float("inf"), float("-inf"),
                                         float("nan"), -1.0])
    def test_round_seconds_must_be_finite(self, seconds):
        with pytest.raises(ValueError, match="round_seconds"):
            FlashRoute6Config(round_seconds=seconds)
