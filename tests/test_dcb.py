"""Destination control blocks and the overlaid ring (paper §3.4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dcb import (
    DCBArray,
    FLAG_DEST_REACHED,
    FLAG_REMOVED,
    initial_order,
    ring_order,
)
from repro.core.permutation import FeistelPermutation


def make(size=10, split=16, gap=5):
    return DCBArray(list(range(1000, 1000 + size)), split, gap)


class TestConstruction:
    def test_initial_fields(self):
        dcb = make(split=16, gap=5)
        view = dcb.view(0)
        assert view.split_ttl == 16
        assert view.next_backward == 16
        assert view.next_forward == 17
        assert view.forward_horizon == 21

    def test_destinations_stored(self):
        dcb = make(size=4)
        assert dcb.destination == [1000, 1001, 1002, 1003]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DCBArray([], 16, 5)

    def test_rejects_huge_split(self):
        with pytest.raises(ValueError):
            DCBArray([1], 300, 5)

    def test_unlinked_until_ring_built(self):
        dcb = make()
        assert len(dcb) == 0
        assert dcb.head == -1


class TestRing:
    def test_link_all(self):
        dcb = make(size=5)
        dcb.link_ring([3, 1, 4, 0, 2])
        assert len(dcb) == 5
        assert dcb.head == 3
        assert list(dcb.iter_ring()) == [3, 1, 4, 0, 2]

    def test_ring_is_circular(self):
        dcb = make(size=3)
        dcb.link_ring([0, 1, 2])
        assert dcb.next_index[2] == 0
        assert dcb.prev_index[0] == 2

    def test_excluded_slots_marked_removed(self):
        dcb = make(size=5)
        dcb.link_ring([0, 2, 4])
        assert dcb.is_removed(1)
        assert dcb.is_removed(3)
        assert not dcb.is_removed(0)

    def test_remove_middle(self):
        dcb = make(size=4)
        dcb.link_ring([0, 1, 2, 3])
        dcb.remove(1)
        assert list(dcb.iter_ring()) == [0, 2, 3]
        assert len(dcb) == 3

    def test_remove_head_moves_head(self):
        dcb = make(size=3)
        dcb.link_ring([0, 1, 2])
        dcb.remove(0)
        assert dcb.head == 1
        assert list(dcb.iter_ring()) == [1, 2]

    def test_remove_last_empties_ring(self):
        dcb = make(size=1)
        dcb.link_ring([0])
        dcb.remove(0)
        assert len(dcb) == 0
        assert dcb.head == -1
        assert list(dcb.iter_ring()) == []

    def test_double_remove_is_noop(self):
        dcb = make(size=3)
        dcb.link_ring([0, 1, 2])
        dcb.remove(1)
        dcb.remove(1)
        assert len(dcb) == 2

    def test_remove_during_iteration(self):
        # The sender's pattern: unlink the current element mid-walk.
        dcb = make(size=5)
        dcb.link_ring([0, 1, 2, 3, 4])
        visited = []
        for index in dcb.iter_ring():
            visited.append(index)
            dcb.remove(index)
        assert visited == [0, 1, 2, 3, 4]
        assert len(dcb) == 0

    def test_relink_readmits_members_and_keeps_other_flags(self):
        dcb = make(size=4)
        dcb.link_ring([0, 1, 2, 3])
        dcb.mark_dest_reached(2)
        for index in list(dcb.iter_ring()):
            dcb.remove(index)
        dcb.link_ring([2, 0])
        assert list(dcb.iter_ring()) == [2, 0]
        assert [dcb.is_removed(i) for i in range(4)] \
            == [False, True, False, True]
        assert dcb.dest_reached(2) and not dcb.dest_reached(0)

    def test_link_ring_rejects_empty_order(self):
        dcb = make()
        with pytest.raises(ValueError):
            dcb.link_ring([])

    def test_link_ring_rejects_bad_index(self):
        dcb = make(size=3)
        with pytest.raises(IndexError):
            dcb.link_ring([0, 7])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=10**6))
    def test_remove_random_subset_preserves_order(self, size, seed):
        import random
        rng = random.Random(seed)
        dcb = make(size=size)
        order = list(range(size))
        rng.shuffle(order)
        dcb.link_ring(order)
        to_remove = {i for i in range(size) if rng.random() < 0.5}
        for index in to_remove:
            dcb.remove(index)
        expected = [i for i in order if i not in to_remove]
        ring = list(dcb.iter_ring())
        if expected:
            # The ring preserves relative permutation order.
            start = expected.index(ring[0])
            assert ring == expected[start:] + expected[:start]
        else:
            assert ring == []


class TestFlags:
    def test_dest_reached(self):
        dcb = make(size=2)
        dcb.mark_dest_reached(1)
        assert dcb.dest_reached(1)
        assert not dcb.dest_reached(0)

    def test_set_distance_measured(self):
        dcb = make()
        dcb.set_distance(0, 12, predicted=False)
        view = dcb.view(0)
        assert view.split_ttl == 12
        assert view.next_backward == 12
        assert view.next_forward == 13
        assert view.distance_measured
        assert not view.distance_predicted

    def test_set_distance_predicted(self):
        dcb = make()
        dcb.set_distance(0, 9, predicted=True)
        assert dcb.view(0).distance_predicted

    def test_flags_are_independent_bits(self):
        dcb = make(size=1)
        dcb.link_ring([0])
        dcb.mark_dest_reached(0)
        dcb.remove(0)
        assert dcb.flags[0] & FLAG_DEST_REACHED
        assert dcb.flags[0] & FLAG_REMOVED


class TestMemory:
    def test_footprint_scales_linearly(self):
        small = make(size=100).memory_footprint()
        large = make(size=10_000).memory_footprint()
        assert large > small
        # Struct-of-arrays: well under 100 bytes per destination.
        assert large / 10_000 < 100


class TestInitialOrder:
    def test_is_permutation(self):
        order = initial_order(100, seed=5)
        assert sorted(order) == list(range(100))

    def test_excludes(self):
        order = initial_order(100, seed=5, excluded={0, 99, 42})
        assert sorted(order) == sorted(set(range(100)) - {0, 99, 42})

    def test_deterministic(self):
        assert initial_order(64, seed=8) == initial_order(64, seed=8)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=3000),
           st.integers(min_value=0, max_value=2**31))
    def test_ring_order_is_the_filtered_forward_walk(self, data, size, seed):
        """Sorting members on their permutation position orders them as
        the forward walk of the whole domain meets them."""
        members = data.draw(st.sets(
            st.integers(min_value=0, max_value=size - 1), max_size=200))
        walk = list(FeistelPermutation(size, seed))
        assert ring_order(size, seed, members) \
            == [value for value in walk if value in members]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=1500),
           st.integers(min_value=0, max_value=2**31),
           st.sets(st.integers(min_value=0, max_value=1499), max_size=50))
    def test_initial_order_is_the_walk_minus_exclusions(self, size, seed,
                                                        excluded):
        assert initial_order(size, seed, excluded) \
            == [value for value in FeistelPermutation(size, seed)
                if value not in excluded]
