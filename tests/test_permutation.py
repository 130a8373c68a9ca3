"""Permutation generators: bijectivity is the whole contract."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.permutation import (
    FeistelPermutation,
    MultiplicativeCycle,
    PermutationError,
)


class TestFeistel:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 100, 1000, 4096, 5000])
    def test_is_bijection(self, n):
        perm = FeistelPermutation(n, seed=42)
        values = [perm[i] for i in range(n)]
        assert sorted(values) == list(range(n))

    def test_deterministic_in_seed(self):
        a = FeistelPermutation(1000, seed=1)
        b = FeistelPermutation(1000, seed=1)
        assert [a[i] for i in range(50)] == [b[i] for i in range(50)]

    def test_different_seeds_differ(self):
        a = [FeistelPermutation(1000, seed=1)[i] for i in range(1000)]
        b = [FeistelPermutation(1000, seed=2)[i] for i in range(1000)]
        assert a != b

    def test_actually_shuffles(self):
        n = 4096
        perm = FeistelPermutation(n, seed=3)
        fixed_points = sum(1 for i in range(n) if perm[i] == i)
        # A uniform random permutation has ~1 expected fixed point.
        assert fixed_points < n // 100

    def test_iteration_matches_indexing(self):
        perm = FeistelPermutation(257, seed=9)
        assert list(perm) == [perm[i] for i in range(257)]

    def test_len(self):
        assert len(FeistelPermutation(12, seed=0)) == 12

    def test_rejects_empty_domain(self):
        with pytest.raises(PermutationError):
            FeistelPermutation(0, seed=0)

    def test_rejects_single_round(self):
        with pytest.raises(PermutationError):
            FeistelPermutation(10, seed=0, rounds=1)

    def test_index_out_of_range(self):
        perm = FeistelPermutation(10, seed=0)
        with pytest.raises(IndexError):
            perm[10]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=2000),
           st.integers(min_value=0, max_value=2**31))
    def test_bijection_property(self, n, seed):
        perm = FeistelPermutation(n, seed=seed)
        assert sorted(perm[i] for i in range(n)) == list(range(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 1024, 4097, 5000])
    def test_position_of_inverts_every_index(self, n):
        # 1024 fills its 2k-bit square exactly; the others cycle-walk.
        perm = FeistelPermutation(n, seed=7)
        assert [perm.position_of(perm[i]) for i in range(n)] \
            == list(range(n))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=5000),
           st.integers(min_value=0, max_value=2**31))
    def test_position_of_is_the_inverse(self, data, n, seed):
        perm = FeistelPermutation(n, seed=seed)
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert perm.position_of(perm[index]) == index
        assert perm[perm.position_of(index)] == index

    def test_position_of_out_of_range(self):
        perm = FeistelPermutation(10, seed=0)
        with pytest.raises(IndexError):
            perm.position_of(10)
        with pytest.raises(IndexError):
            perm.position_of(-1)


class TestMultiplicativeCycle:
    @pytest.mark.parametrize("n", [1, 2, 5, 31, 32, 100, 1024, 5000])
    def test_full_cycle_covers_domain(self, n):
        cycle = MultiplicativeCycle(n, seed=11)
        assert sorted(cycle) == list(range(n))

    def test_deterministic(self):
        a = list(MultiplicativeCycle(500, seed=4))
        b = list(MultiplicativeCycle(500, seed=4))
        assert a == b

    def test_seed_changes_order(self):
        assert list(MultiplicativeCycle(500, seed=4)) != \
            list(MultiplicativeCycle(500, seed=5))

    def test_not_sequential(self):
        values = list(MultiplicativeCycle(1000, seed=6))
        runs = sum(1 for a, b in zip(values, values[1:]) if b == a + 1)
        assert runs < 100

    def test_prime_exceeds_domain(self):
        cycle = MultiplicativeCycle(100, seed=1)
        assert cycle.p > 100

    def test_rejects_empty_domain(self):
        with pytest.raises(PermutationError):
            MultiplicativeCycle(0, seed=1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=3000),
           st.integers(min_value=0, max_value=2**31))
    def test_cover_property(self, n, seed):
        assert sorted(MultiplicativeCycle(n, seed=seed)) == list(range(n))


class TestShardSlicing:
    """Shard iterators must partition the full cycle *exactly* — the
    property the sharded scanner's byte-stable merge rests on."""

    def test_iter_shard_partitions_emissions(self):
        cycle = MultiplicativeCycle(1000, seed=7)
        full = list(cycle)
        shards = [list(cycle.iter_shard(i, 4)) for i in range(4)]
        # Disjoint and union-complete over emission indexes.
        emissions = [e for shard in shards for e, _ in shard]
        assert sorted(emissions) == list(range(len(full)))
        # Interleaving by emission index reconstructs __iter__'s order.
        merged = sorted((pair for shard in shards for pair in shard))
        assert [value for _, value in merged] == full

    def test_iter_shard_stride_residues(self):
        cycle = MultiplicativeCycle(200, seed=3)
        for index in range(3):
            assert all(e % 3 == index
                       for e, _ in cycle.iter_shard(index, 3))

    def test_iter_shard_single_shard_is_full_walk(self):
        cycle = MultiplicativeCycle(500, seed=9)
        assert [v for _, v in cycle.iter_shard(0, 1)] == list(cycle)

    def test_iter_shard_deterministic(self):
        a = list(MultiplicativeCycle(700, seed=5).iter_shard(2, 4))
        b = list(MultiplicativeCycle(700, seed=5).iter_shard(2, 4))
        assert a == b

    def test_iter_shard_rejects_bad_args(self):
        cycle = MultiplicativeCycle(10, seed=1)
        with pytest.raises(PermutationError):
            list(cycle.iter_shard(0, 0))
        with pytest.raises(PermutationError):
            list(cycle.iter_shard(4, 4))
        with pytest.raises(PermutationError):
            list(cycle.iter_shard(-1, 4))

    def test_split_steps_partitions_walk(self):
        cycle = MultiplicativeCycle(1000, seed=13)
        ranges = cycle.split_steps(5)
        # Contiguous, disjoint, union-complete over the group walk.
        assert ranges[0][0] == 0
        assert ranges[-1][1] == cycle.p - 1
        for (_, stop), (first, _) in zip(ranges, ranges[1:]):
            assert stop == first
        replayed = [value for first, stop in ranges
                    for _, value in cycle.iter_steps(first, stop)]
        assert replayed == list(cycle)

    def test_split_steps_handles_more_shards_than_steps(self):
        cycle = MultiplicativeCycle(2, seed=1)
        ranges = cycle.split_steps(50)
        assert len(ranges) == 50
        replayed = [value for first, stop in ranges
                    for _, value in cycle.iter_steps(first, stop)]
        assert replayed == list(cycle)

    def test_split_steps_rejects_nonpositive(self):
        with pytest.raises(PermutationError):
            MultiplicativeCycle(10, seed=1).split_steps(0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=2000),
           st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=9))
    def test_shard_partition_property(self, n, seed, num_shards):
        cycle = MultiplicativeCycle(n, seed=seed)
        pairs = sorted(pair for index in range(num_shards)
                       for pair in cycle.iter_shard(index, num_shards))
        full = list(cycle)
        assert [e for e, _ in pairs] == list(range(len(full)))
        assert [v for _, v in pairs] == full

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=2000),
           st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=9))
    def test_split_steps_partition_property(self, n, seed, num_shards):
        cycle = MultiplicativeCycle(n, seed=seed)
        replayed = [value for first, stop in cycle.split_steps(num_shards)
                    for _, value in cycle.iter_steps(first, stop)]
        assert replayed == list(cycle)
