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

