"""Direct unit tests for :class:`IcmpRateLimiter`.

The one-second-bin semantics were previously only exercised indirectly
through full scans; these pin them down at the unit level — in particular
bin rollover at whole-second boundaries and the generation-counter reset
(a reset between scans must clear *all* accounting, including a partially
filled bin mid-second).
"""

from __future__ import annotations

import pytest

from repro.simnet.ratelimit import _MAX_GENERATION, IcmpRateLimiter


def _limiter(limit):
    return IcmpRateLimiter(limit, num_interfaces=8)


class TestBinAccounting:
    def test_first_limit_requests_pass_then_drop(self):
        limiter = _limiter(3)
        results = [limiter.allow(0, 0.5) for _ in range(5)]
        assert results == [True, True, True, False, False]
        assert limiter.dropped == 2
        assert limiter.overprobed_interfaces == frozenset({0})

    def test_interfaces_are_independent(self):
        limiter = _limiter(1)
        assert limiter.allow(0, 0.1)
        assert limiter.allow(1, 0.1)
        assert not limiter.allow(0, 0.2)
        assert limiter.overprobed_interfaces == frozenset({0})

    def test_rollover_at_whole_second_boundary(self):
        limiter = _limiter(2)
        # Fill the [0, 1) bin to the brim.
        assert limiter.allow(0, 0.0)
        assert limiter.allow(0, 0.999999)
        assert not limiter.allow(0, 0.9999999)
        # Crossing t=1.0 opens a fresh bin: counting restarts.
        assert limiter.allow(0, 1.0)
        assert limiter.allow(0, 1.5)
        assert not limiter.allow(0, 1.9)
        # Bins align to whole seconds, not to the first request:
        # 2.7 -> bin 2 even though the last bin started at exactly 1.0.
        assert limiter.allow(0, 2.7)
        assert limiter.dropped == 2

    def test_bins_align_to_virtual_seconds_not_elapsed_time(self):
        limiter = _limiter(1)
        assert limiter.allow(0, 41.9)
        # Only 0.2s later, but in the next whole-second bin.
        assert limiter.allow(0, 42.1)
        # Same bin as the previous request: over the limit.
        assert not limiter.allow(0, 42.8)

    def test_interface_beyond_the_topology_is_an_error(self):
        """The store is one slot per interface of the topology; there is
        no second store for an id beyond it."""
        limiter = IcmpRateLimiter(1, num_interfaces=2)
        with pytest.raises(IndexError):
            limiter.allow(100, 0.1)
        assert limiter.dropped == 0
        assert limiter.overprobed_interfaces == frozenset()

    def test_rejects_non_positive_limit(self):
        with pytest.raises(ValueError):
            IcmpRateLimiter(0, num_interfaces=8)


class TestReset:
    def test_reset_clears_partial_bin_mid_second(self):
        limiter = _limiter(2)
        # Partially fill (and overflow) the bin at second 5.
        limiter.allow(3, 5.1)
        limiter.allow(3, 5.2)
        assert not limiter.allow(3, 5.3)
        limiter.reset()
        # Same interface, same virtual second: a fresh scan gets the
        # full budget again — stale bins must not leak through.
        assert limiter.allow(3, 5.4)
        assert limiter.allow(3, 5.5)
        assert not limiter.allow(3, 5.6)

    def test_reset_clears_counters_and_overprobed(self):
        limiter = _limiter(1)
        limiter.allow(0, 0.1)
        limiter.allow(0, 0.2)
        assert limiter.dropped == 1
        assert limiter.overprobed_interfaces == frozenset({0})
        limiter.reset()
        assert limiter.dropped == 0
        assert limiter.overprobed_interfaces == frozenset()

    def test_repeated_resets_stay_correct(self):
        limiter = _limiter(1)
        for _ in range(5):
            assert limiter.allow(2, 9.5)
            assert not limiter.allow(2, 9.6)
            limiter.reset()

    def test_reset_takes_a_new_limit(self):
        limiter = _limiter(1)
        limiter.reset(3)
        assert [limiter.allow(2, 9.5) for _ in range(4)] == \
            [True, True, True, False]
        with pytest.raises(ValueError):
            limiter.reset(0)

    def test_generation_restarts_before_stamps_overflow(self):
        """A limiter reused by session after session resets without
        bound; once a generation's tokens would no longer fit a stamp, the
        stamps are zeroed and the generation starts over."""
        limiter = _limiter(1)
        limiter._generation = _MAX_GENERATION - 3
        limiter.reset()
        assert limiter.allow(4, 7.5)  # the largest token still fits
        assert not limiter.allow(4, 7.6)
        limiter.reset()
        assert limiter._generation == 0
        assert limiter.allow(4, 7.7)
        assert not limiter.allow(4, 7.8)
