"""Virtual clock, response queue, probe log, rate limiter, latency model."""

import pytest
from hypothesis import given, strategies as st

from repro.net.icmp import IcmpResponse, ResponseKind
from repro.net.packets import ProbeHeader
from repro.simnet.engine import ProbeLog, ResponseQueue, VirtualClock
from repro.simnet.latency import LatencyModel, jitter_fraction
from repro.simnet.ratelimit import IcmpRateLimiter


def _response(arrival):
    quoted = ProbeHeader(src=0, dst=1, ttl=1, ipid=0)
    return IcmpResponse(kind=ResponseKind.TTL_EXCEEDED, responder=2,
                        quoted=quoted, arrival_time=arrival,
                        quoted_residual_ttl=1)


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        clock.advance(1.5)
        assert clock.now == pytest.approx(1.5)

    def test_advance_to_future(self):
        clock = VirtualClock(2.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_advance_to_past_is_noop(self):
        clock = VirtualClock(2.0)
        clock.advance_to(1.0)
        assert clock.now == 2.0

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestResponseQueue:
    def test_pops_in_arrival_order(self):
        queue = ResponseQueue()
        queue.push(_response(3.0))
        queue.push(_response(1.0))
        queue.push(_response(2.0))
        times = [r.arrival_time for r in queue.pop_until(10.0)]
        assert times == [1.0, 2.0, 3.0]

    def test_pop_until_respects_deadline(self):
        queue = ResponseQueue()
        queue.push(_response(1.0))
        queue.push(_response(5.0))
        assert len(list(queue.pop_until(2.0))) == 1
        assert len(queue) == 1

    def test_ties_preserve_insertion_order(self):
        queue = ResponseQueue()
        first = _response(1.0)
        second = _response(1.0)
        queue.push(first)
        queue.push(second)
        popped = list(queue.pop_until(1.0))
        assert popped[0] is first and popped[1] is second

    def test_drain_empties(self):
        queue = ResponseQueue()
        for arrival in (4.0, 2.0, 9.0):
            queue.push(_response(arrival))
        assert [r.arrival_time for r in queue.drain()] == [2.0, 4.0, 9.0]
        assert len(queue) == 0


class TestProbeLog:
    def test_round_trip(self):
        log = ProbeLog()
        log.append(0.5, 0x14000001, 7)
        log.append(1.5, 0x14000002, 32)
        assert list(log) == [(0.5, 0x14000001, 7), (1.5, 0x14000002, 32)]

    def test_len(self):
        log = ProbeLog()
        for i in range(10):
            log.append(float(i), i, 1)
        assert len(log) == 10

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=255)), max_size=50))
    def test_packing_lossless(self, entries):
        log = ProbeLog()
        for send_time, dst, ttl in entries:
            log.append(send_time, dst, ttl)
        assert list(log) == entries


class TestRateLimiter:
    def test_allows_up_to_limit(self):
        limiter = IcmpRateLimiter(3, num_interfaces=8)
        assert [limiter.allow(1, 0.1) for _ in range(5)] == \
            [True, True, True, False, False]

    def test_bins_align_to_whole_seconds(self):
        limiter = IcmpRateLimiter(1, num_interfaces=8)
        assert limiter.allow(1, 0.9)
        assert not limiter.allow(1, 0.99)
        assert limiter.allow(1, 1.01)

    def test_interfaces_independent(self):
        limiter = IcmpRateLimiter(1, num_interfaces=8)
        assert limiter.allow(1, 0.0)
        assert limiter.allow(2, 0.0)

    def test_dropped_counter(self):
        limiter = IcmpRateLimiter(2, num_interfaces=8)
        for _ in range(5):
            limiter.allow(7, 0.0)
        assert limiter.dropped == 3
        assert limiter.overprobed_interfaces == frozenset({7})

    def test_reset(self):
        limiter = IcmpRateLimiter(1, num_interfaces=8)
        limiter.allow(1, 0.0)
        limiter.allow(1, 0.0)
        limiter.reset()
        assert limiter.dropped == 0
        assert limiter.allow(1, 0.0)

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            IcmpRateLimiter(0, num_interfaces=8)


class TestLatencyModel:
    def test_round_trip_scales_with_depth(self):
        model = LatencyModel(hop_latency=0.002, jitter_span=0.0)
        assert model.round_trip(10, 1, 1) > model.round_trip(2, 1, 1)

    def test_one_way_is_half_ish(self):
        model = LatencyModel(hop_latency=0.002, jitter_span=0.0)
        assert model.one_way(8, 1, 1) == pytest.approx(
            model.round_trip(8, 1, 1) / 2)

    def test_deterministic(self):
        model = LatencyModel(0.002, 0.004)
        assert model.round_trip(5, 99, 7) == model.round_trip(5, 99, 7)

    def test_jitter_fraction_in_range(self):
        for dst in range(0, 1000, 37):
            assert 0.0 <= jitter_fraction(dst, 5) < 1.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LatencyModel(0.0, 0.0)
        with pytest.raises(ValueError):
            LatencyModel(0.001, -1.0)
