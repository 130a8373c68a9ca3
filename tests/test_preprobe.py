"""Proximity-span distance prediction (paper §3.3.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.preprobe import (
    PreprobeOutcome,
    clamp_distance,
    predict_distances,
)


def _full_loop_oracle(measured, num_prefixes, proximity_span):
    """The prediction rule as it was first written: visit every offset of
    the space, nearest measured neighbour first, the preceding one on a
    tie.  O(num_prefixes); the reference the sparse walk must equal."""
    if proximity_span <= 0 or not measured:
        return {}
    predicted = {}
    for offset in range(num_prefixes):
        if offset in measured:
            continue
        for delta in range(1, proximity_span + 1):
            left = measured.get(offset - delta)
            if left is not None:
                predicted[offset] = left
                break
            right = measured.get(offset + delta)
            if right is not None:
                predicted[offset] = right
                break
    return predicted


class TestPredictDistances:
    def test_spreads_both_directions(self):
        predicted = predict_distances({10: 15}, num_prefixes=21,
                                      proximity_span=5)
        assert set(predicted) == {5, 6, 7, 8, 9, 11, 12, 13, 14, 15}
        assert all(value == 15 for value in predicted.values())

    def test_clipped_at_space_edges(self):
        predicted = predict_distances({0: 9}, num_prefixes=3,
                                      proximity_span=5)
        assert set(predicted) == {1, 2}

    def test_nearest_neighbour_wins(self):
        predicted = predict_distances({0: 10, 10: 20}, num_prefixes=11,
                                      proximity_span=5)
        assert predicted[1] == 10
        assert predicted[9] == 20

    def test_tie_prefers_preceding_block(self):
        # Offset 5 is equidistant from 0 and 10; allocation is
        # left-to-right so the preceding block wins.
        predicted = predict_distances({0: 10, 10: 20}, num_prefixes=11,
                                      proximity_span=5)
        assert predicted[5] == 10

    def test_measured_prefixes_not_predicted(self):
        predicted = predict_distances({3: 7}, num_prefixes=10,
                                      proximity_span=5)
        assert 3 not in predicted

    def test_span_zero_predicts_nothing(self):
        assert predict_distances({5: 9}, 100, 0) == {}

    def test_empty_measured_predicts_nothing(self):
        assert predict_distances({}, 100, 5) == {}

    def test_gap_larger_than_span_not_covered(self):
        predicted = predict_distances({0: 8}, num_prefixes=20,
                                      proximity_span=3)
        assert 4 not in predicted
        assert 3 in predicted

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.integers(min_value=0, max_value=199),
                           st.integers(min_value=1, max_value=32),
                           max_size=40),
           st.integers(min_value=1, max_value=10))
    def test_all_predictions_come_from_a_span_neighbour(self, measured, span):
        predicted = predict_distances(measured, 200, span)
        for offset, value in predicted.items():
            neighbours = [measured[offset + delta]
                          for delta in range(-span, span + 1)
                          if offset + delta in measured]
            assert value in neighbours
            assert offset not in measured

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(min_value=-12, max_value=311),
                           st.integers(min_value=1, max_value=32),
                           max_size=60),
           st.integers(min_value=0, max_value=300),
           st.integers(min_value=-1, max_value=12))
    def test_equals_the_full_loop(self, measured, num_prefixes, span):
        """The sparse walk returns what a visit of every offset did, key
        order included (measured offsets may even lie off the space)."""
        expected = _full_loop_oracle(measured, num_prefixes, span)
        predicted = predict_distances(measured, num_prefixes, span)
        assert list(predicted.items()) == list(expected.items())

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.integers(min_value=0, max_value=99),
                           st.integers(min_value=1, max_value=32),
                           min_size=1, max_size=99),
           st.integers(min_value=1, max_value=8))
    def test_coverage_is_monotone_in_span(self, measured, span):
        smaller = predict_distances(measured, 100, span)
        larger = predict_distances(measured, 100, span + 1)
        assert set(smaller) <= set(larger)


class TestClampDistance:
    def test_in_range_passthrough(self):
        assert clamp_distance(17, 32) == 17

    def test_clamps_to_max(self):
        assert clamp_distance(50, 32) == 32

    def test_rejects_nonpositive(self):
        assert clamp_distance(0, 32) is None
        assert clamp_distance(-3, 32) is None


class TestPreprobeOutcome:
    def test_coverage(self):
        outcome = PreprobeOutcome(measured={0: 5}, predicted={1: 5, 2: 5})
        assert outcome.coverage(10) == pytest.approx(0.3)

    def test_coverage_empty_space(self):
        assert PreprobeOutcome().coverage(0) == 0.0

    def test_distance_for_prefers_measured(self):
        outcome = PreprobeOutcome(measured={0: 5}, predicted={0: 9, 1: 9})
        assert outcome.distance_for(0) == 5
        assert outcome.distance_for(1) == 9
        assert outcome.distance_for(2) is None
