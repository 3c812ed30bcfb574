"""Unit tests for the log2-bucketed streaming histograms."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.histogram import (
    BUCKET_ARRAY_SIZE,
    BUCKET_OFFSET,
    LatencyHistogram,
    bucket_array,
    bucket_bounds,
    bucket_index,
)


class TestBuckets:
    def test_powers_of_two_open_their_bucket(self):
        # Bucket e covers [2**(e-1), 2**e); an exact power of two is
        # the inclusive lower bound.
        assert bucket_index(1.0) == 1
        assert bucket_index(0.5) == 0
        assert bucket_index(2.0) == 2

    def test_bounds_invert_index(self):
        for value in (1e-9, 3.7e-3, 0.01, 1.0, 42.0):
            low, high = bucket_bounds(bucket_index(value))
            assert low <= value < high

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            bucket_index(0.0)
        with pytest.raises(ValueError):
            bucket_index(-1.0)

    def test_flat_array_offset_covers_all_finite_doubles(self):
        # The kernel hot path indexes a flat list by exponent + offset;
        # the extremes of the double range must stay in bounds.
        tiny = 5e-324
        huge = 1.7e308
        array = bucket_array()
        for value in (tiny, huge):
            index = math.frexp(value)[1] + BUCKET_OFFSET
            array[index] += 1
        assert sum(array) == 2


class TestLatencyHistogram:
    def test_add_and_views(self):
        hist = LatencyHistogram()
        for value in (0.0, 0.01, 0.01, 0.02, 1.5):
            hist.add(value)
        assert hist.count == 5
        assert hist.zeros == 1
        assert hist.mean == pytest.approx(1.54 / 5)
        assert sum(count for _, count in hist.nonzero_items()) == 4

    def test_add_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyHistogram().add(-0.1)

    def test_quantiles_report_upper_bucket_bound(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.add(0.01)
        hist.add(100.0)
        assert hist.quantile(0.5) == bucket_bounds(bucket_index(0.01))[1]
        assert hist.quantile(1.0) == \
            bucket_bounds(bucket_index(100.0))[1]
        assert LatencyHistogram().quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_zeros_dominate_low_quantiles(self):
        hist = LatencyHistogram()
        for _ in range(9):
            hist.add(0.0)
        hist.add(1.0)
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.99) > 0.0

    def test_from_bucket_array_strips_empty_buckets(self):
        array = bucket_array()
        array[bucket_index(0.01) + BUCKET_OFFSET] = 3
        hist = LatencyHistogram.from_bucket_array(array, zeros=2,
                                                  total=0.03)
        assert hist.buckets == {bucket_index(0.01): 3}
        assert hist.count == 5

    @given(st.dictionaries(
        st.integers(min_value=0, max_value=BUCKET_ARRAY_SIZE - 1),
        st.integers(min_value=0, max_value=10**12), max_size=40))
    def test_from_bucket_array_matches_dense_scan(self, entries):
        array = bucket_array()
        for index, count in entries.items():
            array[index] = count
        dense = {index - BUCKET_OFFSET: count
                 for index, count in enumerate(array) if count}
        buckets = LatencyHistogram.from_bucket_array(array).buckets
        assert list(buckets.items()) == list(dense.items())

    def test_merge_sums_unequal_bucket_sets(self):
        a = LatencyHistogram()
        a.add(0.01)
        a.add(0.0)
        b = LatencyHistogram()
        b.add(100.0)
        b.add(0.01)
        merged = LatencyHistogram.merge([a, b])
        assert merged.count == 4
        assert merged.zeros == 1
        assert merged.buckets[bucket_index(0.01)] == 2
        assert merged.buckets[bucket_index(100.0)] == 1
        assert merged.total == pytest.approx(100.02)

    def test_merge_of_nothing_is_empty(self):
        merged = LatencyHistogram.merge([])
        assert merged.count == 0
        assert merged.mean == 0.0

    def test_dict_round_trip(self):
        hist = LatencyHistogram()
        for value in (0.0, 3e-4, 0.25, 7.0):
            hist.add(value)
        data = hist.as_dict()
        back = LatencyHistogram.from_dict(data)
        assert back == hist
        assert all(isinstance(key, str) for key in data["buckets"])

    def test_from_dict_of_nothing(self):
        assert LatencyHistogram.from_dict(None).count == 0
        assert LatencyHistogram.from_dict({}).count == 0
