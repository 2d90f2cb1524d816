"""Tests for write-traffic statistics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stats import (
    WriteTrafficStats,
    average_improvement,
    gini_coefficient,
    improvement_percent,
    normalized_stdev,
    write_histogram,
)

counts_lists = st.lists(
    st.integers(min_value=0, max_value=500), min_size=1, max_size=60
)


class TestWriteTrafficStats:
    def test_basic(self):
        stats = WriteTrafficStats.from_counts([0, 2, 4])
        assert stats.num_devices == 3
        assert stats.total_writes == 6
        assert stats.min_writes == 0
        assert stats.max_writes == 4
        assert stats.mean == 2.0
        assert math.isclose(stats.stdev, math.sqrt(8 / 3))

    def test_empty(self):
        stats = WriteTrafficStats.from_counts([])
        assert stats.num_devices == 0
        assert stats.stdev == 0.0

    def test_single_device(self):
        stats = WriteTrafficStats.from_counts([7])
        assert stats.stdev == 0.0
        assert stats.sample_stdev == 0.0

    @settings(max_examples=40, deadline=None)
    @given(counts=counts_lists)
    def test_matches_statistics_module(self, counts):
        import statistics

        stats = WriteTrafficStats.from_counts(counts)
        assert math.isclose(
            stats.stdev, statistics.pstdev(counts), abs_tol=1e-9
        )
        if len(counts) > 1:
            assert math.isclose(
                stats.sample_stdev, statistics.stdev(counts), abs_tol=1e-9
            )

    def test_improvement_over(self):
        base = WriteTrafficStats.from_counts([0, 10])  # stdev 5
        better = WriteTrafficStats.from_counts([4, 6])  # stdev 1
        assert math.isclose(improvement_percent(base.stdev, better.stdev), 80.0)
        flat = WriteTrafficStats.from_counts([3, 3])
        # zero baseline -> 0 by convention
        assert improvement_percent(flat.stdev, better.stdev) == 0.0

    def test_negative_improvement_possible(self):
        base = WriteTrafficStats.from_counts([4, 6])
        worse = WriteTrafficStats.from_counts([0, 10])
        assert improvement_percent(base.stdev, worse.stdev) < 0

    def test_describe(self):
        text = WriteTrafficStats.from_counts([1, 3]).describe()
        assert "1/3" in text and "2 devices" in text


class TestHelpers:
    def test_improvement_percent(self):
        assert improvement_percent(10.0, 5.0) == 50.0
        assert improvement_percent(0.0, 5.0) == 0.0
        assert improvement_percent(5.0, 10.0) == -100.0

    def test_average_improvement_matches_paper_semantics(self):
        # the paper averages per-benchmark percentages
        base = [10.0, 100.0]
        new = [5.0, 90.0]
        assert math.isclose(average_improvement(base, new), (50 + 10) / 2)

    def test_average_improvement_length_check(self):
        with pytest.raises(ValueError):
            average_improvement([1.0], [1.0, 2.0])
        assert average_improvement([], []) == 0.0

    def test_gini_extremes(self):
        assert gini_coefficient([5, 5, 5, 5]) == pytest.approx(0.0)
        skewed = gini_coefficient([100, 0, 0, 0])
        assert skewed > 0.7
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([0, 0]) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(counts=counts_lists)
    def test_gini_in_unit_interval(self, counts):
        g = gini_coefficient(counts)
        assert -1e-9 <= g <= 1.0

    def test_normalized_stdev(self):
        assert normalized_stdev([2, 2, 2]) == 0.0
        assert normalized_stdev([0, 0]) is None

    def test_write_histogram(self):
        hist = write_histogram([0, 1, 9, 9, 9], bins=5)
        assert sum(hist) == 5
        assert hist[-1] == 3
        assert write_histogram([], bins=4) == [0, 0, 0, 0]
        assert write_histogram([0, 0], bins=4)[0] == 2
