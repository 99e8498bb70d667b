"""Tests for temporal histograms."""

import numpy as np
import pytest

from repro.counters import TemporalHistogram, log2_histogram


class TestLinearHistogram:
    def test_bin_count(self):
        assert TemporalHistogram.linear(80, 10).bins == 10

    def test_add_places_values(self):
        histogram = TemporalHistogram.linear(10, 10)
        histogram.add(0)
        histogram.add(1)
        histogram.add(10)
        assert histogram.counts[0] == 2  # 0 and 1 land in (<=1)
        assert histogram.counts[-1] == 1

    def test_overflow_clamps_to_last_bin(self):
        histogram = TemporalHistogram.linear(10, 5)
        histogram.add(99)
        assert histogram.counts[-1] == 1

    def test_total_counts_cycles(self):
        histogram = TemporalHistogram.linear(16, 4)
        for value in (0, 3, 7, 12, 16):
            histogram.add(value)
        assert histogram.total == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalHistogram.linear(0, 4)
        with pytest.raises(ValueError):
            TemporalHistogram.linear(10, 0)


class TestLog2Histogram:
    def test_edges_are_powers_of_two(self):
        histogram = TemporalHistogram.log2(1024)
        assert histogram.edges[0] == 1
        assert histogram.edges[-1] == 1024

    def test_distance_placement(self):
        histogram = TemporalHistogram.log2(64)
        histogram.add(1)
        histogram.add(3)
        histogram.add(64)
        assert histogram.counts[0] == 1  # d=1
        assert histogram.counts[2] == 1  # d=3 in (2,4]
        assert histogram.counts[-1] == 1

    def test_cold_events(self):
        histogram = TemporalHistogram.log2(64)
        histogram.add(-1)
        histogram.add(-1)
        assert histogram.cold == 2
        assert histogram.total == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalHistogram.log2(1)


class TestBulkAndStats:
    def test_add_many_matches_add(self):
        values = np.array([-1, 0, 1, 5, 9, 100, 3])
        one = TemporalHistogram.log2(64)
        two = TemporalHistogram.log2(64)
        for v in values:
            one.add(int(v))
        two.add_many(values)
        assert (one.counts == two.counts).all()
        assert one.cold == two.cold

    @pytest.mark.parametrize("maximum, bins", [(10, 10), (48, 10), (6, 7),
                                               (128, 16)])
    def test_add_counts_matches_add_many(self, maximum, bins):
        # Counts per value 0..maximum+2: values past the last edge clamp.
        counts = np.random.default_rng(maximum).integers(
            0, 10**6, size=maximum + 3)
        expected = TemporalHistogram.linear(maximum, bins)
        expected.add_many(np.repeat(np.arange(len(counts)), counts))
        histogram = TemporalHistogram.linear(maximum, bins)
        histogram.add_counts(counts.tolist())
        assert histogram.counts.dtype == np.int64
        assert histogram.counts.tolist() == expected.counts.tolist()
        assert histogram.cold == 0

    def test_normalized_sums_to_one(self):
        histogram = log2_histogram(np.array([1, 2, 4, 8, 100]), 256)
        assert histogram.normalized().sum() == pytest.approx(1.0)

    def test_normalized_empty_is_zero(self):
        histogram = TemporalHistogram.log2(64)
        assert histogram.normalized().sum() == 0.0

    def test_normalized_with_cold(self):
        histogram = TemporalHistogram.log2(64)
        histogram.add(-1)
        histogram.add(4)
        values = histogram.normalized(include_cold=True)
        assert values[-1] == pytest.approx(0.5)

    def test_mean_approximates(self):
        histogram = TemporalHistogram.linear(100, 100)
        for v in (10, 20, 30):
            histogram.add(v)
        assert histogram.mean() == pytest.approx(20, abs=2)

    def test_quantile_edge(self):
        histogram = TemporalHistogram.linear(100, 10)
        for v in [5] * 90 + [95] * 10:
            histogram.add(v)
        assert histogram.quantile_edge(0.5) == pytest.approx(10.0)
        assert histogram.quantile_edge(0.99) == pytest.approx(100.0)

    def test_quantile_validation(self):
        histogram = TemporalHistogram.linear(10, 2)
        with pytest.raises(ValueError):
            histogram.quantile_edge(0.0)
        assert histogram.quantile_edge(0.5) == 0.0  # empty histogram
