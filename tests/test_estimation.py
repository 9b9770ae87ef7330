import tracemalloc

import numpy as np
import pytest

from specdist import (
    EstimationError,
    TimeSeries,
    geodesic_distance,
    make_grid,
    periodogram,
    welch,
)

from specdist.estimation import _SEGMENT_BLOCK
from specdist.grid import _transform_power

from oracles import ar1_path, dense_welch_power, naive_dtft_power


class TestTimeSeries:
    def test_accepts_lists(self):
        ts = TimeSeries([1.0, 2.0, 3.0])
        assert len(ts) == 3

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="at least 2"):
            TimeSeries([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"samples\[1\]"):
            TimeSeries([1.0, np.nan, 2.0])

    def test_samples_are_immutable(self):
        ts = TimeSeries(np.arange(4.0))
        with pytest.raises(ValueError):
            ts.samples[0] = 9.0


class TestPeriodogram:
    def test_impulse_is_flat(self):
        length = 32
        x = np.zeros(length)
        x[0] = 1.0
        psd = periodogram(TimeSeries(x), make_grid(length))
        np.testing.assert_allclose(psd.values, 1.0 / length, rtol=1e-12)

    def test_constant_concentrates_at_zero_frequency(self):
        length = 64
        grid = make_grid(length)
        psd = periodogram(TimeSeries(np.full(length, 2.0)), grid)
        zero_bin = length // 2  # theta = 0
        assert psd.values[zero_bin] == pytest.approx(length * 4.0, rel=1e-10)
        others = np.delete(psd.values, zero_bin)
        assert others.max() <= 1e-9 * psd.values[zero_bin]

    def test_matches_direct_transform(self):
        rng = np.random.default_rng(60)
        x = rng.standard_normal(23)
        for n in (16, 23, 64):  # shorter, equal and longer grids
            psd = periodogram(TimeSeries(x), make_grid(n))
            np.testing.assert_allclose(
                psd.values, naive_dtft_power(x, n) / len(x), rtol=1e-9, atol=1e-12
            )

    def test_preserves_total_power(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal(200)
        psd = periodogram(TimeSeries(x), make_grid(256))
        assert np.mean(psd.values) == pytest.approx(np.mean(x * x), rel=1e-12)

    @pytest.mark.parametrize("length", [2, 3, 8, 100, 4096, 5000, 20000])
    @pytest.mark.parametrize("n", [8, 64, 4096])
    def test_is_the_scaled_transform_power_bitwise(self, length, n):
        x = np.random.default_rng(length + n).standard_normal(length)
        expected = _transform_power(x, n) / length
        psd = periodogram(TimeSeries(x), make_grid(n))
        np.testing.assert_array_equal(psd.values.view(np.uint64), expected.view(np.uint64))

    def test_zero_signal_fails_estimation(self):
        with pytest.raises(EstimationError, match="^periodogram is not a valid density"):
            periodogram(TimeSeries(np.zeros(16)), make_grid(16))


class TestWelch:
    def test_single_rectangular_segment_is_the_periodogram(self):
        rng = np.random.default_rng(62)
        x = rng.standard_normal(128)
        grid = make_grid(256)
        ts = TimeSeries(x)
        w = welch(ts, segment=128, overlap=0.0, window="rectangular", grid=grid)
        p = periodogram(ts, grid)
        np.testing.assert_array_equal(w.values.view(np.uint64), p.values.view(np.uint64))

    @pytest.mark.parametrize(
        "segments",
        [1, _SEGMENT_BLOCK - 1, _SEGMENT_BLOCK, _SEGMENT_BLOCK + 1, 2 * _SEGMENT_BLOCK + 1],
    )
    @pytest.mark.parametrize("segment,n", [(16, 16), (16, 17), (40, 17), (64, 32)])
    def test_is_the_mean_of_dense_segment_transforms(self, segments, segment, n):
        # odd and even grids, segments folded onto a shorter grid, and
        # segment counts on both sides of the block size
        hop = segment // 2
        x = np.random.default_rng(segments * n + segment).standard_normal(
            segment + (segments - 1) * hop
        )
        psd = welch(TimeSeries(x), segment, 0.5, "hann", make_grid(n))
        ref = dense_welch_power(x, segment, hop, n)
        np.testing.assert_allclose(psd.values, ref, rtol=1e-12, atol=1e-12 * ref.max())

    @pytest.mark.parametrize(
        "segment,overlap,hop,length",
        [(10, 0.9, 1, 90), (30, 0.9, 3, 90), (100, 0.55, 45, 400), (20, 0.3, 14, 100)],
    )
    def test_hop_is_that_of_the_decimal_overlap(self, segment, overlap, hop, length):
        # segment * (1 - overlap) falls just below an integer in binary
        # floating point for the first three, so a bare floor loses a sample
        x = np.random.default_rng(segment).standard_normal(length)
        psd = welch(TimeSeries(x), segment, overlap, "rectangular", make_grid(32))
        np.testing.assert_allclose(
            psd.values, dense_welch_power(x, segment, hop, 32, window=np.ones(segment)), rtol=1e-12
        )

    def test_welch_holds_a_few_blocks_of_scratch_memory(self):
        # 1023 segments of 512 samples on 4096 nodes: the whole batch of
        # transforms would take over 30 MiB
        ts = TimeSeries(np.random.default_rng(66).standard_normal(1 << 18))
        grid = make_grid(4096)
        tracemalloc.start()
        try:
            welch(ts, 512, 0.5, "hann", grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_white_noise_level(self):
        rng = np.random.default_rng(63)
        ts = TimeSeries(rng.standard_normal(1 << 14))
        grid = make_grid(1024)
        psd = welch(ts, segment=256, overlap=0.5, window="hann", grid=grid)
        assert abs(np.mean(psd.values) - 1.0) < 0.1

    def test_averaging_reduces_variance(self):
        rng = np.random.default_rng(64)
        ts = TimeSeries(rng.standard_normal(1 << 14))
        grid = make_grid(512)
        raw = periodogram(ts, grid)
        avg = welch(ts, segment=512, overlap=0.5, window="hann", grid=grid)
        assert np.var(avg.values) < 0.2 * np.var(raw.values)

    def test_short_segment_is_rejected(self):
        ts = TimeSeries(np.ones(64))
        with pytest.raises(ValueError, match=">= 8"):
            welch(ts, segment=4, overlap=0.0, window="hann", grid=make_grid(64))

    def test_segment_longer_than_series_is_rejected(self):
        ts = TimeSeries(np.ones(64))
        with pytest.raises(ValueError, match="exceeds"):
            welch(ts, segment=128, overlap=0.0, window="hann", grid=make_grid(64))

    @pytest.mark.parametrize("overlap", [-0.1, 1.0, 1.5])
    def test_overlap_domain(self, overlap):
        ts = TimeSeries(np.ones(64))
        with pytest.raises(ValueError, match="overlap"):
            welch(ts, segment=16, overlap=overlap, window="hann", grid=make_grid(64))

    def test_vanishing_hop_is_rejected(self):
        rng = np.random.default_rng(65)
        ts = TimeSeries(rng.standard_normal(64))
        with pytest.raises(ValueError, match="hop"):
            welch(ts, segment=8, overlap=0.95, window="hann", grid=make_grid(64))

    def test_zero_signal_fails_estimation(self):
        with pytest.raises(EstimationError, match="^Welch estimate is not a valid density"):
            welch(TimeSeries(np.zeros(64)), 16, 0.5, "hann", make_grid(16))

    def test_unknown_window_is_rejected(self):
        ts = TimeSeries(np.ones(64))
        with pytest.raises(ValueError, match="window"):
            welch(ts, segment=16, overlap=0.0, window="hamming", grid=make_grid(64))

    @pytest.mark.parametrize(
        "level,reason",
        # the squared transforms overflow; at 1.7e308 the transforms do, to inf - inf
        [(1e200, "the density exceeds the double range"), (1.7e308, "the density exceeds the double range")],
        ids=["squares", "transforms"],
    )
    def test_estimate_past_the_double_range_fails_estimation(self, level, reason):
        samples = np.random.default_rng(12).choice([level, -level], 64)
        with pytest.raises(EstimationError, match=f"^Welch estimate is not a valid density: {reason}"):
            welch(TimeSeries(samples), 16, 0.5, "hann", make_grid(32))


class TestPipeline:
    """Estimates feed the metric: nearby processes measure close, distinct
    processes measure far."""

    def estimate(self, a, seed, length=1 << 15):
        rng = np.random.default_rng(seed)
        ts = TimeSeries(ar1_path(a, 1.0, length, rng))
        return welch(ts, segment=512, overlap=0.5, window="hann", grid=make_grid(1024))

    def test_same_process_measures_close(self):
        d = geodesic_distance(self.estimate(0.5, seed=1), self.estimate(0.5, seed=2))
        assert d < 0.2

    def test_distinct_processes_measure_far(self):
        same = geodesic_distance(self.estimate(0.5, seed=3), self.estimate(0.5, seed=4))
        different = geodesic_distance(self.estimate(0.5, seed=3), self.estimate(-0.5, seed=4))
        assert different >= 3.0 * same

    def test_more_data_brings_estimates_closer(self):
        short = geodesic_distance(
            self.estimate(0.5, seed=5, length=1 << 12),
            self.estimate(0.5, seed=6, length=1 << 12),
        )
        long = geodesic_distance(
            self.estimate(0.5, seed=5, length=1 << 16),
            self.estimate(0.5, seed=6, length=1 << 16),
        )
        assert long < short
