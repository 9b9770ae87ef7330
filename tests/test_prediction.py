import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specdist import (
    Autocovariance,
    DegenerateCovarianceError,
    PredictorCoeffs,
    autocov_from_psd,
    degraded_variance,
    geometric_mean,
    levinson,
    make_grid,
    prediction_ratio,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
    rho_empirical,
)

from conftest import stable_ar_coeffs
from oracles import (
    BESSEL_I1_1,
    dense_cosine_autocov,
    fold_then_divide_autocov,
    naive_toeplitz_predictor,
    reference_mean,
)


def random_even_spectrum(rng, grid, degree=6):
    """Strictly positive cosine polynomial (even symmetric by construction)."""
    offset = float(np.exp(rng.uniform(-1.0, 1.0)))
    a = rng.normal(size=degree)
    scale = rng.uniform(0.1, 0.9) * offset / np.abs(a).sum()
    k = np.arange(1, degree + 1)
    values = offset + (scale * a) @ np.cos(np.outer(k, grid.nodes))
    return psd_from_samples(grid, values)


class TestAutocovariance:
    def test_white_noise(self, grid1024):
        acv = autocov_from_psd(psd_constant(grid1024, 1.0), 5)
        assert acv.lags[0] == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(acv.lags[1:], 0.0, atol=1e-14)

    def test_first_order_model(self, ar_half):
        acv = autocov_from_psd(ar_half, 6)
        expected = (4.0 / 3.0) * 0.5 ** np.arange(7)
        np.testing.assert_allclose(acv.lags, expected, rtol=1e-12)

    def test_against_reference_quadrature(self, ar_half):
        acv = autocov_from_psd(ar_half, 3)
        for k in range(4):
            ref = reference_mean(lambda t, k=k: np.cos(k * t) / (1.25 - np.cos(t)))
            assert acv.lags[k] == pytest.approx(ref, rel=1e-12)

    def test_exponential_first_lag_is_bessel(self, expcos):
        acv = autocov_from_psd(expcos, 1)
        assert acv.lags[1] == pytest.approx(BESSEL_I1_1, rel=1e-13)

    def test_asymmetric_density_is_rejected(self, grid1024):
        values = np.exp(np.sin(grid1024.nodes))
        f = psd_from_samples(grid1024, values)
        with pytest.raises(ValueError, match="even-symmetric"):
            autocov_from_psd(f, 4)

    def test_aliasing_guard(self, grid64, ar_half):
        f = psd_from_ar([0.5], 1.0, grid64)
        with pytest.raises(ValueError, match="max_lag"):
            autocov_from_psd(f, 32)

    def test_sequence_invariants_are_enforced(self, grid64):
        with pytest.raises(ValueError, match="c_0"):
            Autocovariance(lags=np.array([-1.0, 0.0]))
        with pytest.raises(ValueError, match="c_0"):
            Autocovariance(lags=np.array([1.0, 2.0]))


# Odd and even n, the smallest grids, and the benchmark's n with its odd neighbour.
FOLD_SIZES = [2, 3, 7, 8, 64, 4095, 4096]


@st.composite
def even_spectra(draw):
    """Nonnegative densities with f(theta_j) = f(-theta_j) exactly: samples on
    the nodes of [-pi, 0], mirrored onto (0, pi)."""
    n = draw(st.sampled_from(FOLD_SIZES))
    head = draw(arrays(np.float64, n // 2 + 1, elements=st.floats(0.0, 1e6)))
    assume(head.any())
    return psd_from_samples(make_grid(n), np.concatenate((head, head[1 : (n + 1) // 2][::-1])))


def _dense_lags(f, max_lag, block=256):
    # the dense table a block of lags at a time, to keep n = 4096 small
    return np.concatenate(
        [
            dense_cosine_autocov(f.values, f.grid.nodes, np.arange(k, min(k + block, max_lag + 1)))
            for k in range(0, max_lag + 1, block)
        ]
    )


class TestFoldedQuadrature:
    """autocov_from_psd sums over [-pi, 0] with each sample added to its
    mirror; the dense table over every node is the reference."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(f=even_spectra())
    def test_fold_matches_the_dense_table(self, f):
        n = f.grid.n
        max_lag = (n - 1) // 2
        folded = autocov_from_psd(f, max_lag).lags
        dense = _dense_lags(f, max_lag)
        c0 = dense[0]
        # The dense table takes cos(k theta) at the node theta_{n-j}, which
        # misses -theta_j by up to an ulp of pi, where the fold uses theta_j
        # for both; on a density concentrated at one pair of nodes that alone
        # moves c_k by up to c_0 * k * |theta_j + theta_{n-j}| / 2.
        nodes = f.grid.nodes
        asymmetry = np.abs(nodes[1 : (n + 1) // 2] + nodes[: n // 2 : -1]).max(initial=0.0)
        ks = np.arange(max_lag + 1)
        bound = c0 * (1e-13 + ks * asymmetry / 2)
        assert np.all(np.abs(folded - dense) <= bound)

    @pytest.mark.parametrize("n", FOLD_SIZES)
    def test_smooth_densities_agree_to_1e_13_of_c0(self, n):
        rng = np.random.default_rng(n)
        grid = make_grid(n)
        max_lag = (n - 1) // 2
        smooth = [psd_from_ar([0.5], 1.0, grid), psd_from_samples(grid, np.exp(np.cos(grid.nodes)))]
        for f in smooth + [random_even_spectrum(rng, grid) for _ in range(3)]:
            dense = _dense_lags(f, max_lag)
            folded = autocov_from_psd(f, max_lag).lags
            assert np.all(np.abs(folded - dense) <= 1e-13 * dense[0])

    @pytest.mark.parametrize("p", [16, 64, 256, 512])
    def test_dividing_by_n_first_keeps_the_bits_at_a_power_of_two(self, grid4096, expcos, p):
        rng = np.random.default_rng(p)
        for f in (expcos, psd_from_ar(stable_ar_coeffs(rng, 6), 1.3, grid4096)):
            reference = fold_then_divide_autocov(f.values, grid4096.nodes, p)
            np.testing.assert_array_equal(autocov_from_psd(f, p).lags, reference)

    def test_lags_near_the_top_of_the_double_range(self, grid64):
        unit = autocov_from_psd(psd_from_ar([0.9], 1.0, grid64), 8).lags
        huge = autocov_from_psd(psd_from_ar([0.9], 1e306, grid64), 8).lags
        np.testing.assert_allclose(huge, 1e306 * unit, rtol=1e-15, atol=0.0)
        flat = autocov_from_psd(psd_constant(grid64, 1.7e308), 8).lags
        assert flat[0] == pytest.approx(1.7e308, rel=1e-15, abs=0.0)

    def test_peak_memory_is_one_half_size_table(self, ar_half):
        # the dense route held two (p+1) x n tables, over three times this bound
        n, p = ar_half.grid.n, 512
        tracemalloc.start()
        try:
            autocov_from_psd(ar_half, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (p + 1) * (n // 2 + 1) * 8


class TestLevinson:
    def test_white_noise_predicts_nothing(self, grid1024):
        acv = Autocovariance(lags=np.array([1.0, 0.0, 0.0, 0.0]))
        pred = levinson(acv, 3)
        np.testing.assert_array_equal(pred.coeffs, np.zeros(3))
        assert pred.attained_variance == 1.0

    def test_first_order_fit_recovers_the_model(self, ar_half):
        pred = levinson(autocov_from_psd(ar_half, 4), 1)
        assert pred.coeffs[0] == pytest.approx(0.5, rel=1e-12)
        assert pred.attained_variance == pytest.approx(1.0, rel=1e-12)

    def test_higher_orders_add_nothing_for_low_order_models(self, ar_half):
        pred = levinson(autocov_from_psd(ar_half, 4), 2)
        assert pred.coeffs[0] == pytest.approx(0.5, rel=1e-12)
        assert pred.coeffs[1] == pytest.approx(0.0, abs=1e-12)
        assert pred.attained_variance == pytest.approx(1.0, rel=1e-12)

    def test_matches_dense_toeplitz_solve(self, grid1024):
        rng = np.random.default_rng(50)
        for _ in range(10):
            f = random_even_spectrum(rng, grid1024)
            acv = autocov_from_psd(f, 8)
            pred = levinson(acv, 8)
            coeffs, variance = naive_toeplitz_predictor(acv.lags, 8)
            np.testing.assert_allclose(pred.coeffs, coeffs, rtol=1e-8, atol=1e-12)
            assert pred.attained_variance == pytest.approx(variance, rel=1e-10)

    def test_variance_shrinks_with_order_down_to_szego_bound(self, grid1024, expcos):
        rng = np.random.default_rng(51)
        f = random_even_spectrum(rng, grid1024)
        acv = autocov_from_psd(f, 24)
        variances = [levinson(acv, p).attained_variance for p in range(1, 25)]
        bound = geometric_mean(f)
        assert all(a >= b - 1e-12 for a, b in zip(variances, variances[1:]))
        assert all(v >= bound - 1e-12 for v in variances)

    def test_degenerate_sequence_is_rejected(self, grid1024):
        # a cosine line spectrum: |c_1| = c_0, singular at order 2
        acv = Autocovariance(lags=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(DegenerateCovarianceError, match="at order 1;"):
            levinson(acv, 2)

    def test_order_beyond_available_lags_is_rejected(self, ar_half):
        acv = autocov_from_psd(ar_half, 3)
        with pytest.raises(ValueError, match="c_3"):
            levinson(acv, 4)


class TestDegradedVariance:
    def test_zero_predictor_gives_total_power(self, ar_half):
        acv = autocov_from_psd(psd_constant(ar_half.grid, 1.0), 2)
        pred = levinson(acv, 2)  # white noise: zero coefficients
        assert degraded_variance(ar_half, pred) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_matched_predictor_attains_optimum(self, ar_half):
        pred = levinson(autocov_from_psd(ar_half, 1), 1)
        assert degraded_variance(ar_half, pred) == pytest.approx(1.0, rel=1e-12)

    def test_second_order_model_is_fit_exactly_at_its_order(self, grid1024):
        # recovers the generating coefficients with the same sign convention
        f = psd_from_ar([0.5, -0.3], 2.0, grid1024)
        for p in (2, 3, 5):
            pred = levinson(autocov_from_psd(f, p), p)
            np.testing.assert_allclose(pred.coeffs[:2], [0.5, -0.3], rtol=1e-10)
            np.testing.assert_allclose(pred.coeffs[2:], 0.0, atol=1e-10)
            assert degraded_variance(f, pred) == pytest.approx(2.0, rel=1e-10)
            assert pred.attained_variance == pytest.approx(2.0, rel=1e-10)

    def test_order_zero_predictor_gives_total_power(self, ar_half):
        pred = PredictorCoeffs(coeffs=[], attained_variance=1.0)
        assert degraded_variance(ar_half, pred) == np.mean(ar_half.values)

    @pytest.mark.parametrize("p", [1, 16, 64])
    def test_matches_dense_error_filter(self, grid1024, p):
        rng = np.random.default_rng(70 + p)
        for _ in range(20):
            f1 = psd_from_ar(stable_ar_coeffs(rng, int(rng.integers(1, 9))), 1.0, grid1024)
            f2 = psd_from_ar(stable_ar_coeffs(rng, int(rng.integers(1, 9))), 1.0, grid1024)
            pred = levinson(autocov_from_psd(f2, p), p)
            phase = np.outer(grid1024.nodes, np.arange(1, p + 1))
            gain = (1.0 - np.cos(phase) @ pred.coeffs) ** 2 + (np.sin(phase) @ pred.coeffs) ** 2
            expected = float(np.mean(gain * f1.values))
            assert degraded_variance(f1, pred) == pytest.approx(expected, rel=1e-12)

    def test_coarse_grid_is_rejected(self):
        g = make_grid(16)
        f = psd_from_ar([0.5], 1.0, g)
        pred = PredictorCoeffs(coeffs=np.zeros(8), attained_variance=1.0)
        with pytest.raises(ValueError, match="too coarse"):
            degraded_variance(f, pred)

    def test_variance_past_the_double_range_raises(self, grid64):
        pred = levinson(autocov_from_psd(psd_from_ar([-0.9], 1.0, grid64), 2), 2)
        with pytest.raises(OverflowError, match="degraded variance exceeds the double range"):
            degraded_variance(psd_constant(grid64, 1.7e308), pred)


class TestRhoEmpirical:
    def test_matched_first_order_model(self, ar_half):
        assert rho_empirical(ar_half, ar_half, 1) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 8, 64])
    def test_white_predictor_on_ar_process(self, ar_half, flat_one, p):
        assert rho_empirical(ar_half, flat_one, p) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_ar_predictor_on_white_process(self, ar_half, flat_one):
        assert rho_empirical(flat_one, ar_half, 64) == pytest.approx(1.25, rel=1e-9)

    def test_never_beats_the_optimum(self, grid1024):
        rng = np.random.default_rng(52)
        for _ in range(10):
            f1 = random_even_spectrum(rng, grid1024)
            f2 = random_even_spectrum(rng, grid1024)
            assert rho_empirical(f1, f2, 16) >= 1.0 - 1e-9

    def test_converges_to_the_closed_form(self, grid4096, ar_half, expcos):
        # predictor for exp(cos) has infinitely many reflection coefficients,
        # so convergence is a real limit here, not an exact finite-order hit
        target = prediction_ratio(ar_half, expcos)
        errors = [
            abs(rho_empirical(ar_half, expcos, p) - target) for p in (2, 4, 8, 16, 32, 64)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-3

    def test_self_ratio_approaches_one(self, grid4096, expcos):
        errors = [abs(rho_empirical(expcos, expcos, p) - 1.0) for p in (2, 8, 32)]
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-6

    def test_requires_strict_positivity(self, grid64):
        values = np.ones(64)
        values[3] = 0.0
        f = psd_from_samples(grid64, values)
        with pytest.raises(ValueError, match="strictly positive"):
            rho_empirical(f, psd_constant(grid64, 1.0), 4)

    def test_requires_valid_order(self, ar_half, flat_one):
        with pytest.raises(ValueError, match="order"):
            rho_empirical(ar_half, flat_one, 0)

    def test_blind_to_a_scale_whose_terms_pass_the_double_range(self, grid64):
        # the degraded variance's terms pass the range at sigma2 = 1e306
        f2 = psd_from_ar([-0.9], 1.0, grid64)
        unit = rho_empirical(psd_from_ar([0.9], 1.0, grid64), f2, 2)
        huge = rho_empirical(psd_from_ar([0.9], 1e306, grid64), f2, 2)
        assert huge == pytest.approx(unit, rel=1e-12, abs=0.0)

    def test_blind_to_a_scale_whose_degraded_variance_passes_the_double_range(self, grid64):
        f2 = psd_from_ar([-0.9], 1.0, grid64)
        unit = rho_empirical(psd_constant(grid64, 1.0), f2, 2)
        assert rho_empirical(psd_constant(grid64, 1.7e308), f2, 2) == pytest.approx(unit, rel=1e-12, abs=0.0)

    def test_a_spike_past_the_ray_representative_stays_finite(self, grid64):
        # the largest sample passes DBL_MAX times the geometric mean, so the
        # unit-geometric-mean representative of f1 does not exist
        values = np.full(64, 1.2e-6)
        values[32] = 1e308
        f1, f2 = psd_from_samples(grid64, values), psd_from_ar([-0.5], 1.0, grid64)
        rho = rho_empirical(f1, f2, 2)
        assert rho == pytest.approx(prediction_ratio(f1, f2), rel=1e-13)

    def test_ratio_past_the_double_range_raises(self):
        grid = make_grid(256)
        f1 = psd_from_samples(grid, 1e-10 * np.exp(705.0 * np.cos(grid.nodes)))
        f2 = psd_from_samples(grid, np.exp(-20.0 * np.cos(grid.nodes)))
        with pytest.raises(OverflowError, match="the prediction ratio exceeds the double range"):
            rho_empirical(f1, f2, 32)
