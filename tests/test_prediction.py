import numpy as np
import pytest

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
from oracles import BESSEL_I1_1, naive_toeplitz_predictor, reference_mean


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
        g = make_grid(64)
        with pytest.raises(ValueError, match="c_0"):
            Autocovariance(lags=np.array([-1.0, 0.0]), grid=g)
        with pytest.raises(ValueError, match="c_0"):
            Autocovariance(lags=np.array([1.0, 2.0]), grid=g)


class TestLevinson:
    def test_white_noise_predicts_nothing(self, grid1024):
        acv = Autocovariance(lags=np.array([1.0, 0.0, 0.0, 0.0]), grid=grid1024)
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
        acv = Autocovariance(lags=np.array([1.0, 1.0, 1.0]), grid=grid1024)
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
        pred = PredictorCoeffs(order=0, coeffs=[], attained_variance=1.0)
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
        pred = PredictorCoeffs(order=8, coeffs=np.zeros(8), attained_variance=1.0)
        with pytest.raises(ValueError, match="too coarse"):
            degraded_variance(f, pred)


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
