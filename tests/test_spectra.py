import math

import numpy as np
import pytest

from specdist import (
    NotNormalizableError,
    UnstableModelError,
    arithmetic_mean,
    generalized_mean,
    geometric_mean,
    log_ratio,
    make_grid,
    normalize_to_ray,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
)

from conftest import psd_with_zero_at, random_positive_spectrum, stable_ar_coeffs
from oracles import BESSEL_I0_1, bessel_i0, bessel_i1, dilog, log_bessel_i0


class TestConstruction:
    def test_constant_has_empty_zero_set(self, grid64):
        f = psd_from_samples(grid64, np.ones(64))
        assert f.zero_set == frozenset()

    def test_exact_zero_is_recorded(self, grid64):
        f = psd_with_zero_at(grid64, 13)
        assert f.zero_set == frozenset({13})

    def test_negative_sample_is_rejected_with_index(self, grid64):
        values = np.ones(64)
        values[5] = -0.1
        with pytest.raises(ValueError, match=r"values\[5\]"):
            psd_from_samples(grid64, values)

    def test_non_finite_sample_is_rejected(self, grid64):
        values = np.ones(64)
        values[11] = np.inf
        with pytest.raises(ValueError, match=r"values\[11\]"):
            psd_from_samples(grid64, values)

    def test_non_finite_is_reported_before_an_earlier_negative(self, grid64):
        values = np.ones(64)
        values[3] = -1.0
        values[20] = np.nan
        with pytest.raises(ValueError, match=r"values\[20\] = nan is not finite"):
            psd_from_samples(grid64, values)

    def test_all_zero_is_rejected(self, grid64):
        with pytest.raises(ValueError, match="all-zero"):
            psd_from_samples(grid64, np.zeros(64))

    def test_length_mismatch_is_rejected(self, grid64):
        with pytest.raises(ValueError, match="length 64"):
            psd_from_samples(grid64, np.ones(63))

    def test_values_are_immutable(self, grid64):
        f = psd_constant(grid64, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_input_array_is_not_aliased(self, grid64):
        values = np.ones(64)
        f = psd_from_samples(grid64, values)
        values[0] = 99.0
        assert f.values[0] == 1.0


class TestAutoregressive:
    def test_empty_model_is_white_noise(self, grid64):
        f = psd_from_ar([], 2.5, grid64)
        np.testing.assert_array_equal(f.values, np.full(64, 2.5))

    def test_first_order_closed_form(self, grid4096):
        # |1 - 0.5 e^{-i theta}|^2 expands to 1.25 - cos(theta)
        f = psd_from_ar([0.5], 1.0, grid4096)
        np.testing.assert_allclose(f.values, 1.0 / (1.25 - np.cos(grid4096.nodes)), rtol=1e-14)

    def test_unit_root_is_rejected(self, grid64):
        with pytest.raises(UnstableModelError):
            psd_from_ar([1.0], 1.0, grid64)

    @pytest.mark.parametrize(
        "a,k", [([0.7, 0.3], "0.99999999999999989"), ([-0.7, 0.3], "-0.99999999999999989")]
    )
    def test_root_within_rounding_of_the_unit_circle_is_rejected(self, a, k):
        # A(1) or A(-1) is 0 in decimal, but k_1 rounds to just inside the
        # circle; the step-down refuses it whether or not a node is on the root
        message = f"k_1 = {k} has modulus 1 or more, within rounding$"
        for n in (8, 63):
            with pytest.raises(UnstableModelError, match=message):
                psd_from_ar(a, 1.0, make_grid(n))

    @pytest.mark.parametrize("a", [[2.0], [0.5, 1.2]])
    def test_explosive_models_are_rejected(self, grid4096, a):
        with pytest.raises(UnstableModelError):
            psd_from_ar(a, 1.0, grid4096)

    def test_stability_agrees_with_the_roots(self, grid64):
        rng = np.random.default_rng(33)
        for _ in range(300):
            a = rng.uniform(-1.5, 1.5, int(rng.integers(1, 9)))
            radius = np.abs(np.roots(np.concatenate(([1.0], -a)))).max()
            if abs(radius - 1.0) < 1e-6:
                continue
            if radius < 1.0:
                psd_from_ar(a, 1.0, grid64)
            else:
                with pytest.raises(UnstableModelError):
                    psd_from_ar(a, 1.0, grid64)

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_matches_dense_transfer_function(self, n):
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        for _ in range(100):
            a = stable_ar_coeffs(rng, int(rng.integers(1, 9)))
            sigma2 = float(rng.uniform(0.5, 2.0))
            lags = np.arange(1, a.size + 1)
            transfer = 1.0 - np.exp(-1j * np.outer(grid.nodes, lags)) @ a.astype(complex)
            np.testing.assert_allclose(
                psd_from_ar(a, sigma2, grid).values, sigma2 / np.abs(transfer) ** 2, rtol=1e-12
            )

    def test_bad_innovation_variance_is_rejected(self, grid64):
        for sigma2, shown in [(0.0, "0.0"), (-1.0, "-1.0"), (math.inf, "inf"), (math.nan, "nan")]:
            message = f"^innovation variance must be finite and positive, got {shown}$"
            with pytest.raises(ValueError, match=message):
                psd_from_ar([0.5], sigma2, grid64)

    def test_density_past_the_double_range_is_rejected(self, grid64):
        # 1e308 / (1 - 0.999)^2 at theta = 0
        with pytest.raises(ValueError, match="^the density exceeds the double range$"):
            psd_from_ar([0.999], 1e308, grid64)

    def test_spectra_are_even_symmetric(self, grid1024):
        f = psd_from_ar([0.4, -0.2, 0.1], 1.0, grid1024)
        mirrored = f.values[(-np.arange(grid1024.n)) % grid1024.n]
        np.testing.assert_allclose(f.values, mirrored, rtol=1e-12)


class TestLogRatio:
    def test_identical_densities_give_zero(self, expcos):
        x = log_ratio(expcos, expcos)
        assert isinstance(x, np.ndarray) and x.dtype == np.float64
        np.testing.assert_array_equal(x, np.zeros(expcos.grid.n))

    def test_exponential_against_flat(self, grid4096, expcos, flat_one):
        x = log_ratio(expcos, flat_one)
        np.testing.assert_allclose(x, np.cos(grid4096.nodes), rtol=0, atol=1e-15)

    def test_differing_zero_sets_are_not_loggable(self, grid64):
        f1 = psd_with_zero_at(grid64, 0)
        f2 = psd_constant(grid64, 1.0)
        assert log_ratio(f1, f2) is None
        assert log_ratio(f2, f1) is None

    def test_shared_zeros_contribute_zero(self, grid64):
        f1 = psd_with_zero_at(grid64, 9, base=2.0)
        f2 = psd_with_zero_at(grid64, 9, base=1.0)
        x = log_ratio(f1, f2)
        assert x is not None
        assert x[9] == 0.0
        assert x[0] == pytest.approx(np.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("zero", [None, 5])
    def test_samples_are_read_only(self, grid64, zero):
        f = psd_constant(grid64, 2.0) if zero is None else psd_with_zero_at(grid64, zero, base=2.0)
        x = log_ratio(f, f)
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0

    def test_swapping_negates_exactly(self, grid1024):
        rng = np.random.default_rng(3)
        f1 = random_positive_spectrum(rng, grid1024)
        f2 = random_positive_spectrum(rng, grid1024)
        np.testing.assert_array_equal(
            log_ratio(f1, f2).view(np.uint64), (-log_ratio(f2, f1)).view(np.uint64)
        )

    def test_grid_mismatch_is_rejected(self):
        f1 = psd_constant(make_grid(8), 1.0)
        f2 = psd_constant(make_grid(16), 1.0)
        with pytest.raises(ValueError, match="different grids"):
            log_ratio(f1, f2)


class TestMeans:
    @pytest.mark.parametrize("r", [-2.0, -1.0, 0.5, 1.0, 2.0, 7.0])
    def test_power_means_of_constant(self, grid64, r):
        f = psd_constant(grid64, 3.5)
        assert generalized_mean(f, r) == pytest.approx(3.5, rel=1e-14)

    def test_high_order_mean_does_not_overflow(self, grid4096):
        # mean(f^400) of exp(3 cos) is I_0(1200), far beyond the double range
        f = psd_from_samples(grid4096, np.exp(3.0 * np.cos(grid4096.nodes)))
        expected = np.exp(log_bessel_i0(1200.0) / 400.0)
        assert generalized_mean(f, 400.0) == pytest.approx(expected, rel=1e-12)

    def test_extreme_orders_give_the_maximum_and_the_minimum(self, grid4096):
        # r * log f overflows at |r| = 1e308; the mean tends to max f and min f
        f = psd_from_samples(grid4096, np.exp(3.0 * np.cos(grid4096.nodes)))
        assert generalized_mean(f, 1e308) == pytest.approx(f.values.max(), rel=1e-15, abs=0.0)
        assert generalized_mean(f, -1e308) == pytest.approx(f.values.min(), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("r", [-3.0, -0.5, 0.5, 1.0, 2.0, 7.0])
    def test_matches_the_power_domain_formula(self, grid1024, r):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_positive_spectrum(rng, grid1024)
            expected = np.mean(f.values**r) ** (1.0 / r)
            assert generalized_mean(f, r) == pytest.approx(expected, rel=1e-12)

    def test_positive_order_mean_with_zeros(self, grid64):
        f = psd_with_zero_at(grid64, 4, base=2.0)
        assert generalized_mean(f, 2.0) == pytest.approx(2.0 * np.sqrt(63 / 64), rel=1e-14)

    @pytest.mark.parametrize("r", [1e-12, 1e-300])
    def test_small_order_mean_tends_to_the_geometric_mean(self, expcos, r):
        # mean(f^r)^(1/r) = exp(r/4 + O(r^3)) for f = exp(cos theta)
        assert generalized_mean(expcos, r) == pytest.approx(math.exp(r / 4), rel=1e-15, abs=0.0)

    def test_arithmetic_mean_past_the_double_range_sum(self, grid4096):
        # the sum of 4096 samples of 1e308 overflows; their mean does not
        big = np.finfo(float).max
        assert arithmetic_mean(psd_constant(grid4096, 1e308)) == 1e308
        values = np.full(grid4096.n, 1.0)
        values[::2] = big
        assert arithmetic_mean(psd_from_samples(grid4096, values)) == pytest.approx(big / 2, rel=1e-15)

    def test_arithmetic_mean_keeps_numpy_bits_when_finite(self, grid1024):
        f = random_positive_spectrum(np.random.default_rng(6), grid1024)
        assert arithmetic_mean(f) == float(np.mean(f.values))

    def test_geometric_mean_of_constant(self, grid64):
        assert geometric_mean(psd_constant(grid64, 3.5)) == pytest.approx(3.5, rel=1e-14)

    def test_arithmetic_mean_of_exponential_is_bessel(self, expcos):
        assert generalized_mean(expcos, 1.0) == pytest.approx(bessel_i0(1.0), rel=1e-13)

    def test_geometric_mean_of_exponential_is_one(self, expcos):
        assert geometric_mean(expcos) == pytest.approx(1.0, abs=1e-14)

    def test_geometric_mean_of_ar_is_unit(self, ar_half):
        # mean of log|1 - a e^{-i theta}|^2 vanishes for |a| < 1
        assert geometric_mean(ar_half) == pytest.approx(1.0, abs=1e-14)

    def test_zero_order_is_rejected(self, expcos):
        with pytest.raises(ValueError, match="geometric_mean"):
            generalized_mean(expcos, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_order_is_rejected(self, expcos, grid64, bad):
        # before the zero-set check, so -inf on a density with zeros is a ValueError too
        for f in (expcos, psd_with_zero_at(grid64, 4)):
            with pytest.raises(ValueError, match=f"r = {bad} is excluded"):
                generalized_mean(f, bad)

    def test_negative_order_with_zeros_divides_by_zero(self, grid64):
        f = psd_with_zero_at(grid64, 4)
        with pytest.raises(ZeroDivisionError):
            generalized_mean(f, -1.0)

    def test_geometric_mean_with_zeros_is_zero(self, grid64):
        assert geometric_mean(psd_with_zero_at(grid64, 4)) == 0.0

    def test_power_means_increase_with_order(self, grid1024):
        rng = np.random.default_rng(4)
        orders = [-3.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0]
        for _ in range(20):
            f = random_positive_spectrum(rng, grid1024)
            means = [generalized_mean(f, r) for r in orders]
            gm = geometric_mean(f)
            assert means == sorted(means)
            assert means[2] <= gm * (1 + 1e-12) <= means[3] * (1 + 1e-12)


class TestRays:
    def test_constant_normalizes_to_one(self, grid64):
        rep = normalize_to_ray(psd_constant(grid64, 7.0))
        np.testing.assert_allclose(rep.values, 1.0, rtol=1e-14)

    def test_scaling_cancels(self, grid1024):
        rng = np.random.default_rng(5)
        f = random_positive_spectrum(rng, grid1024)
        scaled = psd_from_samples(grid1024, 3.7e4 * f.values)
        np.testing.assert_allclose(
            normalize_to_ray(scaled).values,
            normalize_to_ray(f).values,
            rtol=1e-12,
        )

    def test_unit_geometric_mean_is_fixed(self, expcos):
        rep = normalize_to_ray(expcos)
        np.testing.assert_allclose(rep.values, expcos.values, rtol=1e-12)

    def test_idempotent(self, grid1024):
        rng = np.random.default_rng(6)
        f = random_positive_spectrum(rng, grid1024)
        once = normalize_to_ray(f)
        twice = normalize_to_ray(once)
        np.testing.assert_allclose(twice.values, once.values, rtol=1e-12)
        assert geometric_mean(once) == pytest.approx(1.0, rel=1e-12)

    def test_zeros_are_not_normalizable(self, grid64):
        with pytest.raises(NotNormalizableError):
            normalize_to_ray(psd_with_zero_at(grid64, 2))

    def test_representative_past_the_double_range_is_not_normalizable(self):
        # the geometric mean is 1e-225, so f / gm would be 1e533 at node 0
        f = psd_from_samples(make_grid(8), [1e308] + [1e-300] * 7)
        message = "unit-geometric-mean representative of the ray exceeds the double range"
        with pytest.raises(NotNormalizableError, match=message):
            normalize_to_ray(f)


def test_oracles_self_consistent():
    assert bessel_i0(1.0) == pytest.approx(BESSEL_I0_1, rel=1e-15)
    assert bessel_i0(2.0) == pytest.approx(2.279585302336067, rel=1e-15)
    assert bessel_i1(1.0) == pytest.approx(0.565159103992485, rel=1e-15)
    assert dilog(0.25) == pytest.approx(0.2676526390827319, rel=1e-13)
    for x in (1.0, 2.0, 3.0, 30.0):
        assert log_bessel_i0(x) == pytest.approx(np.log(bessel_i0(x)), rel=1e-14)
