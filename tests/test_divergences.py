import math

import numpy as np
import pytest

from specdist import (
    divergence_ag,
    divergence_rs,
    divergence_sym,
    fisher_form,
    geodesic_distance,
    log_ratio,
    make_grid,
    prediction_ratio,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
    riemannian_form,
    scaled_metric_d,
)
from specdist.cli import main

from conftest import psd_with_zero_at, random_positive_spectrum
from oracles import BESSEL_I0_1, BESSEL_I0_2, BESSEL_I1_1, DILOG_QUARTER, log_bessel_i0


def scaled(f, kappa):
    return psd_from_samples(f.grid, kappa * f.values)


class TestGeodesicDistance:
    def test_self_distance_is_zero(self, expcos):
        assert geodesic_distance(expcos, expcos) == 0.0

    def test_exponential_against_flat(self, expcos, flat_one):
        assert geodesic_distance(expcos, flat_one) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )

    def test_ar_against_flat_matches_dilog(self):
        g = make_grid(8192)
        f1 = psd_from_ar([0.5], 1.0, g)
        f2 = psd_constant(g, 1.0)
        assert geodesic_distance(f1, f2) == pytest.approx(
            math.sqrt(2.0 * DILOG_QUARTER), abs=1e-10
        )

    def test_differing_zero_sets_are_infinitely_far(self, grid64):
        f1 = psd_with_zero_at(grid64, 3)
        f2 = psd_constant(grid64, 1.0)
        assert geodesic_distance(f1, f2) == math.inf

    def test_symmetry_is_exact_bitwise(self, grid1024):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f1 = random_positive_spectrum(rng, grid1024)
            f2 = random_positive_spectrum(rng, grid1024)
            assert geodesic_distance(f1, f2) == geodesic_distance(f2, f1)

    def test_symmetry_covers_infinite_pairs(self, grid64):
        f1 = psd_with_zero_at(grid64, 3)
        f2 = psd_constant(grid64, 1.0)
        assert geodesic_distance(f1, f2) == geodesic_distance(f2, f1) == math.inf

    @pytest.mark.parametrize("kappa", [1e-6, 1.0, 1e6])
    def test_scale_invariance(self, expcos, flat_one, kappa):
        base = geodesic_distance(expcos, flat_one)
        assert geodesic_distance(expcos, scaled(flat_one, kappa)) == pytest.approx(
            base, rel=1e-12
        )

    def test_separation_forward(self, grid1024):
        rng = np.random.default_rng(12)
        f = random_positive_spectrum(rng, grid1024)
        assert geodesic_distance(f, scaled(f, 3.7)) <= 1e-12

    def test_separation_backward(self, grid1024):
        rng = np.random.default_rng(13)
        f1 = random_positive_spectrum(rng, grid1024)
        f2 = random_positive_spectrum(rng, grid1024)
        ratio = f1.values / f2.values
        assert ratio.max() / ratio.min() > 1.0 + 1e-9  # genuinely different rays
        assert geodesic_distance(f1, f2) > 1e-6

    def test_triangle_inequality(self, grid1024):
        rng = np.random.default_rng(14)
        for _ in range(50):
            f1, f2, f3 = (random_positive_spectrum(rng, grid1024) for _ in range(3))
            d12 = geodesic_distance(f1, f2)
            d23 = geodesic_distance(f2, f3)
            d13 = geodesic_distance(f1, f3)
            assert d12 + d23 >= d13 - 1e-9

    def test_symmetrized_divergence_breaks_the_triangle_inequality(self, grid4096):
        # neither sym nor its square root is a metric on this triple; d_g is
        f = psd_from_ar([-0.9], 1.0, grid4096)
        h = psd_from_ar([-0.7], 1.0, grid4096)
        q = psd_from_samples(grid4096, np.exp(-1.2 * np.cos(grid4096.nodes)))
        sym = [divergence_sym(f, q), divergence_sym(f, h), divergence_sym(h, q)]
        assert sym == pytest.approx([0.91826, 0.26656, 0.17980], abs=1e-5)
        assert sym[0] > sym[1] + sym[2]
        root = [math.sqrt(x) for x in sym]
        assert root == pytest.approx([0.95826, 0.51630, 0.42403], abs=1e-5)
        assert root[0] > root[1] + root[2]
        dg = [geodesic_distance(f, q), geodesic_distance(f, h), geodesic_distance(h, q)]
        assert dg[0] == pytest.approx(0.86614, abs=1e-5)
        assert dg[1] + dg[2] == pytest.approx(0.90064, abs=1e-5)
        assert dg[0] < dg[1] + dg[2]  # strict: h is off the geodesic from f to q

    def test_infinity_propagates_through_triples(self, grid64):
        f1 = psd_with_zero_at(grid64, 3)
        f3 = psd_constant(grid64, 1.0)
        assert geodesic_distance(f1, f3) == math.inf
        for f2 in (
            psd_constant(grid64, 2.0),
            psd_with_zero_at(grid64, 3, base=5.0),
            psd_with_zero_at(grid64, 7),
        ):
            legs = (geodesic_distance(f1, f2), geodesic_distance(f2, f3))
            assert math.inf in legs

    def test_grid_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="different grids"):
            geodesic_distance(psd_constant(make_grid(8), 1.0), psd_constant(make_grid(16), 1.0))


class TestScaledMetric:
    def test_pure_scaling_is_seen_by_the_mean_term(self, grid64):
        f1 = psd_constant(grid64, 1.0)
        f2 = psd_constant(grid64, 2.0)
        assert scaled_metric_d(f1, f2) == pytest.approx(1.0, abs=1e-14)

    def test_self_distance_is_zero(self, ar_half):
        assert scaled_metric_d(ar_half, ar_half) == 0.0

    def test_exponential_against_flat(self, expcos, flat_one):
        expected = math.sqrt(0.5) + (BESSEL_I0_1 - 1.0)
        assert scaled_metric_d(expcos, flat_one) == pytest.approx(expected, rel=1e-12)

    def test_infinite_when_geodesic_is(self, grid64):
        assert scaled_metric_d(psd_with_zero_at(grid64, 1), psd_constant(grid64, 2.0)) == math.inf


class TestDivergenceAg:
    def test_vanishes_on_equal_densities(self, ar_half):
        assert divergence_ag(ar_half, ar_half) == 0.0

    def test_vanishes_on_scalings(self, grid1024):
        rng = np.random.default_rng(15)
        f = random_positive_spectrum(rng, grid1024)
        assert divergence_ag(f, scaled(f, 0.03)) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_against_flat(self, expcos, flat_one):
        assert divergence_ag(expcos, flat_one) == pytest.approx(
            math.log(BESSEL_I0_1), rel=1e-12
        )

    def test_ar_against_flat(self, ar_half, flat_one):
        assert divergence_ag(ar_half, flat_one) == pytest.approx(
            math.log(4.0 / 3.0), rel=1e-12
        )

    def test_nonnegative_and_zero_only_on_constant_ratio(self, grid1024):
        rng = np.random.default_rng(16)
        for _ in range(25):
            f1 = random_positive_spectrum(rng, grid1024)
            f2 = random_positive_spectrum(rng, grid1024)
            d = divergence_ag(f1, f2)
            assert d >= 0.0
            assert d > 1e-12  # random pairs are never proportional

    def test_infinite_when_denominator_vanishes(self, grid64):
        f1 = psd_constant(grid64, 1.0)
        f2 = psd_with_zero_at(grid64, 5)
        assert divergence_ag(f1, f2) == math.inf

    def test_infinite_when_numerator_vanishes(self, grid64):
        f1 = psd_with_zero_at(grid64, 5)
        f2 = psd_constant(grid64, 1.0)
        assert divergence_ag(f1, f2) == math.inf

    def test_shared_zeros_stay_finite(self, grid64):
        # the ratio counts as 1 at shared zeros: self-divergence stays 0,
        # while a scaled pair is finite but no longer exactly proportional
        f1 = psd_with_zero_at(grid64, 5, base=2.0)
        f2 = psd_with_zero_at(grid64, 5, base=1.0)
        assert divergence_ag(f1, f1) == 0.0
        assert 0.0 < divergence_ag(f1, f2) < math.inf


def mp_log_power_mean(x, r):
    """log (mean(exp(r x)))^(1/r) of the samples ``x`` in mpmath, or mean(x)
    for r = 0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(t)) for t in x]
        if r == 0:
            return mpmath.fsum(xs) / len(xs)
        return mpmath.log(mpmath.fsum(mpmath.exp(r * t) for t in xs) / len(xs)) / r


class TestNearProportionalPairs:
    """f * kappa * exp(eps cos 3 theta) against f: the gaps are about eps^2/4,
    checked against an mpmath evaluation on the same log-ratio samples."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8])
    @pytest.mark.parametrize("kappa", [1.0, math.exp(5.0)])
    def test_gaps_keep_their_digits(self, grid4096, eps, kappa):
        theta = grid4096.nodes
        f2 = psd_from_samples(grid4096, np.exp(0.7 * np.cos(theta) + 0.3 * np.cos(2 * theta)))
        f1 = psd_from_samples(grid4096, kappa * f2.values * np.exp(eps * np.cos(3 * theta)))
        x = log_ratio(f1, f2)
        bound = 1e-14 / eps
        ag = mp_log_power_mean(x, 1) - mp_log_power_mean(x, 0)
        assert divergence_ag(f1, f2) == pytest.approx(float(ag), rel=bound, abs=0.0)
        rs = mp_log_power_mean(x, 2) - mp_log_power_mean(x, -1)
        assert divergence_rs(f1, f2, 2.0, -1.0) == pytest.approx(float(rs), rel=bound, abs=0.0)
        sym = mp_log_power_mean(x, 1) - mp_log_power_mean(x, -1)
        assert divergence_sym(f1, f2) == pytest.approx(float(sym), rel=bound, abs=0.0)
        assert float(ag) == pytest.approx(eps**2 / 4, rel=1e-2, abs=0.0)


class TestDivergenceSym:
    def test_vanishes_on_equal_densities(self, expcos):
        assert divergence_sym(expcos, expcos) == 0.0

    def test_symmetric_bitwise(self, grid1024):
        rng = np.random.default_rng(17)
        f1 = random_positive_spectrum(rng, grid1024)
        f2 = random_positive_spectrum(rng, grid1024)
        assert divergence_sym(f1, f2) == divergence_sym(f2, f1)

    def test_exponential_against_flat(self, expcos, flat_one):
        assert divergence_sym(expcos, flat_one) == pytest.approx(
            2.0 * math.log(BESSEL_I0_1), rel=1e-12
        )

    def test_infinite_in_either_direction(self, grid64):
        f1 = psd_with_zero_at(grid64, 0)
        f2 = psd_constant(grid64, 1.0)
        assert divergence_sym(f1, f2) == math.inf


class TestDivergenceRs:
    @pytest.mark.parametrize("r,s", [(2.0, 1.0), (1.0, -1.0), (3.0, 2.0), (-1.0, -2.0)])
    def test_vanishes_on_scalings(self, grid1024, r, s):
        rng = np.random.default_rng(18)
        f = random_positive_spectrum(rng, grid1024)
        assert divergence_rs(f, scaled(f, 2.0), r, s) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_two_one(self, expcos, flat_one):
        expected = 0.5 * math.log(BESSEL_I0_2) - math.log(BESSEL_I0_1)
        assert divergence_rs(expcos, flat_one, 2.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_equal_orders_are_rejected(self, expcos, flat_one):
        with pytest.raises(ValueError, match="distinct"):
            divergence_rs(expcos, flat_one, 1.0, 1.0)

    @pytest.mark.parametrize("r,s", [(0.0, 1.0), (1.0, 0.0)])
    def test_zero_orders_are_rejected(self, expcos, flat_one, r, s):
        with pytest.raises(ValueError, match="nonzero"):
            divergence_rs(expcos, flat_one, r, s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_orders_are_rejected(self, expcos, flat_one, grid4096, bad):
        zeros = psd_with_zero_at(grid4096, 0)  # an inf pair is refused too
        for f2 in (flat_one, zeros):
            with pytest.raises(ValueError, match=f"must be finite, got r = {bad}, s = 1.0"):
                divergence_rs(expcos, f2, bad, 1.0)
            with pytest.raises(ValueError, match=f"must be finite, got r = 1.0, s = {bad}"):
                divergence_rs(expcos, f2, 1.0, bad)

    def test_nonnegative_when_orders_are_sorted(self, grid1024):
        rng = np.random.default_rng(19)
        for _ in range(10):
            f1 = random_positive_spectrum(rng, grid1024)
            f2 = random_positive_spectrum(rng, grid1024)
            assert divergence_rs(f1, f2, 2.0, 1.0) >= 0.0
            assert divergence_rs(f1, f2, 1.0, -1.0) >= 0.0

    def test_differing_zero_sets_are_infinite(self, grid64):
        f1 = psd_with_zero_at(grid64, 2)
        f2 = psd_constant(grid64, 1.0)
        assert divergence_rs(f1, f2, 2.0, 1.0) == math.inf

    def test_swapping_orders_negates(self, grid1024):
        # r < s is allowed in the library and yields the negated value
        rng = np.random.default_rng(22)
        f1 = random_positive_spectrum(rng, grid1024)
        f2 = random_positive_spectrum(rng, grid1024)
        assert divergence_rs(f1, f2, 1.0, 2.0) == pytest.approx(
            -divergence_rs(f1, f2, 2.0, 1.0), rel=1e-12
        )


class TestPredictionRatio:
    def test_equal_densities_give_one(self, ar_half):
        assert prediction_ratio(ar_half, ar_half) == pytest.approx(1.0, rel=1e-14)

    def test_exponential_against_flat(self, expcos, flat_one):
        assert prediction_ratio(expcos, flat_one) == pytest.approx(BESSEL_I0_1, rel=1e-12)

    def test_ar_against_flat(self, ar_half, flat_one):
        assert prediction_ratio(ar_half, flat_one) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_flat_against_ar(self, ar_half, flat_one):
        # mean of |1 - 0.5 e^{-i theta}|^2 is 1 + 0.25
        assert prediction_ratio(flat_one, ar_half) == pytest.approx(1.25, rel=1e-12)

    def test_exponential_against_ar(self, expcos, ar_half):
        expected = 1.25 * BESSEL_I0_1 - BESSEL_I1_1
        assert prediction_ratio(expcos, ar_half) == pytest.approx(expected, rel=1e-12)

    def test_equals_exponential_of_divergence(self, grid1024):
        rng = np.random.default_rng(20)
        for _ in range(25):
            f1 = random_positive_spectrum(rng, grid1024)
            f2 = random_positive_spectrum(rng, grid1024)
            assert prediction_ratio(f1, f2) == pytest.approx(
                math.exp(divergence_ag(f1, f2)), rel=1e-12
            )

    def test_never_below_one(self, grid1024):
        rng = np.random.default_rng(21)
        for _ in range(25):
            f1 = random_positive_spectrum(rng, grid1024)
            f2 = random_positive_spectrum(rng, grid1024)
            assert prediction_ratio(f1, f2) >= 1.0


def ratio_or_none(f1, f2):
    """f1/f2 with ratio 1 at shared zeros, or None when the zero sets differ:
    the ratio-domain path the divergences were once computed on."""
    if f1.zero_set != f2.zero_set:
        return None
    ratio = np.ones(f1.grid.n)
    nz = f1.values != 0.0
    ratio[nz] = f1.values[nz] / f2.values[nz]
    return ratio


def ratio_domain_ag(ratio):
    return float(np.log(np.mean(ratio)) - np.mean(np.log(ratio)))


def ratio_domain_rs(ratio, r, s):
    return float(np.log(np.mean(ratio**r)) / r - np.log(np.mean(ratio**s)) / s)


def ratio_domain_prediction_ratio(ratio):
    return float(np.mean(ratio) / np.exp(np.mean(np.log(ratio))))


def with_zeros_at(f, indices):
    values = np.array(f.values)
    values[indices] = 0.0
    return psd_from_samples(f.grid, values)


class TestLogDomain:
    """The divergences are log-domain functionals of log_ratio: they agree
    with the ratio-domain formulas wherever those are finite, and stay finite
    where those overflow."""

    def test_high_order_power_mean_gap_does_not_overflow(self, grid4096):
        # log(mean(ratio^300)) is log I_0(900), far beyond the double range
        f1 = psd_from_samples(grid4096, np.exp(3.0 * np.cos(grid4096.nodes)))
        f2 = psd_constant(grid4096, 1.0)
        expected = log_bessel_i0(900.0) / 300.0 - log_bessel_i0(3.0)
        assert divergence_rs(f1, f2, 300.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_extreme_order_gap_is_finite(self, grid4096):
        # r * log(ratio) overflows at r = 1e308; the gap is its r = 1e300 value
        f1 = psd_from_samples(grid4096, np.exp(3.0 * np.cos(grid4096.nodes)))
        f2 = psd_constant(grid4096, 1.0)
        extreme = divergence_rs(f1, f2, 1e308, 1.0)
        assert math.isfinite(extreme)
        assert extreme == pytest.approx(divergence_rs(f1, f2, 1e300, 1.0), rel=1e-12)

    def test_extreme_scalings_are_blind(self, expcos):
        f1 = scaled(expcos, 1e200)
        f2 = scaled(expcos, 1e-200)
        assert divergence_ag(f1, f2) == pytest.approx(0.0, abs=1e-12)
        assert divergence_sym(f1, f2) == pytest.approx(0.0, abs=1e-12)
        assert divergence_rs(f1, f2, 2.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert divergence_rs(f1, f2, 1.0, -1.0) == pytest.approx(0.0, abs=1e-12)
        assert prediction_ratio(f1, f2) == pytest.approx(1.0, rel=1e-12)

    def test_ratio_beyond_double_range_raises(self, grid4096):
        f1 = psd_from_samples(grid4096, np.exp(700.0 * np.cos(grid4096.nodes)))
        f2 = psd_from_samples(grid4096, np.exp(-15.0 * np.cos(grid4096.nodes)))
        assert divergence_ag(f1, f2) == pytest.approx(log_bessel_i0(715.0), rel=1e-12)
        with pytest.raises(OverflowError):
            prediction_ratio(f1, f2)

    def test_differing_zero_sets_still_give_inf(self, grid64):
        f1 = psd_with_zero_at(grid64, 3)
        f2 = psd_constant(grid64, 1.0)
        assert prediction_ratio(f1, f2) == math.inf
        assert prediction_ratio(f2, f1) == math.inf

    @pytest.mark.parametrize("zeros", [[], [0], [5, 6, 7, 300], list(range(100, 164))])
    def test_matches_the_ratio_domain_formulas(self, grid1024, zeros):
        rng = np.random.default_rng(23 + len(zeros))
        for _ in range(20):
            f1 = with_zeros_at(random_positive_spectrum(rng, grid1024), zeros)
            f2 = with_zeros_at(random_positive_spectrum(rng, grid1024), zeros)
            ratio = ratio_or_none(f1, f2)
            assert divergence_ag(f1, f2) == pytest.approx(ratio_domain_ag(ratio), rel=1e-12)
            assert divergence_sym(f1, f2) == pytest.approx(
                ratio_domain_ag(ratio) + ratio_domain_ag(1.0 / ratio), rel=1e-12
            )
            for r, s in [(2.0, 1.0), (1.0, -1.0), (3.0, 2.0), (-1.0, -2.0), (0.5, -0.5)]:
                assert divergence_rs(f1, f2, r, s) == pytest.approx(
                    ratio_domain_rs(ratio, r, s), rel=1e-12
                )
            assert prediction_ratio(f1, f2) == pytest.approx(
                ratio_domain_prediction_ratio(ratio), rel=1e-12
            )


class TestQuadraticForms:
    def test_scaling_direction_is_degenerate(self, ar_half):
        assert riemannian_form(ar_half, 2.5 * ar_half.values) == pytest.approx(0.0, abs=1e-24)

    def test_flat_density_first_harmonic(self, grid4096, flat_one):
        assert riemannian_form(flat_one, np.cos(grid4096.nodes)) == pytest.approx(
            0.5, abs=1e-13
        )

    def test_quadratic_homogeneity(self, grid4096, flat_one):
        assert riemannian_form(flat_one, 3.0 * np.cos(grid4096.nodes)) == pytest.approx(
            4.5, abs=1e-12
        )

    def test_ar_density_closed_form(self, grid4096, ar_half):
        # delta/f = cos(theta) * (1.25 - cos(theta)): variance 29/32
        assert riemannian_form(ar_half, np.cos(grid4096.nodes)) == pytest.approx(
            29.0 / 32.0, rel=1e-12
        )

    def test_zeros_are_rejected(self, grid64):
        with pytest.raises(ValueError, match="strictly positive"):
            riemannian_form(psd_with_zero_at(grid64, 1), np.ones(64))

    def test_quotient_past_the_double_range(self):
        # delta/f = 1e310 at every node: constant, so the form is 0
        g = make_grid(8)
        assert riemannian_form(psd_constant(g, 1e-310), np.ones(8)) == 0.0
        # 2**500 at one node and 2**-100 elsewhere: its centered squares pass
        # the double range, the form does not
        f = psd_from_samples(g, [2.0**-1060] + [1.0] * 7)
        assert riemannian_form(f, [2.0**-560] + [2.0**-100] * 7) == pytest.approx(
            7.0 / 64.0 * 2.0**1000, rel=1e-15
        )

    def test_squares_past_the_double_range(self):
        # delta/f is finite, but eight squares of 2**1023 sum past the range
        a = math.sqrt(2.0) * 2.0**511
        assert riemannian_form(psd_constant(make_grid(8), 1.0), [a, -a] * 4) == a * a

    def test_form_past_the_double_range_raises(self):
        with pytest.raises(OverflowError, match="Riemannian form exceeds the double range"):
            riemannian_form(psd_constant(make_grid(8), 1e-310), [1.0, -1.0] * 4)

    def test_length_mismatch_is_rejected(self, flat_one):
        with pytest.raises(ValueError, match="length"):
            riemannian_form(flat_one, np.ones(7))

    @pytest.mark.parametrize("form", [riemannian_form, fisher_form])
    def test_non_finite_perturbation_is_rejected_with_index(self, grid4096, flat_one, form):
        delta = np.zeros(grid4096.n)
        delta[9] = np.nan
        with pytest.raises(ValueError, match=r"delta\[9\] = nan is not finite"):
            form(flat_one, delta)

    def test_fisher_flat_density(self, grid4096, flat_one):
        assert fisher_form(flat_one, np.cos(grid4096.nodes)) == pytest.approx(0.5, abs=1e-13)

    def test_fisher_zero_perturbation(self, grid4096, flat_one):
        assert fisher_form(flat_one, np.zeros(grid4096.n)) == 0.0

    def test_fisher_requires_zero_mean_perturbation(self, grid4096, flat_one):
        with pytest.raises(ValueError, match="mean\\(delta\\)"):
            fisher_form(flat_one, np.ones(grid4096.n))

    def test_fisher_requires_unit_mass(self, grid4096):
        f = psd_constant(grid4096, 2.0)
        with pytest.raises(ValueError, match="mean\\(f\\)"):
            fisher_form(f, np.cos(grid4096.nodes))

    @pytest.mark.parametrize(
        "f,delta,form",
        [
            # 0.25**2 / 2**-1030 = 2**1026 passes the double range, the mean does not
            ([2.0**-1030] + [8 / 7] * 7, [0.25] + [-0.25 / 7] * 7, 2.0**1023),
            # four finite terms of 2**1022 sum past the range, the mean does not
            ([2.0**-1030] * 4 + [2.0] * 4, [2.0**-4] * 4 + [-(2.0**-4)] * 4, 2.0**1021),
        ],
        ids=["quotient", "sum"],
    )
    def test_fisher_terms_past_the_double_range(self, f, delta, form):
        assert fisher_form(psd_from_samples(make_grid(8), f), delta) == form

    def test_fisher_form_past_the_double_range_raises(self):
        f = psd_from_samples(make_grid(8), [1e-310] + [8 / 7] * 7)
        with pytest.raises(OverflowError, match="Fisher form exceeds the double range"):
            fisher_form(f, [1.0] + [-1 / 7] * 7)

    def test_forms_agree_on_flat_density(self, grid4096, flat_one):
        delta = np.cos(grid4096.nodes)
        assert fisher_form(flat_one, delta) == pytest.approx(
            riemannian_form(flat_one, delta), abs=1e-10
        )

    def test_forms_differ_on_curved_density(self, grid4096, ar_half):
        # normalized AR density: 5/6 under Fisher, 29/18 under the ratio form
        f = psd_from_samples(grid4096, 0.75 * ar_half.values)
        delta = np.cos(grid4096.nodes)
        fisher = fisher_form(f, delta)
        ratio_form = riemannian_form(f, delta)
        assert fisher == pytest.approx(5.0 / 6.0, rel=1e-12)
        assert ratio_form == pytest.approx(29.0 / 18.0, rel=1e-12)
        assert abs(fisher - ratio_form) > 1e-3


def perturbed(f, eps, delta):
    return psd_from_samples(f.grid, f.values + eps * delta)


class TestQuadraticExpansions:
    """The divergences all shrink to the same quadratic form, with first-order
    error in the perturbation size."""

    EPSILONS = (1e-2, 1e-3, 1e-4)

    def gaps(self, f, delta, functional):
        g = riemannian_form(f, delta)
        return [abs(functional(f, perturbed(f, e, delta), e) - g) for e in self.EPSILONS]

    def assert_first_order(self, gaps):
        assert gaps[0] > gaps[1] > gaps[2]
        # one decade of epsilon buys roughly one decade of error
        assert gaps[1] <= 0.5 * gaps[0]
        assert gaps[2] <= 0.5 * gaps[1]

    def test_asymmetric_divergence(self, grid4096, ar_half):
        delta = np.cos(grid4096.nodes)
        self.assert_first_order(
            self.gaps(ar_half, delta, lambda f, fp, e: 2.0 * divergence_ag(f, fp) / e**2)
        )

    def test_symmetrized_divergence(self, grid4096, ar_half):
        delta = np.cos(grid4096.nodes)
        self.assert_first_order(
            self.gaps(ar_half, delta, lambda f, fp, e: divergence_sym(f, fp) / e**2)
        )

    @pytest.mark.parametrize("r,s", [(2.0, 1.0), (1.0, -1.0), (3.0, 2.0)])
    def test_power_mean_divergences(self, grid4096, ar_half, r, s):
        delta = np.cos(grid4096.nodes)
        self.assert_first_order(
            self.gaps(
                ar_half,
                delta,
                lambda f, fp, e: 2.0 * divergence_rs(f, fp, r, s) / ((r - s) * e**2),
            )
        )


class TestClassify:
    """The zero-set dichotomy that ``specdist classify`` reports."""

    def test_flat(self, flat_one):
        assert flat_one.zero_set == frozenset()

    def test_with_zero(self, grid64):
        assert psd_with_zero_at(grid64, 0).zero_set == frozenset({0})

    def test_ar_spectra_are_positive(self, grid1024):
        f = psd_from_ar([0.9, -0.3], 0.5, grid1024)
        assert f.zero_set == frozenset()

    def test_names(self, capsys, tmp_path):
        zeroed = tmp_path / "zeroed.csv"
        zeroed.write_text(f"theta,psd\n{-math.pi!r},0\n0,1\n")
        words = []
        for spec in ("const:1", zeroed):
            assert main(["classify", str(spec)]) == 0
            words.append(capsys.readouterr().out)
        assert words == ["StrictlyPositive\n", "HasZeros\n"]
