"""Distances and prediction ratios between AR models in closed form, with no
grid: the grid values agree with the power-sum series and the exact
autocovariances, the series shows the topology the metric induces on the
stable AR(1) family, and a grid too coarse for a sharp peak leads both
prediction routes to the same wrong ratio."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specdist import (
    UnstableModelError,
    geodesic_distance,
    make_grid,
    prediction_ratio,
    psd_from_ar,
    rho_empirical,
)

from conftest import ar_from_reflections
from oracles import ar_distance, ar_prediction_ratio, dilog

GRID = make_grid(4096)
# d_g(AR(a), white) = sqrt(2 Li_2(a^2)) rises to sqrt(2 Li_2(1)) = pi/sqrt(3)
LIMIT = math.pi / math.sqrt(3.0)


def largest_pole(coeffs) -> float:
    return float(max(np.abs(np.roots(np.concatenate(([1.0], -coeffs)))), default=0.0))


reflections = st.lists(st.floats(min_value=-0.95, max_value=0.95), max_size=6)
ar_models = reflections.map(ar_from_reflections)


@pytest.mark.parametrize(
    "a,b,expected",
    [([0.9], [], 1.479934517183), ([1.6, -0.95], [0.3, 0.2], 2.099547976243)],
)
def test_series_reproduces_the_tabulated_distances(a, b, expected):
    assert ar_distance(a, b) == pytest.approx(expected, abs=5e-13)
    assert ar_distance(b, a) == ar_distance(a, b)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(a=ar_models, b=ar_models, gains=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)))
def test_grid_distance_is_the_closed_form(a, b, gains):
    assume(max(largest_pole(a), largest_pole(b)) <= 0.95)
    exact = ar_distance(a, b)
    on_grid = geodesic_distance(psd_from_ar(a, gains[0], GRID), psd_from_ar(b, gains[1], GRID))
    assert on_grid == pytest.approx(exact, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("a", [0.5, 0.9, 0.99, 0.999])
def test_ar1_to_white_is_the_dilogarithm(a):
    li2 = dilog(a * a)
    assert ar_distance([a], []) == pytest.approx(math.sqrt(2.0 * li2), rel=1e-13)


def test_the_stable_ar1_family_is_bounded():
    distances = [ar_distance([a], []) for a in (0.9, 0.99, 0.999)]
    assert distances == sorted(distances) and distances[-1] < LIMIT
    gaps = [LIMIT - d for d in distances]
    # Li_2(1) - Li_2(x) ~ (1 - x)(1 - log(1 - x)): the gap shrinks nearly tenfold
    assert all(6.0 < wide / narrow < 8.0 for wide, narrow in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01


def test_poles_approaching_one_are_a_cauchy_sequence_without_a_limit():
    poles = [1.0 - 10.0**-j for j in range(1, 5)]
    steps = [ar_distance([a], [b]) for a, b in zip(poles, poles[1:])]
    # each step shrinks about sqrt(10)-fold
    assert all(3.0 < wide / narrow < 3.3 for wide, narrow in zip(steps, steps[1:]))
    assert steps[-1] < 0.05
    with pytest.raises(UnstableModelError):
        psd_from_ar([1.0], 1.0, GRID)


def ar_from_roots(rng):
    """A stable AR model of order <= 8 from up to four conjugate root pairs and
    some real roots, every root of modulus <= 0.95.  Six reflections drawn
    uniformly in (-0.95, 0.95) instead put the largest pole at a median
    modulus of 0.992 and up to 0.99999, a peak too sharp for n = 4096."""
    pairs = int(rng.integers(0, 5))
    z = rng.uniform(0.0, 0.95, pairs) * np.exp(1j * rng.uniform(0.0, np.pi, pairs))
    real = rng.uniform(-0.95, 0.95, int(rng.integers(0, 9 - 2 * pairs)))
    return -np.atleast_1d(np.poly(np.concatenate((z, z.conj(), real)))).real[1:]


@pytest.mark.parametrize(
    "a1,a2,expected",
    [([0.9], [-0.9], 18.052631578947368), ([0.5], [], 4.0 / 3.0), ([], [0.5], 1.25)],
)
def test_prediction_ratio_series_reproduces_hand_values(a1, a2, expected):
    # AR(a) against white is c_0 = 1 / (1 - a^2); white against AR(a) is
    # |A|^2's mean 1 + a^2; AR(0.9) against AR(-0.9) is 1.81 c_0 + 1.8 c_1
    assert ar_prediction_ratio(a1, a2) == pytest.approx(expected, rel=1e-15)


def test_both_prediction_routes_are_the_exact_ratio():
    # Levinson's coefficients and the oracle's lags both lose about u times the
    # dynamic range of the density they come from, so each bound carries it.
    rng = np.random.default_rng(12)
    for _ in range(400):
        a1, a2 = ar_from_roots(rng), ar_from_roots(rng)
        f1 = psd_from_ar(a1, float(rng.uniform(0.1, 10.0)), GRID)
        f2 = psd_from_ar(a2, float(rng.uniform(0.1, 10.0)), GRID)
        exact = ar_prediction_ratio(a1, a2)
        spread1, spread2 = (f.values.max() / f.values.min() for f in (f1, f2))
        assert prediction_ratio(f1, f2) == pytest.approx(exact, rel=1e-12 + 2**-52 * spread1)
        for p in {max(a2.size, 1), a2.size + 1, 16}:
            # the order-p predictor of AR(a2) is a2 itself once p >= p2
            ratio = rho_empirical(f1, f2, p)
            assert ratio == pytest.approx(exact, rel=1e-10 + 8 * 2**-52 * spread2)


def test_a_coarse_grid_misleads_both_prediction_routes_alike():
    # poles of modulus sqrt(0.995) at theta = +-0.1227: a peak too sharp for n = 1024
    exact = 157.48427672961571
    assert ar_prediction_ratio([1.98, -0.995], [0.9]) == pytest.approx(exact, rel=1e-15)
    for n, miss in ((1024, 0.165891591903176), (16384, 0.0)):
        grid = make_grid(n)
        f1, f2 = psd_from_ar([1.98, -0.995], 1.0, grid), psd_from_ar([0.9], 1.0, grid)
        formula, finite_order = prediction_ratio(f1, f2), rho_empirical(f1, f2, 16)
        assert finite_order == pytest.approx(formula, rel=1e-13)
        assert formula / exact - 1.0 == pytest.approx(miss, abs=1e-12)
