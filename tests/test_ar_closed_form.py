"""Distances between AR models in closed form, with no grid: the grid value
agrees with the power-sum series, and the series shows the topology the
metric induces on the stable AR(1) family."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specdist import UnstableModelError, geodesic_distance, make_grid, psd_from_ar

from conftest import ar_from_reflections
from oracles import ar_distance, dilog

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
