"""Invariants checked over generated inputs rather than hand-picked ones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specdist import (
    divergence_ag,
    divergence_rs,
    divergence_sym,
    geodesic_distance,
    make_grid,
    psd_from_samples,
)

GRID = make_grid(64)

positive_samples = arrays(
    np.float64, GRID.n, elements=st.floats(min_value=1e-3, max_value=1e3)
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    f_values=positive_samples,
    g_values=positive_samples,
    exponent=st.integers(min_value=-250, max_value=250),
    orders=st.sampled_from([(2.0, 1.0), (1.0, -1.0), (3.0, 2.0), (-1.0, -2.0)]),
)
def test_scale_blindness_across_the_double_range(f_values, g_values, exponent, orders):
    f = psd_from_samples(GRID, f_values)
    g = psd_from_samples(GRID, g_values)
    cg = psd_from_samples(GRID, 10.0**exponent * g_values)
    r, s = orders
    for functional in (
        geodesic_distance,
        divergence_ag,
        divergence_sym,
        lambda a, b: divergence_rs(a, b, r, s),
    ):
        assert functional(f, cg) == pytest.approx(functional(f, g), abs=1e-12)
        assert functional(cg, f) == pytest.approx(functional(g, f), abs=1e-12)
