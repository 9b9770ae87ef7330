"""Invariants checked over generated inputs rather than hand-picked ones."""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specdist import (
    divergence_ag,
    divergence_rs,
    divergence_sym,
    geodesic_distance,
    make_grid,
    psd_from_samples,
    read_psd_csv,
    write_psd_csv,
)
from specdist import io as specdist_io

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


# Nonnegative doubles across the whole range, with 0, subnormals and values
# near DBL_MAX drawn often.
density_values = st.one_of(
    st.floats(min_value=0.0, max_value=np.finfo(float).max, allow_subnormal=True),
    st.sampled_from(
        [0.0, 5e-324, 1.5e-310, 2.2250738585072009e-308, 1e308, np.finfo(float).max]
    ),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), n=st.integers(min_value=2, max_value=512))
def test_psd_csv_round_trip_is_bitwise(tmp_path_factory, data, n):
    values = data.draw(arrays(np.float64, n, elements=density_values))
    assume(values.any())
    f = psd_from_samples(make_grid(n), values)
    path = tmp_path_factory.mktemp("round_trip") / "f.csv"
    write_psd_csv(f, path)
    g = read_psd_csv(path)
    assert g.grid == f.grid and g.grid.n == n
    np.testing.assert_array_equal(g.values.view(np.uint64), f.values.view(np.uint64))
    assert g.zero_set == f.zero_set
    # the vectorized parse and the row parser read the same bits
    fast = specdist_io._numeric_table(path, (specdist_io._PSD_HEADER_LINE,))
    rows, lines = specdist_io._read_rows(path, specdist_io._PSD_LAYOUT)
    assert fast is not None and fast.shape == rows.shape == (n, 2)
    np.testing.assert_array_equal(fast.view(np.uint64), rows.view(np.uint64))
    assert lines == list(range(2, n + 2))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Zero sets are unions of these bands, so pairs share zero sets, differ in
# them, or have none, all with useful frequency.
ZERO_BANDS = (range(0, 4), range(20, 24), range(40, 48))


@st.composite
def banded_spectra(draw):
    values = draw(positive_samples)
    for band in draw(st.sets(st.sampled_from(range(len(ZERO_BANDS))))):
        values[list(ZERO_BANDS[band])] = 0.0
    return psd_from_samples(GRID, values)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(f=banded_spectra(), g=banded_spectra())
def test_geodesic_distance_is_exactly_symmetric(f, g):
    assert _bits(geodesic_distance(f, g)) == _bits(geodesic_distance(g, f))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(f=banded_spectra(), g=banded_spectra(), h=banded_spectra())
def test_triangle_inequality_with_infinite_legs(f, g, h):
    d_fh = geodesic_distance(f, h)
    d_fg = geodesic_distance(f, g)
    d_gh = geodesic_distance(g, h)
    assert d_fh <= d_fg + d_gh + 1e-12
    assert np.isinf(d_fh) == (f.zero_set != h.zero_set)
