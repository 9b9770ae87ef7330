"""Invariants checked over generated inputs rather than hand-picked ones."""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specdist import (
    build_distance_matrix,
    divergence_ag,
    divergence_rs,
    divergence_sym,
    geodesic_distance,
    geodesic_path,
    geodesic_point,
    make_grid,
    path_length,
    psd_from_samples,
    read_psd_csv,
    scaled_metric_d,
    write_psd_csv,
)
from specdist import io as specdist_io
from specdist.grid import _centered_mean_square, central_variance

from conftest import EXTREME_DENSITIES, random_positive_spectrum
from oracles import cepstral_coordinates, per_row_psd_csv, two_temporary_central_variance

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
    fast = specdist_io._numeric_table(path, specdist_io._PSD_LAYOUT)
    rows, lines = specdist_io._read_rows(path, path, specdist_io._PSD_LAYOUT)
    assert fast is not None and fast.shape == rows.shape == (n, 2)
    np.testing.assert_array_equal(fast.view(np.uint64), rows.view(np.uint64))
    assert lines == list(range(2, n + 2))


# 16385 is past the grids whose theta text is cached
@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.sampled_from([2, 3, 4096, 16385]),
    drawn=arrays(
        np.float64,
        st.integers(min_value=1, max_value=64),
        elements=st.one_of(density_values, st.sampled_from(EXTREME_DENSITIES)),
    ),
)
def test_psd_csv_bytes_are_the_per_row_text(tmp_path_factory, n, drawn):
    # the drawn values repeated to fill the grid
    values = np.resize(drawn, n)
    assume(values.any())
    f = psd_from_samples(make_grid(n), values)
    expected = per_row_psd_csv(make_grid(n).nodes, values)
    path = tmp_path_factory.mktemp("bytes") / "f.csv"
    write_psd_csv(f, path)
    stream = io.StringIO()
    write_psd_csv(f, stream)
    assert path.read_bytes() == expected.encode()
    assert stream.getvalue() == expected


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


@st.composite
def spectra_sharing_zero_bands(draw, count=st.just(2)):
    bands = draw(st.sets(st.sampled_from(range(len(ZERO_BANDS)))))
    spectra = []
    for _ in range(draw(count)):
        values = draw(positive_samples)
        for band in bands:
            values[list(ZERO_BANDS[band])] = 0.0
        spectra.append(psd_from_samples(GRID, values))
    return spectra


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pair=spectra_sharing_zero_bands(), tau=st.floats(min_value=0.0, max_value=1.0))
def test_geodesic_path_is_intrinsic(pair, tau):
    f0, f1 = pair
    d = geodesic_distance(f0, f1)
    for m in (2, 3, 11, 101):
        assert abs(path_length(geodesic_path(f0, f1, m)) - d) <= 1e-10
    assert abs(geodesic_distance(f0, geodesic_point(f0, f1, tau)) - tau * d) <= 1e-10


def _log_rms(f):
    """sqrt(mean(log^2 f)) with 0 at zeros: the norm of all of f's cepstral
    coefficients, c_0 included."""
    logs = np.log(f.values[f.values != 0.0])
    return np.sqrt(logs @ logs / f.grid.n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pair=spectra_sharing_zero_bands())
def test_geodesic_distance_is_the_cepstral_distance(pair):
    # Parseval: the metric is Euclidean in cepstral coordinates.  The two
    # routes round each log separately, so near-proportional pairs agree
    # only in absolute terms: to the size of the logs, whose mean (the
    # dropped c_0) counts too, as a constant ratio shows.
    f, g = pair
    d = geodesic_distance(f, g)
    cepstral = np.linalg.norm(cepstral_coordinates(f.values) - cepstral_coordinates(g.values))
    assert abs(d - cepstral) <= 1e-12 * (d + _log_rms(f) + _log_rms(g))


def _most_negative_gram_eigenvalue_share(entries):
    """Smallest eigenvalue of -J D^2 J / 2 over its largest, J the centring
    projector: never below rounding for a Euclidean distance matrix
    (Schoenberg 1935; Young & Householder 1938)."""
    k = len(entries)
    centring = np.eye(k) - 1.0 / k
    eigenvalues = np.linalg.eigvalsh(-0.5 * centring @ (entries * entries) @ centring)
    return eigenvalues[0] / max(eigenvalues[-1], np.finfo(float).tiny)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(spectra=spectra_sharing_zero_bands(st.integers(min_value=2, max_value=12)))
def test_distance_matrix_is_euclidean(spectra):
    # stronger than every triangle inequality among the spectra
    labels = [str(i) for i in range(len(spectra))]
    entries = build_distance_matrix(spectra, labels).entries
    assert _most_negative_gram_eigenvalue_share(entries) >= -1e-12


def test_benchmark_sized_distance_matrix_is_euclidean():
    rng = np.random.default_rng(200)
    grid = make_grid(4096)
    spectra = [random_positive_spectrum(rng, grid) for _ in range(200)]
    entries = build_distance_matrix(spectra, [str(i) for i in range(200)]).entries
    assert _most_negative_gram_eigenvalue_share(entries) >= -1e-12


blocks = st.integers(min_value=2, max_value=300).flatmap(
    lambda n: arrays(
        np.float64,
        st.tuples(st.integers(min_value=1, max_value=8), st.just(n)),
        elements=st.floats(min_value=-1e6, max_value=1e6),
    )
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(block=blocks)
def test_centered_variance_kernel_is_the_two_temporary_formula(block):
    expected = [_bits(two_temporary_central_variance(x)) for x in block]
    grid = make_grid(block.shape[1])
    assert [_bits(central_variance(grid, x)) for x in block] == expected
    assert [_bits(v) for v in _centered_mean_square(block.copy())] == expected


near_proportional = st.tuples(
    positive_samples,
    arrays(np.float64, GRID.n, elements=st.floats(min_value=-1.0, max_value=1.0)),
    st.floats(min_value=-12.0, max_value=-1.0),
    st.integers(min_value=-250, max_value=250),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pair=near_proportional)
def test_divergences_are_nonnegative_on_near_proportional_pairs(pair):
    # f against 10^exponent * f * exp(eps * shape): the ratio is constant up to
    # eps, where log(mean(exp(.))) used to cancel every digit of the gap
    values, shape, log_eps, exponent = pair
    eps = 10.0**log_eps
    f = psd_from_samples(GRID, values)
    g = psd_from_samples(GRID, 10.0**exponent * values * np.exp(eps * shape))
    for a, b in ((f, g), (g, f)):
        assert divergence_ag(a, b) >= 0.0
        if eps * np.ptp(shape) >= 1e-6:  # a spread far above rounding
            assert divergence_ag(a, b) > 0.0
        assert divergence_sym(a, b) >= 0.0
        for r, s in ((2.0, 1.0), (1.0, -1.0), (0.5, 0.25), (-1.0, -2.0)):
            assert divergence_rs(a, b, r, s) >= 0.0


# Normal doubles from the least to the largest.  (Between subnormals a
# geodesic point can only take the few values the subnormal spacing leaves,
# so its distances lose digits that no formula could keep.)
normal_densities = st.one_of(
    st.floats(min_value=np.finfo(float).tiny, max_value=np.finfo(float).max),
    st.sampled_from([np.finfo(float).tiny, 1e-300, 1e300, np.finfo(float).max]),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    v0=arrays(np.float64, GRID.n, elements=normal_densities),
    v1=arrays(np.float64, GRID.n, elements=normal_densities),
    m=st.integers(min_value=2, max_value=12),
)
def test_geodesics_stay_finite_across_the_double_range(v0, v1, m):
    f0, f1 = psd_from_samples(GRID, v0), psd_from_samples(GRID, v1)
    path = geodesic_path(f0, f1, m)  # each point is a Psd, so finite
    # between the endpoints, up to tau's rounding, which |log f| <= 709 amplifies
    lo, hi = np.minimum(v0, v1), np.maximum(v0, v1)
    for point in path:
        assert np.all(lo - point.values <= 1e-12 * lo)
        assert np.all(point.values - hi <= 1e-12 * hi)
    d = geodesic_distance(f0, f1)
    assert path_length(path) == pytest.approx(d, rel=1e-12, abs=1e-12)
    assert math.isfinite(scaled_metric_d(f0, f1))
