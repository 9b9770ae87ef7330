"""Value objects own their vectors: each stores a checked, read-only vector
that no writable array can reach."""

import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

import specdist
from specdist import (
    Autocovariance,
    DistanceMatrix,
    FrequencyGrid,
    GeodesicPath,
    PredictorCoeffs,
    Psd,
    TimeSeries,
    autocov_from_psd,
    degraded_variance,
    geodesic_distance,
    geodesic_path,
    levinson,
    make_grid,
    psd_constant,
    psd_from_ar,
    psd_from_samples,
    rho_empirical,
    welch,
)

GRID = make_grid(8)

# How each value object is built from a caller's vector, and where it keeps it.
OWNERS = {
    "Psd": (lambda x: Psd(GRID, x), lambda v: v.values),
    "psd_from_samples": (lambda x: psd_from_samples(GRID, x), lambda v: v.values),
    "TimeSeries": (lambda x: TimeSeries(samples=x), lambda v: v.samples),
    "Autocovariance": (lambda x: Autocovariance(lags=x), lambda v: v.lags),
    "PredictorCoeffs": (
        lambda x: PredictorCoeffs(coeffs=x, attained_variance=1.0),
        lambda v: v.coeffs,
    ),
}


@pytest.mark.parametrize("kind", sorted(OWNERS))
def test_stores_a_read_only_copy_of_the_callers_vector(kind):
    build, stored = OWNERS[kind]
    x = 0.5 ** np.arange(GRID.n)
    value = build(x)
    x[0] = 9.0  # the caller's array stays writable ...
    assert stored(value)[0] == 1.0  # ... and changing it leaves the value alone
    assert not stored(value).flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stored(value)[0] = 2.0


@pytest.mark.parametrize("kind", sorted(OWNERS))
def test_keeps_a_read_only_float64_array_that_owns_its_memory(kind):
    build, stored = OWNERS[kind]
    x = 0.5 ** np.arange(GRID.n)
    x.setflags(write=False)
    assert np.shares_memory(stored(build(x)), x)


@pytest.mark.parametrize("kind", sorted(OWNERS))
def test_copies_a_read_only_view_of_a_writable_array(kind):
    build, stored = OWNERS[kind]
    base = 0.5 ** np.arange(GRID.n)
    x = base[:]
    x.setflags(write=False)
    value = build(x)
    base[0] = 9.0  # writing the base reaches x ...
    assert stored(value)[0] == 1.0  # ... but not the value


@pytest.mark.parametrize("kind", sorted(OWNERS))
def test_converts_a_read_only_int_array(kind):
    build, stored = OWNERS[kind]
    x = np.arange(GRID.n, 0, -1)
    x.setflags(write=False)
    v = stored(build(x))
    assert v.dtype == np.float64 and v.tolist() == list(range(GRID.n, 0, -1))
    assert not v.flags.writeable


@pytest.mark.parametrize("kind", sorted(OWNERS))
def test_a_list_is_stored_as_float64(kind):
    build, stored = OWNERS[kind]
    v = stored(build([1, 0, 0, 0, 0, 0, 0, 0]))
    assert v.dtype == np.float64 and v.tolist() == [1.0] + [0.0] * 7


# One value of each type, and the routes by which a caller can copy it.
VALUES = {
    "FrequencyGrid": lambda: FrequencyGrid(8),
    "Psd": lambda: Psd(GRID, [1, 0, 2, 3, 4, 5, 6, 7]),
    "TimeSeries": lambda: TimeSeries(samples=[1.5, -2.0, 3.0]),
    "Autocovariance": lambda: Autocovariance(lags=[2.0, 1.0, -0.5]),
    "PredictorCoeffs": lambda: PredictorCoeffs(coeffs=[0.5, -0.25], attained_variance=1.5),
    "DistanceMatrix": lambda: DistanceMatrix(labels=("a", "b"), entries=[[0, np.inf], [np.inf, 0]]),
    "GeodesicPath": lambda: GeodesicPath(
        Psd(GRID, [1, 0, 2, 3, 4, 5, 6, 7]), Psd(GRID, [7, 0, 6, 5, 4, 3, 2, 1]), 5
    ),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("route", sorted(COPIES))
@pytest.mark.parametrize("kind", sorted(VALUES))
def test_a_copy_is_rebuilt_by_the_constructor(kind, route):
    original = VALUES[kind]()
    copied = COPIES[route](original)
    assert_same_fields(copied, original)


def assert_same_fields(copied, original):
    """The fields agree: arrays by their bits and read-only, densities (which
    compare by identity) field by field, the rest by ``==``."""
    assert type(copied) is type(original)
    for f in dataclasses.fields(original):
        a, b = getattr(original, f.name), getattr(copied, f.name)
        if isinstance(a, np.ndarray):
            assert not b.flags.writeable and b.dtype == a.dtype
            np.testing.assert_array_equal(b.view(np.uint64), a.view(np.uint64))
        elif isinstance(a, Psd):
            assert_same_fields(b, a)
        else:
            assert b == a


@pytest.mark.parametrize("route", sorted(COPIES))
@pytest.mark.parametrize("n", [2, 7, 4096, np.int64(8)])
def test_a_copied_grid_is_the_shared_grid(n, route):
    for g in (FrequencyGrid(n), make_grid(n)):
        assert COPIES[route](g) is make_grid(n)


def test_unpickled_densities_share_one_grid():
    grid = make_grid(4096)
    rng = np.random.default_rng(9)
    pickles = [pickle.dumps(psd_from_samples(grid, rng.random(grid.n))) for _ in range(200)]
    tracemalloc.start()
    try:
        densities = [pickle.loads(p) for p in pickles]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(f.grid is grid for f in densities)
    # the values take 200 * 32 KiB = 6.25 MiB; a grid per density doubles it
    assert held <= 7 * 2**20


# Each value type stores what it is given, once; what it can derive it derives.
INIT_FIELDS = {
    "FrequencyGrid": ("n",),
    "Psd": ("grid", "values"),
    "TimeSeries": ("samples",),
    "Autocovariance": ("lags",),
    "PredictorCoeffs": ("coeffs", "attained_variance"),
    "GeodesicPath": ("f0", "f1", "m"),
    "DistanceMatrix": ("labels", "entries"),
}


@pytest.mark.parametrize("kind", sorted(INIT_FIELDS))
def test_init_fields(kind):
    fields = dataclasses.fields(getattr(specdist, kind))
    assert tuple(f.name for f in fields if f.init) == INIT_FIELDS[kind]


AR1 = psd_from_ar([0.5], 1.0, make_grid(64))
SERIES = TimeSeries(samples=np.sin(np.arange(64.0)))

# Each function that takes a count: a call with count k, a valid k, and a
# count below its minimum with the message that refuses it.  FrequencyGrid's
# count is checked in test_grid.
COUNTS = {
    "autocov_from_psd": (
        lambda k: autocov_from_psd(AR1, k), 3, -1, "max_lag must be >= 0, got -1"),
    "levinson": (
        lambda k: levinson(autocov_from_psd(AR1, 4), k), 3, 0,
        "predictor order must be >= 1, got 0"),
    "rho_empirical": (
        lambda k: rho_empirical(AR1, psd_constant(AR1.grid, 1.0), k), 3, 0,
        "predictor order must be >= 1, got 0"),
    "welch": (
        lambda k: welch(SERIES, k, 0.5, "hann", AR1.grid), 16, 7,
        "segment length must be >= 8, got 7"),
    "geodesic_path": (
        lambda k: geodesic_path(AR1, psd_constant(AR1.grid, 1.0), k), 3, 1,
        "a path needs at least its 2 endpoints, got m = 1"),
}


@pytest.mark.parametrize("kind", sorted(COUNTS))
def test_counts_are_integers(kind):
    call, k, below, message = COUNTS[kind]
    for x in (k + 0.7, float(k), np.float64(k)):
        with pytest.raises(ValueError, match="which is not an integer"):
            call(x)
    assert pickle.dumps(call(np.int64(k))) == pickle.dumps(call(k))
    with pytest.raises(ValueError) as exc:
        call(below)
    assert str(exc.value) == message


class TestPsd:
    def test_zero_set_is_derived_from_the_values(self):
        f = Psd(GRID, [1, 0, 1, 1, 1, 1, 0, 1])
        assert f.zero_set == frozenset({1, 6})
        # with its zero known, the pair with a flat density is infinite, not
        # a divide-by-zero warning
        assert geodesic_distance(f, psd_constant(GRID, 1.0)) == np.inf

    def test_zero_set_cannot_be_given(self):
        with pytest.raises(TypeError):
            Psd(GRID, np.ones(GRID.n), frozenset())

    @pytest.mark.parametrize(
        "values,message",
        [
            ([1, 1, -0.5, 1, 1, 1, 1, 1], r"values\[2\] = -0.5; density samples must be finite and >= 0"),
            ([1, np.nan, -0.5, 1, 1, 1, 1, 1], r"values\[1\] = nan is not finite"),
            (np.zeros(8), "the all-zero vector is not a density"),
            (np.ones(7), r"values must be a vector of length 8, got shape \(7,\)"),
        ],
    )
    def test_checks_are_those_of_psd_from_samples(self, values, message):
        for build in (Psd, psd_from_samples):
            with pytest.raises(ValueError, match=message):
                build(GRID, values)


class TestPredictorCoeffs:
    def test_order_is_the_coefficient_count(self):
        # no order can be given that disagrees with the taps, so 600 of them
        # always meet degraded_variance's n > 2*order guard on n = 1024
        pred = PredictorCoeffs(coeffs=np.full(600, 1e-3), attained_variance=1.0)
        assert pred.order == 600
        with pytest.raises(TypeError):
            PredictorCoeffs(order=1, coeffs=[0.5], attained_variance=1.0)
        with pytest.raises(ValueError, match="too coarse for an order-600"):
            degraded_variance(psd_constant(make_grid(1024), 1.0), pred)

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError, match=r"coeffs\[1\] = nan is not finite"):
            PredictorCoeffs(coeffs=[0.5, np.nan], attained_variance=1.0)

    def test_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="coeffs must be a vector"):
            PredictorCoeffs(coeffs=np.zeros((1, 2)), attained_variance=1.0)

    @pytest.mark.parametrize("variance", [-5.0, 0.0, np.inf, np.nan])
    def test_rejects_an_unattainable_variance(self, variance):
        with pytest.raises(ValueError, match="attained variance must be finite and > 0"):
            PredictorCoeffs(coeffs=[], attained_variance=variance)

    def test_order_zero_still_gives_total_power(self):
        f = psd_from_ar([0.5], 1.0, make_grid(64))
        pred = PredictorCoeffs(coeffs=[], attained_variance=1.0)
        assert pred.coeffs.shape == (0,)
        assert degraded_variance(f, pred) == np.mean(f.values)


class TestCheckMessages:
    def test_time_series_shape(self):
        message = r"samples must be a vector of length at least 2, got shape \(1,\)"
        with pytest.raises(ValueError, match=message):
            TimeSeries(samples=[1.0])
        with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
            TimeSeries(samples=np.ones((2, 2)))

    def test_non_finite_lags(self):
        with pytest.raises(ValueError, match=r"lags\[2\] = inf is not finite"):
            Autocovariance(lags=[1.0, 0.5, np.inf])

    def test_empty_lags(self):
        with pytest.raises(ValueError, match=r"lags must be a vector of length at least 1"):
            Autocovariance(lags=[])

    def test_non_finite_ar_coefficients(self):
        with pytest.raises(ValueError, match=r"a\[1\] = nan is not finite"):
            psd_from_ar([0.5, np.nan], 1.0, GRID)
        with pytest.raises(ValueError, match=r"a must be a vector"):
            psd_from_ar(np.zeros((2, 2)), 1.0, GRID)

    def test_scalar_ar_coefficient_is_a_vector_of_one(self):
        scalar, vector = psd_from_ar(0.5, 1.0, GRID), psd_from_ar([0.5], 1.0, GRID)
        assert scalar.values.tolist() == vector.values.tolist()
