import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from specdist import (
    GeodesicPath,
    NoFiniteGeodesicError,
    geodesic_distance,
    geodesic_path,
    geodesic_point,
    geodesics,
    make_grid,
    path_length,
    psd_constant,
    psd_from_samples,
)

from conftest import psd_with_zero_at, random_positive_spectrum


@pytest.fixture()
def pair(grid1024):
    rng = np.random.default_rng(40)
    return (
        random_positive_spectrum(rng, grid1024),
        random_positive_spectrum(rng, grid1024),
    )


class TestGeodesicPoint:
    def test_endpoints_are_returned_exactly(self, pair):
        f0, f1 = pair
        assert geodesic_point(f0, f1, 0.0) is f0
        assert geodesic_point(f0, f1, 1.0) is f1

    def test_midpoint_of_exponentials(self, grid4096, flat_one, expcos, expcos2):
        mid = geodesic_point(flat_one, expcos2, 0.5)
        np.testing.assert_allclose(mid.values, expcos.values, rtol=1e-14)

    @pytest.mark.parametrize("tau", [-0.1, 1.1, 2.0])
    def test_extrapolation_is_refused(self, pair, tau):
        with pytest.raises(ValueError, match="extrapolation"):
            geodesic_point(*pair, tau)

    def test_differing_zero_sets_have_no_path(self, grid64):
        f0 = psd_with_zero_at(grid64, 4)
        f1 = psd_constant(grid64, 1.0)
        with pytest.raises(NoFiniteGeodesicError):
            geodesic_point(f0, f1, 0.5)

    def test_shared_zeros_stay_zero(self, grid64):
        f0 = psd_with_zero_at(grid64, 4, base=1.0)
        f1 = psd_with_zero_at(grid64, 4, base=3.0)
        for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert geodesic_point(f0, f1, tau).values[4] == 0.0

    def test_ray_equivariance(self, pair):
        f0, f1 = pair
        k0, k1, tau = 0.2, 5.0, 0.3
        lhs = geodesic_point(
            psd_from_samples(f0.grid, k0 * f0.values),
            psd_from_samples(f1.grid, k1 * f1.values),
            tau,
        )
        rhs = k0 ** (1 - tau) * k1**tau * geodesic_point(f0, f1, tau).values
        np.testing.assert_allclose(lhs.values, rhs, rtol=1e-12)

    @pytest.mark.parametrize("tau", [0.125, 0.25, 0.3, 0.5, 0.9])
    def test_midpoint_symmetry(self, pair, tau):
        f0, f1 = pair
        np.testing.assert_allclose(
            geodesic_point(f0, f1, tau).values,
            geodesic_point(f1, f0, 1.0 - tau).values,
            rtol=1e-12,
        )

    def test_grid_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="different grids"):
            geodesic_point(psd_constant(make_grid(8), 1.0), psd_constant(make_grid(16), 1.0), 0.5)

    def test_overflowing_product_keeps_the_larger_endpoint(self):
        # at tau = 3e-19 the interpolant rounds to DBL_MAX, though 1e200 is far below it
        top = np.finfo(float).max
        point = geodesic_point(psd_constant(make_grid(8), top), psd_constant(make_grid(8), 1e200), 3e-19)
        np.testing.assert_array_equal(point.values, top)


class TestGeodesicPath:
    def test_two_point_path_is_the_endpoints(self, pair, point_calls):
        path = geodesic_path(*pair, 2)
        assert tuple(path) == pair
        assert point_calls == [0.0, 1.0]

    def test_three_point_path_midpoint(self, grid4096, flat_one, expcos, expcos2):
        path = geodesic_path(flat_one, expcos2, 3)
        np.testing.assert_allclose(path[1].values, expcos.values, rtol=1e-14)

    def test_short_paths_are_rejected(self, pair):
        with pytest.raises(ValueError, match="endpoints"):
            geodesic_path(*pair, 1)

    def test_consecutive_points_are_equidistant(self, pair):
        path = geodesic_path(*pair, 11)
        segments = [geodesic_distance(a, b) for a, b in zip(path[:-1], path[1:])]
        np.testing.assert_allclose(segments, segments[0], rtol=1e-9)

    def test_points_are_recomputable_from_taus(self, pair):
        f0, f1 = pair
        path = geodesic_path(f0, f1, 7)
        for k, point in enumerate(path):
            np.testing.assert_array_equal(point.values, geodesic_point(f0, f1, k / 6).values)


@pytest.fixture()
def point_calls(monkeypatch):
    """Count the calls to geodesic_point, where path points are computed."""
    calls = []

    def counted(f0, f1, tau):
        calls.append(tau)
        return geodesic_point(f0, f1, tau)

    monkeypatch.setattr(geodesics, "geodesic_point", counted)
    return calls


def arrays_held(value):
    """The arrays among the fields of a dataclass value."""
    fields = (getattr(value, f.name) for f in dataclasses.fields(value))
    return [v for v in fields if isinstance(v, np.ndarray)]


class TestStreamedPath:
    """geodesic_path checks its endpoints at once and computes each point only
    when it is accessed, keeping none."""

    def test_a_walk_holds_a_few_points(self):
        grid = make_grid(4096)
        rng = np.random.default_rng(42)
        f0, f1 = random_positive_spectrum(rng, grid), random_positive_spectrum(rng, grid)
        tracemalloc.start()
        try:
            for point in geodesic_path(f0, f1, 400):
                assert point.values.size == grid.n
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 400 held points would take 400 * 32 KiB
        assert peak < 8 * grid.n * 8 + 16 * 1024

    def test_a_long_path_is_not_computed_up_front(self, grid64, point_calls):
        path = geodesic_path(psd_constant(grid64, 1.0), psd_constant(grid64, 2.0), 10**7)
        assert len(path) == 10**7
        assert point_calls == []
        assert path[-1].values[0] == 2.0

    def test_indexing_is_geodesic_point_at_the_same_tau(self, pair):
        f0, f1 = pair
        path = geodesic_path(f0, f1, 9)
        for k in (0, 3, 8, -1, -9, np.int64(4)):
            expected = geodesic_point(f0, f1, (k % 9) / 8).values
            assert path[k].values.tobytes() == expected.tobytes()
        window = path[2:5]
        assert type(window) is tuple and len(window) == 3
        for point, k in zip(window, range(2, 5)):
            assert point.values.tobytes() == geodesic_point(f0, f1, k / 8).values.tobytes()
        assert len(path[::-3]) == 3
        for k in (9, -10):
            with pytest.raises(IndexError):
                path[k]
        with pytest.raises(TypeError):
            path[1.0]

    def test_points_are_read_only(self, pair):
        points = geodesic_path(*pair, 3)
        with pytest.raises(TypeError):
            points[1] = pair[0]
        with pytest.raises(AttributeError):
            points.f0 = pair[1]

    def test_membership_is_refused(self, pair):
        # each access builds a new density, and densities compare by identity,
        # so a search would find only the endpoints
        path = geodesic_path(*pair, 5)
        with pytest.raises(TypeError):
            path[2] in path
        assert not hasattr(path, "index")
        assert not hasattr(path, "count")

    @pytest.mark.parametrize("m", [2, 3, 11])
    def test_iterating_computes_each_point_once(self, pair, point_calls, m):
        points = list(geodesic_path(*pair, m))
        assert len(points) == m
        assert point_calls == [k / (m - 1) for k in range(m)]

    def test_reversed_gives_the_points_in_reverse(self, pair):
        path = geodesic_path(*pair, 6)
        forward = [point.values.tobytes() for point in path]
        assert [point.values.tobytes() for point in reversed(path)] == forward[::-1]

    @pytest.mark.parametrize("m", [2, 3, 11])
    def test_path_length_computes_each_point_once(self, pair, point_calls, m):
        path_length(geodesic_path(*pair, m))
        assert len(point_calls) == m

    def test_differing_zero_sets_are_refused_before_any_point(self, grid64, point_calls):
        for build in (geodesic_path, GeodesicPath):
            with pytest.raises(NoFiniteGeodesicError, match="infinitely far apart"):
                build(psd_with_zero_at(grid64, 4), psd_constant(grid64, 1.0), 5)
            with pytest.raises(ValueError, match="different grids"):
                build(psd_constant(make_grid(8), 1.0), psd_constant(make_grid(16), 1.0), 5)
        assert point_calls == []

    @pytest.mark.parametrize(
        "route", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))], ids=["deepcopy", "pickle"]
    )
    def test_a_copy_has_the_same_points(self, pair, route):
        path = geodesic_path(*pair, 5)
        copied = route(path)
        assert copied.m == path.m
        assert arrays_held(copied) == []
        assert len(copied) == 5
        for a, b in zip(path, copied):
            assert a.values.tobytes() == b.values.tobytes()


class TestPathValue:
    """A GeodesicPath is its endpoints and its count, copies included."""

    def test_taus_are_built_once_and_as_before(self, grid64, point_calls):
        m = 10**6
        f0, f1 = psd_constant(grid64, 1.0), psd_constant(grid64, 2.0)
        tracemalloc.start()
        try:
            path = geodesic_path(f0, f1, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a tau array alone would take m * 8 bytes, one point 512 bytes
        assert peak < 64 * 1024
        ks = [0, 1, 2, 333_333, 500_000, m - 2, m - 1]
        for k in ks:
            path[k]
        # point k sits at the tau the old np.arange(m) / (m - 1) held, bit for bit
        expected = np.arange(m) / (m - 1)
        assert np.array(point_calls).tobytes() == expected[ks].tobytes()

    def test_a_path_holds_one_tau_array(self, pair):
        # the taus are k / (m - 1), derived from m: no array is stored
        path = geodesic_path(*pair, 5)
        assert arrays_held(path) == []
        assert path.m == 5

    @pytest.mark.parametrize(
        "route", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))], ids=["deepcopy", "pickle"]
    )
    def test_a_copy_of_a_long_path_holds_its_taus_once(self, grid64, route):
        m = 10**6
        path = geodesic_path(psd_constant(grid64, 1.0), psd_constant(grid64, 2.0), m)
        tracemalloc.start()
        try:
            copied = route(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a tau array alone would take m * 8 bytes; each copy held 7.6 MB when it had one
        assert held < 64 * 1024
        assert copied.m == m and len(copied) == m
        assert arrays_held(copied) == []

    @pytest.mark.parametrize(
        "route", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_copy_has_read_only_taus(self, pair, route):
        for path in (geodesic_path(*pair, 5), GeodesicPath(*pair, 2)):
            copied = route(path)
            assert type(copied) is GeodesicPath
            assert arrays_held(copied) == []
            with pytest.raises(AttributeError):
                copied.m = 3
            assert len(copied) == len(path)
            for a, b in zip(path, copied):
                assert a.values.tobytes() == b.values.tobytes()

    def test_repeated_taus_are_a_path(self, pair):
        f0, f1 = pair
        assert path_length((f0, f0, f1)) == geodesic_distance(f0, f1)


class TestIntrinsicProperty:
    def test_distance_grows_proportionally(self, grid1024):
        # d_g is blind to scale, so every scaled geodesic point c * f_tau also
        # attains equality in the triangle inequality
        rng = np.random.default_rng(41)
        for _ in range(10):
            f0 = random_positive_spectrum(rng, grid1024)
            f1 = random_positive_spectrum(rng, grid1024)
            d = geodesic_distance(f0, f1)
            for tau in np.arange(0.1, 0.95, 0.1):
                point = geodesic_point(f0, f1, tau).values
                for c in (1.0, 1e-30, 7.5, 1e30):
                    f_tau = psd_from_samples(grid1024, c * point)
                    d0, d1 = geodesic_distance(f0, f_tau), geodesic_distance(f_tau, f1)
                    assert abs(d0 - tau * d) <= 1e-10
                    assert abs(d1 - (1.0 - tau) * d) <= 1e-10
                    assert abs(d0 + d1 - d) <= 1e-10

    @pytest.mark.parametrize("m", [2, 3, 11, 101])
    def test_path_length_equals_endpoint_distance(self, pair, m):
        f0, f1 = pair
        assert abs(path_length(geodesic_path(f0, f1, m)) - geodesic_distance(f0, f1)) <= 1e-10

    def test_one_point_path_has_length_float_zero(self, pair):
        for points in (pair[:1], ()):
            length = path_length(points)
            assert type(length) is float and length == 0.0

    def test_same_ray_endpoints_have_zero_length_path(self, grid64):
        f0 = psd_constant(grid64, 1.0)
        f1 = psd_constant(grid64, 5.0)
        assert path_length(geodesic_path(f0, f1, 9)) <= 1e-12

    def test_exponential_family_path(self, grid4096, flat_one, expcos):
        # the m-point discretization must reproduce sqrt(1/2) for every m
        assert path_length(geodesic_path(expcos, flat_one, 50)) == pytest.approx(
            np.sqrt(0.5), abs=1e-10
        )
