import numpy as np
import pytest

from specdist import autocov_from_psd, psd_constant
from specdist.grid import (
    FrequencyGrid,
    _centered_mean_square,
    _transform_power,
    central_variance,
    make_grid,
)

from oracles import (
    long_double_dtft_power,
    naive_dtft_power,
    reference_mean,
    two_branch_transform_power,
    two_temporary_central_variance,
)


def test_smallest_grid():
    g = make_grid(2)
    np.testing.assert_array_equal(g.nodes, [-np.pi, 0.0])
    assert g.spacing == np.pi


def test_four_node_grid():
    g = make_grid(4)
    np.testing.assert_allclose(g.nodes, [-np.pi, -np.pi / 2, 0.0, np.pi / 2], rtol=0, atol=1e-15)


def test_large_grid_spacing_and_weights():
    g = make_grid(4096)
    np.testing.assert_allclose(np.diff(g.nodes), 2 * np.pi / 4096, rtol=0, atol=1e-15)
    assert np.mean(np.ones(g.n)) == 1.0


@pytest.mark.parametrize("n", [0, 1, -3])
def test_grid_rejects_tiny_counts(n):
    with pytest.raises(ValueError):
        make_grid(n)


def test_grid_equality_is_by_node_count():
    assert make_grid(16) == make_grid(16)
    assert make_grid(16) != make_grid(17)


@pytest.mark.parametrize("n", [2, 16, 4096])
def test_grid_instances_are_shared(n):
    assert make_grid(n) is make_grid(n)


@pytest.mark.parametrize("n", [2, 7, 8, 4096, np.int64(8)])
def test_constructed_grid_is_the_shared_grid(n):
    g = FrequencyGrid(n)
    assert type(g.n) is int and type(make_grid(n).n) is int
    assert g == make_grid(n) and hash(g) == hash(make_grid(n))
    np.testing.assert_array_equal(g.nodes.view(np.uint64), make_grid(n).nodes.view(np.uint64))
    with pytest.raises(ValueError, match="read-only"):
        g.nodes[0] = 0.0


def test_grid_nodes_are_not_an_argument():
    with pytest.raises(TypeError):
        FrequencyGrid(n=8, nodes=np.linspace(0.0, 1.0, 8))


@pytest.mark.parametrize("n", [1, 0, -3, 8.0, 8.5, pytest.param(np.float64(8), id="float64")])
def test_grid_constructor_refuses_what_make_grid_refuses(n):
    for build in (FrequencyGrid, make_grid):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            build(n)


def test_make_grid_refuses_a_float_equal_to_a_cached_integer():
    make_grid(8), make_grid(np.int64(8))
    with pytest.raises(ValueError, match="at least 2 nodes"):
        make_grid(8.0)


def test_flat_density_on_a_constructed_grid_is_white():
    c = autocov_from_psd(psd_constant(FrequencyGrid(8), 1.0), 2)
    np.testing.assert_allclose(c.lags, [1.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_mean_of_constant_is_normalized():
    g = make_grid(37)
    assert np.mean(np.ones(g.n)) == 1.0


@pytest.mark.parametrize("n", [2, 3, 16, 1024])
def test_mean_kills_first_harmonic(n):
    g = make_grid(n)
    assert abs(np.mean(np.cos(g.nodes))) <= 1e-15


@pytest.mark.parametrize("n", [3, 4, 5, 64, 4096])
def test_mean_of_cos_squared(n):
    g = make_grid(n)
    assert np.mean(np.cos(g.nodes) ** 2) == pytest.approx(0.5, abs=1e-14)


def test_variance_of_constant_is_zero():
    g = make_grid(32)
    assert central_variance(g, np.full(32, 17.5)) == 0.0


def test_variance_of_samples_past_the_double_range():
    g = make_grid(8)
    # the samples' sum passes the range; the variance is 0
    assert central_variance(g, np.full(8, 1.5e308)) == 0.0
    with pytest.raises(OverflowError, match="the variance exceeds the double range"):
        central_variance(g, [1e200, -1e200] * 4)


def test_variance_of_cos():
    g = make_grid(64)
    assert central_variance(g, np.cos(g.nodes)) == pytest.approx(0.5, abs=1e-14)


def test_variance_scales_and_shifts():
    g = make_grid(64)
    assert central_variance(g, 3.0 * np.cos(g.nodes) + 5.0) == pytest.approx(4.5, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 7, 8, 64, 1000, 4096, 8193])
def test_centered_variance_is_the_two_temporary_formula_bitwise(n):
    # one in-place kernel serves central_variance and each row of a block
    rng = np.random.default_rng(n)
    block = rng.standard_normal((32, n)) * rng.choice([1e-6, 1.0, 1e6], size=(32, 1))
    block += rng.choice([0.0, 1.0, -3e4], size=(32, 1))
    expected = np.array([two_temporary_central_variance(x) for x in block])
    g = make_grid(n)
    actual = np.array([central_variance(g, x) for x in block])
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))
    rows = _centered_mean_square(block.copy())
    np.testing.assert_array_equal(rows.view(np.uint64), expected.view(np.uint64))


def test_mean_is_linear():
    rng = np.random.default_rng(7)
    g = make_grid(513)
    x, y = rng.standard_normal(g.n), rng.standard_normal(g.n)
    lhs = np.mean(1.7 * x - 2.3 * y)
    rhs = 1.7 * np.mean(x) - 2.3 * np.mean(y)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_variance_is_shift_invariant():
    rng = np.random.default_rng(8)
    g = make_grid(513)
    x = rng.standard_normal(513)
    assert central_variance(g, x + 42.0) == pytest.approx(central_variance(g, x), abs=1e-12)


def test_variance_clamps_cancellation_residue_to_zero():
    # huge offset + tiny wiggle: the subtraction cancels catastrophically
    rng = np.random.default_rng(9)
    g = make_grid(1024)
    x = 1e8 + rng.normal(0.0, 1e-8, 1024)
    assert central_variance(g, x) >= 0.0


def test_rms_dominates_mean():
    rng = np.random.default_rng(10)
    g = make_grid(256)
    for _ in range(100):
        x = rng.standard_normal(g.n) * rng.uniform(0.01, 100.0)
        assert np.sqrt(np.mean(x * x)) >= np.mean(x)


@pytest.mark.parametrize("degree,n", [(3, 7), (3, 64), (8, 17), (8, 1024)])
def test_trig_polynomial_quadrature_is_exact(degree, n):
    # discrete orthogonality: exact analytic moments once n > 2*degree
    rng = np.random.default_rng(degree * n)
    g = make_grid(n)
    a0 = rng.normal()
    a = rng.normal(size=degree)
    b = rng.normal(size=degree)
    k = np.arange(1, degree + 1)
    x = a0 + a @ np.cos(np.outer(k, g.nodes)) + b @ np.sin(np.outer(k, g.nodes))
    assert np.mean(x) == pytest.approx(a0, abs=1e-13)
    assert central_variance(g, x) == pytest.approx((a @ a + b @ b) / 2.0, rel=1e-12)


def test_reference_rule_agrees_with_grid_rule():
    g = make_grid(4096)
    fn = lambda t: np.exp(np.cos(t)) / (1.25 - np.cos(t))
    assert np.mean(fn(g.nodes)) == pytest.approx(reference_mean(fn), rel=1e-13)


@pytest.mark.parametrize(
    "length,n",
    [(5, 64), (63, 64), (64, 64), (65, 64), (300, 64), (16, 17), (17, 17), (40, 17)],
)
def test_transform_power_matches_dense_sum(length, n):
    # signals shorter than, as long as and longer than the grid (the fold)
    x = np.random.default_rng(length * n).standard_normal(length)
    ref = naive_dtft_power(x, n)
    np.testing.assert_allclose(_transform_power(x, n), ref, rtol=1e-12, atol=1e-12 * ref.max())


@pytest.mark.parametrize("n", [2, 3, 7, 8, 64, 4096])
def test_transform_power_rows_are_the_one_row_transform_bitwise(n):
    # a block of segments gives each segment the bits it gives alone
    rng = np.random.default_rng(n)
    for length in sorted({1, 2, 5, n - 1, n, n + 1, 3 * n + 2}):
        for rows in (1, 15, 16, 17, 33):
            x = rng.standard_normal((rows, length))
            batch = _transform_power(x, n)
            assert batch.shape == (rows, n)
            for row, power in zip(x, batch):
                np.testing.assert_array_equal(
                    power.view(np.uint64), _transform_power(row, n).view(np.uint64)
                )


@pytest.mark.parametrize("n", [2, 3, 7, 8, 64, 1024])
def test_transform_power_is_as_accurate_as_the_two_branch_transform(n):
    # the real FFT and the old complex FFT both stay at rounding level of a
    # long-double dense transform
    rng = np.random.default_rng(n)
    for length in sorted({1, 2, 5, n - 1, n, n + 1, 3 * n + 2}):
        x = rng.standard_normal(length)
        ref = long_double_dtft_power(x, n)
        bound = 4e-15 * float(ref.max())
        for power in (_transform_power(x, n), two_branch_transform_power(x, n)):
            assert float(np.max(np.abs(power - ref))) <= bound
