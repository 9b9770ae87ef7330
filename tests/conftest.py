import numpy as np
import pytest

from specdist import make_grid, psd_constant, psd_from_ar, psd_from_samples
from specdist.spectra import _step_up

# The extremes a density value can take: zero, the least subnormal, the least
# normal and the largest double.
EXTREME_DENSITIES = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64)


@pytest.fixture(scope="session")
def grid1024():
    return make_grid(1024)


@pytest.fixture(scope="session")
def grid4096():
    return make_grid(4096)


@pytest.fixture(scope="session")
def flat_one(grid4096):
    return psd_constant(grid4096, 1.0)


@pytest.fixture(scope="session")
def expcos(grid4096):
    return psd_from_samples(grid4096, np.exp(np.cos(grid4096.nodes)))


@pytest.fixture(scope="session")
def expcos2(grid4096):
    return psd_from_samples(grid4096, np.exp(2.0 * np.cos(grid4096.nodes)))


@pytest.fixture(scope="session")
def ar_half(grid4096):
    return psd_from_ar([0.5], 1.0, grid4096)


def random_positive_spectrum(rng, grid, degree=8):
    """Strictly positive trigonometric polynomial of bounded degree.

    The harmonic amplitudes sum to at most 90% of the constant offset, so
    positivity holds everywhere, not just at the nodes.
    """
    offset = float(np.exp(rng.uniform(-2.0, 2.0)))
    a = rng.normal(size=degree)
    b = rng.normal(size=degree)
    budget = rng.uniform(0.1, 0.9) * offset
    scale = budget / (np.abs(a).sum() + np.abs(b).sum())
    k = np.arange(1, degree + 1)
    values = offset + (scale * a) @ np.cos(np.outer(k, grid.nodes)) + (
        scale * b
    ) @ np.sin(np.outer(k, grid.nodes))
    return psd_from_samples(grid, values)


def psd_with_zero_at(grid, index, base=1.0):
    values = np.full(grid.n, float(base))
    values[index] = 0.0
    return psd_from_samples(grid, values)


def ar_from_reflections(reflections):
    """Coefficients of the AR model with these reflection coefficients,
    stepped up by the Levinson recursion; stable when every |k| < 1."""
    coeffs = np.zeros(len(reflections))
    for m, k in enumerate(reflections, start=1):
        _step_up(coeffs, m, k)
    return coeffs


def stable_ar_coeffs(rng, q):
    """Coefficients of a stable AR(q) model, stepped up from reflection
    coefficients drawn in (-0.7, 0.7)."""
    return ar_from_reflections(rng.uniform(-0.7, 0.7, q))
