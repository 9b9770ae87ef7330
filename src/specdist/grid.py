"""Uniform frequency grid on [-pi, pi) and normalized quadrature.

Every integral in this package is taken against the normalized measure
dtheta/(2*pi), so on the uniform grid it reduces to a plain average of the
samples.  For 2*pi-periodic integrands the left-endpoint rule coincides
with the trapezoid rule and is spectrally accurate: trigonometric
polynomials of degree d integrate exactly once n > 2d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["FrequencyGrid", "make_grid", "mean", "central_variance"]


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Uniform angles theta_k = -pi + 2*pi*k/n for k = 0..n-1, weight 1/n each.

    The weights sum to one, so summing samples*weight approximates the
    normalized integral over [-pi, pi).  Grids compare equal iff they have
    the same node count; nodes are a pure function of ``n``.
    """

    n: int
    nodes: np.ndarray

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrequencyGrid) and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    @property
    def weight(self) -> float:
        return 1.0 / self.n

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n


@functools.lru_cache(maxsize=16)
def make_grid(n: int) -> FrequencyGrid:
    """Build the uniform n-node grid on [-pi, pi).

    Grids are immutable and depend only on ``n``, so repeated calls share
    one instance (and one ``nodes`` array) per node count.

    Parameters
    ----------
    n : int
        Number of nodes, at least 2.

    Returns
    -------
    FrequencyGrid
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"grid needs at least 2 nodes, got {n}")
    nodes = -np.pi + (2.0 * np.pi / n) * np.arange(n)
    nodes.setflags(write=False)
    return FrequencyGrid(n=n, nodes=nodes)


def _vector(x, name: str, length: int | None = None, at_least: int = 0) -> np.ndarray:
    """A read-only float64 copy of ``x``, which must be a finite 1-d vector of
    exactly ``length`` entries when given, and of at least ``at_least``."""
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.size < at_least or length not in (None, v.size):
        size = f"length {length}" if length is not None else f"length at least {at_least}"
        raise ValueError(f"{name} must be a vector of {size}, got shape {v.shape}")
    if not np.isfinite(v).all():
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"{name}[{bad}] = {v[bad]} is not finite")
    v.setflags(write=False)
    return v


def mean(grid: FrequencyGrid, samples) -> float:
    """Quadrature for the normalized integral of ``samples`` over the grid.

    Equals the arithmetic average (1/n) * sum(samples).
    """
    return float(np.mean(_vector(samples, "samples", grid.n)))


def central_variance(grid: FrequencyGrid, samples) -> float:
    """mean(samples^2) - mean(samples)^2, evaluated in centered form.

    Computed as mean((samples - mean)^2): the same value, but without the
    catastrophic cancellation of the two-term difference, which matters
    because near-constant sample vectors (proportional densities) must come
    out at variance ~0 rather than at the subtraction's rounding residue.
    The centered form is a mean of squares, so the result is nonnegative by
    construction.
    """
    x = _vector(samples, "samples", grid.n)
    centered = x - float(np.mean(x))
    return float(np.mean(centered * centered))


def _transform_power(x: np.ndarray, n: int) -> np.ndarray:
    """|sum_t x_t e^{-i t theta_k}|^2 at the grid nodes theta_k = -pi + 2 pi k / n.

    Since e^{-i t theta_k} = (-1)^t e^{-2 pi i t k / n}, the sum equals an
    n-point DFT of the sign-alternated signal folded modulo n; the fold is
    exact for any signal length.
    """
    signed = x * np.where(np.arange(x.size) % 2, -1.0, 1.0)
    if signed.size <= n:
        folded = np.zeros(n)
        folded[: signed.size] = signed
    else:
        padded = np.zeros(-(-signed.size // n) * n)
        padded[: signed.size] = signed
        folded = padded.reshape(-1, n).sum(axis=0)
    return np.abs(np.fft.fft(folded)) ** 2
