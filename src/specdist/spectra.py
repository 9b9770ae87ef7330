"""Power spectral densities on a grid: construction, pointwise algebra,
and the log-ratio primitive with explicit zero bookkeeping.

A density is a nonnegative sample vector; the indices where it is exactly
zero are tracked because they decide whether log-based functionals stay
finite.  Zero detection is exact on purpose: a tiny positive sample
legitimately yields a large-but-finite distance, and thresholding it away
would silently change the metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalizableError, UnstableModelError
from .grid import FrequencyGrid, _as_samples, _transform_power

__all__ = [
    "Psd",
    "SpectralRay",
    "LogRatio",
    "psd_from_samples",
    "psd_constant",
    "psd_from_ar",
    "log_ratio",
    "generalized_mean",
    "geometric_mean",
    "arithmetic_mean",
    "normalize_to_ray",
]

@dataclass(frozen=True, eq=False)
class Psd:
    """Nonnegative density samples ``values[k] = f(theta_k)`` on ``grid``.

    ``zero_set`` holds the indices where the density is exactly zero.  The
    all-zero function is not a valid density.  Instances are immutable;
    ``values`` is a read-only array.
    """

    grid: FrequencyGrid
    values: np.ndarray
    zero_set: frozenset

    @property
    def strictly_positive(self) -> bool:
        return not self.zero_set


@dataclass(frozen=True, eq=False)
class SpectralRay:
    """A scale-equivalence class of densities, stored via the representative
    whose geometric mean is one.  Only strictly positive densities have such
    a representative."""

    representative: Psd


@dataclass(frozen=True, eq=False)
class LogRatio:
    """Pointwise log(f1/f2), or the marker for pairs that have none.

    ``samples is None`` iff some grid point carries a zero of exactly one of
    the two densities; the log-ratio then fails to be square-summable in the
    limit and the geodesic distance is infinite.  At shared zeros the ratio
    is taken to be one (samples entry 0), so a density stays at distance
    zero from itself.  Every distance and divergence in
    :mod:`specdist.divergences` is a functional of these samples.
    """

    samples: np.ndarray | None

    @property
    def defined(self) -> bool:
        return self.samples is not None


def _freeze(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def psd_from_samples(grid: FrequencyGrid, values) -> Psd:
    """Validate a sample vector and wrap it as a density on ``grid``.

    Raises ``ValueError`` (naming the first offending index) for non-finite
    entries, then for negative ones, and for the all-zero vector.
    """
    v = _as_samples(grid, np.array(values, dtype=float), "values")
    negative = np.flatnonzero(v < 0.0)
    if negative.size:
        i = int(negative[0])
        raise ValueError(f"values[{i}] = {v[i]}; density samples must be finite and >= 0")
    if not v.any():
        raise ValueError("the all-zero vector is not a density")
    zero_set = frozenset(np.flatnonzero(v == 0.0).tolist())
    return Psd(grid=grid, values=_freeze(v), zero_set=zero_set)


def psd_constant(grid: FrequencyGrid, level: float) -> Psd:
    """Flat density at ``level`` > 0 (white noise of that variance)."""
    return psd_from_samples(grid, np.full(grid.n, float(level)))


def _require_stable(a: np.ndarray) -> None:
    """Raise UnstableModelError unless every root of A(z) = 1 - sum_l a[l-1] z^{-l}
    lies strictly inside the unit circle.

    Step-down (reverse Levinson) recursion: the order-m predictor's last
    coefficient is its reflection coefficient k_m, and removing it gives the
    order-(m-1) predictor.  A is stable iff |k_m| < 1 at every order.
    """
    c = a
    for m in range(a.size, 0, -1):
        k = c[-1]
        if not abs(k) < 1.0:
            raise UnstableModelError(
                f"AR model is not stable: reflection coefficient k_{m} = {k:.6g} "
                "has modulus >= 1"
            )
        head = c[:-1]
        c = (head + k * head[::-1]) / (1.0 - k * k)


def psd_from_ar(a, sigma2: float, grid: FrequencyGrid) -> Psd:
    """Spectrum sigma2 / |A(e^{i theta})|^2 of the autoregression
    u(0) = sum_l a[l-1] * u(-l) + innovation.

    ``A(z) = 1 - sum_l a[l-1] z^{-l}`` uses the same sign convention as the
    predictor coefficients in :mod:`specdist.prediction`, so an exact AR fit
    returns ``a`` itself.  An empty ``a`` gives the flat spectrum ``sigma2``.

    Raises
    ------
    UnstableModelError
        If some root of ``A`` lies on or outside the unit circle (a
        reflection coefficient of modulus >= 1), so that no stationary
        process has this spectrum.
    ValueError
        If ``sigma2 <= 0``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.ndim != 1 or not np.all(np.isfinite(a)):
        raise ValueError("AR coefficients must be a finite real vector")
    if not np.isfinite(sigma2) or sigma2 <= 0.0:
        raise ValueError(f"innovation variance must be positive, got {sigma2}")
    _require_stable(a)
    power = _transform_power(np.concatenate(([1.0], -a)), grid.n)
    return psd_from_samples(grid, sigma2 / power)


def _require_same_grid(f1: Psd, f2: Psd) -> None:
    if f1.grid != f2.grid:
        raise ValueError(
            f"densities live on different grids (n = {f1.grid.n} vs {f2.grid.n})"
        )


def log_ratio(f1: Psd, f2: Psd) -> LogRatio:
    """Pointwise log(f1/f2) with the zero conventions described on
    :class:`LogRatio`.

    Computed as log(f1) - log(f2) so that swapping the arguments negates the
    samples exactly, which keeps the induced distance exactly symmetric.
    """
    _require_same_grid(f1, f2)
    if f1.zero_set != f2.zero_set:
        return LogRatio(samples=None)
    if not f1.zero_set:
        return LogRatio(samples=_freeze(np.log(f1.values) - np.log(f2.values)))
    out = np.zeros(f1.grid.n)
    nz = f1.values != 0.0
    out[nz] = np.log(f1.values[nz]) - np.log(f2.values[nz])
    return LogRatio(samples=_freeze(out))


def _log_power_mean(logs: np.ndarray, r: float) -> float:
    """log of the power mean (mean(x^r))^(1/r) of x = exp(logs), or mean(logs)
    for r = 0.  The largest r*log x is factored out, so no x^r is formed and x
    may lie far outside the double range; -inf logs (zeros) need r > 0."""
    if r == 0.0:
        return float(np.mean(logs))
    scaled = r * logs
    peak = scaled.max()
    return float((peak + np.log(np.mean(np.exp(scaled - peak)))) / r)


def generalized_mean(f: Psd, r: float) -> float:
    """Power mean (mean(f^r))^(1/r) of the density over the grid measure,
    computed from log f so that no f^r overflows.

    ``r = 0`` is excluded (its limit is :func:`geometric_mean`); negative
    ``r`` requires a strictly positive density.
    """
    r = float(r)
    if r == 0.0:
        raise ValueError("r = 0 is excluded; use geometric_mean")
    if r < 0.0 and f.zero_set:
        raise ZeroDivisionError(
            "negative-power mean of a density with zeros would divide by zero"
        )
    with np.errstate(divide="ignore"):
        logs = np.log(f.values)
    return math.exp(_log_power_mean(logs, r))


def geometric_mean(f: Psd) -> float:
    """exp(mean(log f)), or 0 for densities with zeros.

    For a strictly positive density this equals the infinite-order one-step
    prediction error variance of the underlying process.
    """
    if f.zero_set:
        return 0.0
    return float(np.exp(np.mean(np.log(f.values))))


def normalize_to_ray(f: Psd) -> SpectralRay:
    """Scale ``f`` to the unit-geometric-mean representative of its ray."""
    if f.zero_set:
        raise NotNormalizableError(
            "density vanishes on the grid; its ray has no log-normalizable representative"
        )
    rep = psd_from_samples(f.grid, f.values / geometric_mean(f))
    return SpectralRay(representative=rep)


def arithmetic_mean(f: Psd) -> float:
    """mean(f) over the grid measure (total power)."""
    return float(np.mean(f.values))
