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
from dataclasses import dataclass, field

import numpy as np

from .errors import NotNormalizableError, UnstableModelError
from .grid import FrequencyGrid, _scaled_mean, _transform_power, _Value, _vector

__all__ = [
    "Psd",
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
class Psd(_Value):
    """Nonnegative density samples ``values[k] = f(theta_k)`` on ``grid``.

    ``zero_set`` holds the indices where the density is exactly zero; it is
    derived from the values.  The all-zero function is not a valid density.
    Instances are immutable; ``values`` is read-only, and no writable array
    reaches it: the vector given is copied unless it already is such.

    Raises ``ValueError`` (naming the first offending index) for non-finite
    entries, then for negative ones, and for the all-zero vector.
    """

    grid: FrequencyGrid
    values: np.ndarray
    zero_set: frozenset = field(init=False)

    def __post_init__(self) -> None:
        v = _vector(self.values, "values", self.grid.n)
        negative = np.flatnonzero(v < 0.0)
        if negative.size:
            i = int(negative[0])
            raise ValueError(f"values[{i}] = {v[i]}; density samples must be finite and >= 0")
        if not v.any():
            raise ValueError("the all-zero vector is not a density")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "zero_set", frozenset(np.flatnonzero(v == 0.0).tolist()))


def psd_from_samples(grid: FrequencyGrid, values) -> Psd:
    """Validate a sample vector as a read-only density on ``grid``.

    The same as ``Psd(grid, values)``, with the same errors.
    """
    return Psd(grid=grid, values=values)


def psd_constant(grid: FrequencyGrid, level: float) -> Psd:
    """Flat density at ``level`` > 0 (white noise of that variance)."""
    return psd_from_samples(grid, np.full(grid.n, float(level)))


def _reflections(a: np.ndarray) -> np.ndarray:
    """Reflection coefficients k_1..k_p of ``a``; UnstableModelError unless every
    root of A(z) = 1 - sum_l a[l-1] z^{-l} lies strictly inside the unit circle.

    Step-down (reverse Levinson) recursion: the order-m predictor's last
    coefficient is its reflection coefficient k_m, and removing it gives the
    order-(m-1) predictor.  A is stable iff |k_m| < 1 at every order; |k_m|
    within 2**-50 of 1 is 1 in rounding (a = (0.7, 0.3), with A(1) = 0, has
    k_1 = 1 - 2**-53).
    """
    ks = np.empty(a.size)
    c = a
    for m in range(a.size, 0, -1):
        ks[m - 1] = k = c[-1]
        if not abs(k) < 1.0 - 2.0**-50:
            raise UnstableModelError(
                f"AR model is not stable: reflection coefficient k_{m} = {k:.17g} "
                "has modulus 1 or more, within rounding"
            )
        head = c[:-1]
        c = (head + k * head[::-1]) / (1.0 - k * k)
    return ks


def _step_up(coeffs: np.ndarray, m: int, k: float) -> None:
    """Step the order-(m-1) predictor ``coeffs[: m - 1]`` up to order m with k_m = k, in place."""
    head = coeffs[: m - 1]
    head -= k * head[::-1]
    coeffs[m - 1] = k


def psd_from_ar(a, sigma2: float, grid: FrequencyGrid) -> Psd:
    """Spectrum sigma2 / |A(e^{i theta})|^2 of the autoregression
    u(0) = sum_l a[l-1] * u(-l) + innovation.

    ``A(z) = 1 - sum_l a[l-1] z^{-l}`` uses the same sign convention as the
    predictor coefficients in :mod:`specdist.prediction`, so an exact AR fit
    returns ``a`` itself.  An empty ``a`` gives the flat spectrum ``sigma2``.

    Raises
    ------
    UnstableModelError
        If some root of ``A`` lies on or outside the unit circle within
        rounding (a |k_m| within 2**-50 of 1 or above, or a grid node where
        the computed |A|^2 is 0), so that no stationary process has this spectrum.
    ValueError
        If ``sigma2`` is not finite and positive, or if the density exceeds
        the double range.
    """
    a = _vector(np.atleast_1d(a), "a")
    if not np.isfinite(sigma2) or sigma2 <= 0.0:
        raise ValueError(f"innovation variance must be finite and positive, got {sigma2}")
    _reflections(a)
    power = _transform_power(np.concatenate(([1.0], -a)), grid.n)
    if not power.all():  # a root this close to the unit circle can pass the step-down
        node = grid.nodes[np.argmin(power)]
        raise UnstableModelError(f"AR model is not stable: |A|^2 is 0 at theta = {node:.6g}")
    with np.errstate(over="ignore"):
        values = sigma2 / power
    return _density_in_range(grid, values)


def _density_in_range(grid: FrequencyGrid, values: np.ndarray) -> Psd:
    """``psd_from_samples``, refusing a non-finite sample: from finite inputs an
    inf is an overflow, and a nan an inf - inf."""
    if not np.isfinite(values).all():
        raise ValueError("the density exceeds the double range")
    return psd_from_samples(grid, values)


def _require_same_grid(f1: Psd, f2: Psd) -> None:
    if f1.grid != f2.grid:
        raise ValueError(
            f"densities live on different grids (n = {f1.grid.n} vs {f2.grid.n})"
        )


def log_ratio(f1: Psd, f2: Psd) -> np.ndarray | None:
    """Pointwise log(f1/f2) as read-only samples, or ``None`` if it has none.

    ``None`` means that some grid point carries a zero of exactly one of the
    two densities: the log-ratio then fails to be square-summable in the
    limit, and the geodesic distance is ``inf``.  At shared zeros the ratio
    is taken to be one (sample 0), so a density stays at distance zero from
    itself.  Computed as log(f1) - log(f2), so swapping the arguments negates
    the samples exactly, which keeps the induced distance exactly symmetric.
    Every distance and divergence in :mod:`specdist.divergences` is a
    functional of these samples.
    """
    _require_same_grid(f1, f2)
    if f1.zero_set != f2.zero_set:
        return None
    out = _masked_log(np.array(f1.values))
    out -= _masked_log(np.array(f2.values))
    out.setflags(write=False)
    return out


def _masked_log(v: np.ndarray) -> np.ndarray:
    """log of the nonzero samples of ``v``, in place; exact zeros stay 0."""
    return np.log(v, out=v, where=v != 0.0)


def _log_power_mean(logs: np.ndarray, r: float) -> float:
    """log of the power mean (mean(x^r))^(1/r) of x = exp(logs), or mean(logs)
    for r = 0.  The extreme log (the largest for r > 0, the smallest for r < 0)
    is factored out, so no x^r is formed, x may lie far outside the double
    range, and r may be any finite order; -inf logs (zeros) need r > 0.  The
    mean is taken of (x / extreme)^r - 1, by expm1, and logged by log1p, so a
    nearly constant x keeps its digits."""
    if r == 0.0:
        return float(np.mean(logs))
    top = logs.max() if r > 0.0 else logs.min()
    # At extreme |r| the product overflows to -inf, and expm1(-inf) = -1.
    with np.errstate(over="ignore"):
        scaled = r * (logs - top)
    return float(top + np.log1p(np.mean(np.expm1(scaled))) / r)


def generalized_mean(f: Psd, r: float) -> float:
    """Power mean (mean(f^r))^(1/r) of the density over the grid measure,
    computed from log f so that no f^r overflows.

    ``r`` must be finite; ``r = 0`` is excluded (its limit is
    :func:`geometric_mean`); negative ``r`` requires a strictly positive density.
    """
    r = float(r)
    if r == 0.0 or not math.isfinite(r):
        raise ValueError(f"r = {r} is excluded; use a finite r, or geometric_mean for r = 0")
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


def normalize_to_ray(f: Psd) -> Psd:
    """The representative of the ray of ``f`` (its scale-equivalence class,
    {c*f : c > 0}) whose geometric mean is one: ``f`` divided by its
    geometric mean.  Only strictly positive densities have one, and only
    within the double range."""
    if f.zero_set:
        raise NotNormalizableError(
            "density vanishes on the grid; its ray has no log-normalizable representative"
        )
    with np.errstate(over="ignore", divide="ignore"):
        values = f.values / geometric_mean(f)
    if np.isinf(values).any():
        raise NotNormalizableError(
            "the unit-geometric-mean representative of the ray exceeds the double range"
        )
    return psd_from_samples(f.grid, values)


def arithmetic_mean(f: Psd) -> float:
    """mean(f) over the grid measure (total power).

    Finite for every density: a sum past the double range is rescaled by a power of two.
    """
    return _scaled_mean(np.mean, f.values, 1, lambda: np.frexp(f.values)[1], "the arithmetic mean")
