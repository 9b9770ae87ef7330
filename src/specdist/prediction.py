"""Finite-order linear prediction as an independent check on the
arithmetic/geometric-mean ratio.

The route is deliberately different from the closed form in
:mod:`specdist.divergences`: autocovariances come from quadrature against
the density, the optimal one-step predictor of a given order comes from
the Levinson-Durbin recursion on those autocovariances, and the degraded
error variance of using that predictor on a *different* density is
evaluated directly from the error-filter magnitude response.  Dividing by
the infinite-order optimum (the geometric mean) gives a ratio that must
converge, as the order grows, to ``prediction_ratio``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError
from .grid import _count, _mirrored_pairs, _scaled_mean, _transform_power, _Value, _vector
from .spectra import Psd, _step_up, geometric_mean, psd_from_samples

__all__ = [
    "Autocovariance",
    "PredictorCoeffs",
    "autocov_from_psd",
    "levinson",
    "degraded_variance",
    "rho_empirical",
]

# Relative tolerance for the even-symmetry requirement on real-process PSDs.
_SYMMETRY_RTOL = 1e-9
# Slack on the |c_k| <= c_0 covariance bound (quadrature rounding only).
_COVARIANCE_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class Autocovariance(_Value):
    """Covariance sequence c_0..c_M of the process with the source density.

    Valid sequences have c_0 > 0 and |c_k| <= c_0; ``lags`` is read-only.
    """

    lags: np.ndarray

    def __post_init__(self):
        c = _vector(self.lags, "lags", at_least=1)
        if c[0] <= 0.0:
            raise ValueError(f"c_0 must be positive, got {c[0]}")
        if np.abs(c).max() > c[0] * (1.0 + _COVARIANCE_SLACK):
            raise ValueError("|c_k| <= c_0 must hold for a covariance sequence")
        object.__setattr__(self, "lags", c)

    @property
    def max_lag(self) -> int:
        return self.lags.size - 1


@dataclass(frozen=True, eq=False)
class PredictorCoeffs(_Value):
    """One-step predictor u(0) ~ sum_l coeffs[l-1] * u(-l) with the prediction
    error variance it attains, which must be finite and positive; ``coeffs``
    (finite) is stored read-only, and its length is the ``order``."""

    coeffs: np.ndarray
    attained_variance: float

    def __post_init__(self):
        variance = float(self.attained_variance)
        if not 0.0 < variance < np.inf:
            raise ValueError(f"attained variance must be finite and > 0, got {variance}")
        object.__setattr__(self, "coeffs", _vector(self.coeffs, "coeffs"))
        object.__setattr__(self, "attained_variance", variance)

    @property
    def order(self) -> int:
        return self.coeffs.size


def _check_even_symmetry(f: Psd) -> None:
    v, mirrored = _mirrored_pairs(f.values)
    tol = _SYMMETRY_RTOL * np.maximum(np.abs(v), np.abs(mirrored))
    if np.any(np.abs(v - mirrored) > tol):
        raise ValueError(
            "density is not even-symmetric on the grid; real-process "
            "prediction requires f(theta) = f(-theta)"
        )


def autocov_from_psd(f: Psd, max_lag: int) -> Autocovariance:
    """Autocovariances c_k = mean(f(theta) * cos(k*theta)), k = 0..max_lag.

    ``f`` must be even-symmetric (a real process) and ``max_lag`` must stay
    below n/2 so the cosine quadrature is alias-free.

    Since cos(-k*theta) = cos(k*theta), the sample at each node theta_j is
    first added to its mirror at -theta_j, and the quadrature runs over the
    n//2 + 1 nodes of [-pi, 0] only: one (max_lag + 1) x (n//2 + 1) cosine
    table, half the cosines of the full grid.  The regrouped sum is the same
    in exact arithmetic.  Each sample is divided by n before it is added, so
    every partial sum stays below the largest sample and no lag overflows.
    """
    max_lag = _count(max_lag, "max_lag must be >= 0, got {}", 0)
    if max_lag >= f.grid.n / 2:
        raise ValueError(
            f"max_lag = {max_lag} too large for an n = {f.grid.n} grid "
            "(needs max_lag < n/2)"
        )
    _check_even_symmetry(f)
    n = f.grid.n
    _, mirrored = _mirrored_pairs(f.values)
    folded = f.values[: n // 2 + 1] / n
    folded[1 : mirrored.size + 1] += mirrored / n
    table = np.outer(np.arange(max_lag + 1), f.grid.nodes[: n // 2 + 1])
    np.cos(table, out=table)
    lags = table @ folded
    return Autocovariance(lags=lags)


def levinson(acv: Autocovariance, p: int) -> PredictorCoeffs:
    """Order-p optimal predictor from the covariance sequence.

    Standard order recursion on the Toeplitz normal equations: at each step
    the reflection coefficient updates the coefficient vector and shrinks
    the error variance by (1 - k^2).

    Raises
    ------
    DegenerateCovarianceError
        If any recursion error variance drops to 0 or below, i.e. the
        sequence is not positive definite through order ``p``.
    """
    p = _count(p, "predictor order must be >= 1, got {}", 1)
    if p > acv.max_lag:
        raise ValueError(
            f"order {p} needs lags up to c_{p}, but only c_0..c_{acv.max_lag} are available"
        )
    c = acv.lags
    coeffs = np.zeros(p)
    variance = float(c[0])
    for m in range(1, p + 1):
        k = (c[m] - coeffs[: m - 1] @ c[m - 1 : 0 : -1]) / variance
        _step_up(coeffs, m, k)
        variance *= 1.0 - k * k
        if variance <= 0.0:
            raise DegenerateCovarianceError(
                f"prediction error variance hit {variance} at order {m}; "
                "covariance sequence is degenerate"
            )
    return PredictorCoeffs(coeffs=coeffs, attained_variance=variance)


def degraded_variance(f: Psd, pred: PredictorCoeffs) -> float:
    """Error variance of running predictor ``pred`` on a process with
    density ``f``: mean(|1 - sum_l coeffs[l-1] e^{-i l theta}|^2 * f).

    The grid must resolve that filter: n > 2 * order.  Terms past the double
    range are rescaled by a power of two; a variance past it raises ``OverflowError``.
    """
    if f.grid.n <= 2 * pred.order:
        raise ValueError(
            f"grid with n = {f.grid.n} is too coarse for an order-{pred.order} "
            "error filter (needs n > 2*order)"
        )
    error_filter = np.concatenate(([1.0], -pred.coeffs))
    gain = _transform_power(error_filter, f.grid.n)
    bound = lambda: np.frexp(gain)[1] + np.frexp(f.values)[1]
    return _scaled_mean(lambda v: np.mean(gain * v), f.values, 1, bound, "the degraded variance")


def rho_empirical(f1: Psd, f2: Psd, p: int) -> float:
    """Degraded-over-optimal error variance using the order-p predictor
    designed for ``f2`` on a process with density ``f1``.

    The denominator is the infinite-order optimum exp(mean(log f1)) rather
    than a second recursion, so all truncation error sits in the numerator.
    As ``p`` grows this converges to ``prediction_ratio(f1, f2)``; it can
    never drop below 1 beyond rounding, since no mismatched predictor beats
    the optimal one.

    Both variances are taken of ``f1`` scaled down by the power of two that
    brings its geometric mean below 2, so a ratio within the double range is
    finite whatever the scale of ``f1``; one past it raises ``OverflowError``.

    Its accuracy is bounded by the dynamic range of ``f2``: the recursion on
    quadrature autocovariances loses about u * max(f2)/min(f2) relative, with
    u = 2**-52, even at orders where the predictor is exact (``p`` at least
    the order of an AR ``f2``).  An AR(8) ``f2`` with a max/min spread of
    1.4e10 gave relative errors of 1.8e-7 to 9.3e-7 at p = 8, 9 and 16, where
    ``prediction_ratio`` was within 1.3e-13 of the exact ratio.  A difference
    from ``prediction_ratio`` below that bound is rounding, not truncation.
    """
    p = _count(p, "predictor order must be >= 1, got {}", 1)
    if f1.zero_set or f2.zero_set:
        raise ValueError("prediction comparison needs strictly positive densities")
    _check_even_symmetry(f1)
    pred = levinson(autocov_from_psd(f2, p), p)
    gm = geometric_mean(f1)
    shift = max(math.frexp(gm)[1] - 1, 0)
    scaled = psd_from_samples(f1.grid, np.ldexp(f1.values, -shift))
    ratio = degraded_variance(scaled, pred) / math.ldexp(gm, -shift)
    if math.isinf(ratio):
        raise OverflowError("the prediction ratio exceeds the double range")
    return ratio
