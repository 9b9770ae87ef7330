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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError
from .grid import FrequencyGrid, _transform_power
from .spectra import Psd, geometric_mean

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
class Autocovariance:
    """Covariance sequence c_0..c_M of the process with the source density.

    Valid sequences have c_0 > 0 and |c_k| <= c_0.
    """

    lags: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        c = np.asarray(self.lags, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("lags must be a nonempty vector c_0..c_M")
        if not np.all(np.isfinite(c)):
            raise ValueError("covariance lags must be finite")
        if c[0] <= 0.0:
            raise ValueError(f"c_0 must be positive, got {c[0]}")
        if np.abs(c).max() > c[0] * (1.0 + _COVARIANCE_SLACK):
            raise ValueError("|c_k| <= c_0 must hold for a covariance sequence")
        object.__setattr__(self, "lags", c)
        c.setflags(write=False)

    @property
    def max_lag(self) -> int:
        return self.lags.size - 1


@dataclass(frozen=True, eq=False)
class PredictorCoeffs:
    """One-step predictor u(0) ~ sum_l coeffs[l-1] * u(-l) of order ``order``
    with the prediction error variance it attains."""

    order: int
    coeffs: np.ndarray
    attained_variance: float


def _check_even_symmetry(f: Psd) -> None:
    v = f.values
    mirrored = v[(-np.arange(f.grid.n)) % f.grid.n]
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
    """
    max_lag = int(max_lag)
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    if max_lag >= f.grid.n / 2:
        raise ValueError(
            f"max_lag = {max_lag} too large for an n = {f.grid.n} grid "
            "(needs max_lag < n/2)"
        )
    _check_even_symmetry(f)
    ks = np.arange(max_lag + 1)
    lags = np.cos(np.outer(ks, f.grid.nodes)) @ f.values / f.grid.n
    return Autocovariance(lags=lags, grid=f.grid)


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
    p = int(p)
    if p < 1:
        raise ValueError(f"predictor order must be >= 1, got {p}")
    if p > acv.max_lag:
        raise ValueError(
            f"order {p} needs lags up to c_{p}, but only c_0..c_{acv.max_lag} are available"
        )
    c = acv.lags
    coeffs = np.zeros(p)
    variance = float(c[0])
    for m in range(1, p + 1):
        k = (c[m] - coeffs[: m - 1] @ c[m - 1 : 0 : -1]) / variance
        if m > 1:
            coeffs[: m - 1] -= k * coeffs[m - 2 :: -1]
        coeffs[m - 1] = k
        variance *= 1.0 - k * k
        if variance <= 0.0:
            raise DegenerateCovarianceError(
                f"prediction error variance hit {variance} at order {m}; "
                "covariance sequence is degenerate"
            )
    coeffs.setflags(write=False)
    return PredictorCoeffs(order=p, coeffs=coeffs, attained_variance=variance)


def degraded_variance(f: Psd, pred: PredictorCoeffs) -> float:
    """Error variance of running predictor ``pred`` on a process with
    density ``f``: mean(|1 - sum_l coeffs[l-1] e^{-i l theta}|^2 * f).

    The grid must resolve that filter: n > 2 * order.
    """
    if f.grid.n <= 2 * pred.order:
        raise ValueError(
            f"grid with n = {f.grid.n} is too coarse for an order-{pred.order} "
            "error filter (needs n > 2*order)"
        )
    error_filter = np.concatenate(([1.0], -np.asarray(pred.coeffs, dtype=float)))
    gain = _transform_power(error_filter, f.grid.n)
    return float(np.mean(gain * f.values))


def rho_empirical(f1: Psd, f2: Psd, p: int) -> float:
    """Degraded-over-optimal error variance using the order-p predictor
    designed for ``f2`` on a process with density ``f1``.

    The denominator is the infinite-order optimum exp(mean(log f1)) rather
    than a second recursion, so all truncation error sits in the numerator.
    As ``p`` grows this converges to ``prediction_ratio(f1, f2)``; it can
    never drop below 1 beyond rounding, since no mismatched predictor beats
    the optimal one.
    """
    if int(p) < 1:
        raise ValueError(f"predictor order must be >= 1, got {p}")
    if f1.zero_set or f2.zero_set:
        raise ValueError("prediction comparison needs strictly positive densities")
    _check_even_symmetry(f1)
    pred = levinson(autocov_from_psd(f2, int(p)), int(p))
    return degraded_variance(f1, pred) / geometric_mean(f1)
