"""Scalar comparison functionals between spectral densities.

The central quantity is the geodesic distance: the standard deviation,
under the normalized frequency measure, of log(f1/f2).  It is a
pseudo-metric on densities (blind to positive scaling) and a metric on
rays.  Around it sit the prediction-theoretic divergences (arithmetic-
over-geometric mean of the ratio and its relatives), the quadratic form
they all share to second order, and the Fisher information form kept here
for contrast.  The distance and the divergences are all computed from
:func:`~specdist.spectra.log_ratio` (the divergences as gaps between log
power means), never from the ratio itself, so none overflows.

All functions return plain floats; ``math.inf`` encodes the completed
value assigned when the log-ratio fails to exist (the two densities
vanish on different sets), and only then.  IEEE arithmetic already
provides the extended semantics the completion needs: ``inf + x == inf``
and ``inf > x`` for every finite ``x``.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .grid import _as_samples, central_variance
from .spectra import Psd, _log_power_mean, arithmetic_mean, log_ratio

__all__ = [
    "SpectrumClass",
    "classify",
    "geodesic_distance",
    "scaled_metric_d",
    "divergence_ag",
    "divergence_sym",
    "divergence_rs",
    "prediction_ratio",
    "riemannian_form",
    "fisher_form",
]

# Absolute tolerance on the probability-density constraints of fisher_form.
_FISHER_NORM_TOL = 1e-9


class SpectrumClass(enum.Enum):
    """Grid-decidable dichotomy of densities.

    STRICTLY_POSITIVE means every log-based functional against another
    strictly positive density on the same grid stays finite.  A finite grid
    cannot grade *how* integrable the log would be in the limit, so no finer
    classification is offered.
    """

    STRICTLY_POSITIVE = "StrictlyPositive"
    HAS_ZEROS = "HasZeros"


def classify(f: Psd) -> SpectrumClass:
    """STRICTLY_POSITIVE iff the density has an empty zero set."""
    return SpectrumClass.STRICTLY_POSITIVE if f.strictly_positive else SpectrumClass.HAS_ZEROS


def geodesic_distance(f1: Psd, f2: Psd) -> float:
    """Standard deviation of log(f1/f2) under the grid measure.

    Returns ``inf`` exactly when the two zero sets differ.  Symmetric to the
    last bit, insensitive to scaling either argument, and zero iff f1/f2 is
    constant on the grid.
    """
    lr = log_ratio(f1, f2)
    if not lr.defined:
        return math.inf
    return math.sqrt(central_variance(f1.grid, lr.samples))


def scaled_metric_d(f1: Psd, f2: Psd) -> float:
    """Geodesic distance plus |mean(f1) - mean(f2)|.

    The added term breaks the scale-blindness of the geodesic distance, so
    this is a metric on densities themselves rather than on rays.
    """
    d = geodesic_distance(f1, f2)
    return d + abs(arithmetic_mean(f1) - arithmetic_mean(f2))


def divergence_ag(f1: Psd, f2: Psd) -> float:
    """log of arithmetic mean minus mean of log of the ratio f1/f2.

    Nonnegative; zero iff the ratio is constant on the grid; ``inf`` when
    either density vanishes where the other does not (the arithmetic term
    or the geometric term diverges).  Not symmetric in its arguments.
    """
    lr = log_ratio(f1, f2)
    if not lr.defined:
        return math.inf
    return _log_power_mean(lr.samples, 1.0) - _log_power_mean(lr.samples, 0.0)


def divergence_sym(f1: Psd, f2: Psd) -> float:
    """Symmetrized divergence: divergence_ag(f1, f2) + divergence_ag(f2, f1)."""
    return divergence_ag(f1, f2) + divergence_ag(f2, f1)


def divergence_rs(f1: Psd, f2: Psd, r: float, s: float) -> float:
    """Difference of log power means of the ratio, order r minus order s.

    Nonnegative for ``r > s`` by the power-mean inequality (callers wanting
    divergence semantics should order the exponents that way; ``r < s``
    yields the negated value).  ``r``, ``s`` must be nonzero and distinct.
    Pairs with differing zero sets map to ``inf``, as in
    :func:`divergence_ag`.
    """
    r, s = float(r), float(s)
    if r == 0.0 or s == 0.0:
        raise ValueError("power-mean orders must be nonzero (the 0 limit is the geometric mean)")
    if r == s:
        raise ValueError("power-mean orders must be distinct")
    lr = log_ratio(f1, f2)
    if not lr.defined:
        return math.inf
    return _log_power_mean(lr.samples, r) - _log_power_mean(lr.samples, s)


def prediction_ratio(f1: Psd, f2: Psd) -> float:
    """Arithmetic over geometric mean of f1/f2, computed as exp(divergence_ag).

    This is the factor by which one-step prediction error variance degrades
    when the predictor is designed for ``f2`` but the process actually has
    density ``f1``.  Always >= 1 when finite; 1 iff the ratio is constant;
    ``inf`` iff the zero sets differ; ``OverflowError`` if it is finite but
    too large for a double.  The finite-order construction in
    :mod:`specdist.prediction` converges to this value and serves as its
    independent check.
    """
    ag = divergence_ag(f1, f2)
    try:
        return math.exp(ag)
    except OverflowError:
        raise OverflowError(
            f"prediction ratio exp({ag:.6g}) exceeds the double range"
        ) from None


def _check_delta(f: Psd, delta) -> np.ndarray:
    """Validate a perturbation of the strictly positive density ``f``."""
    if f.zero_set:
        raise ValueError("density must be strictly positive")
    return _as_samples(f.grid, delta, "delta")


def riemannian_form(f: Psd, delta) -> float:
    """Quadratic form central_variance(delta / f): the second-order expansion
    shared by divergence_ag, divergence_sym and (rescaled) divergence_rs.

    Degenerate exactly along the scaling direction ``delta = c*f``; that is
    the infinitesimal face of the metric's scale-blindness.
    """
    d = _check_delta(f, delta)
    return central_variance(f.grid, d / f.values)


def fisher_form(f: Psd, delta) -> float:
    """Fisher information form mean(delta^2 / f) for probability densities.

    Requires mean(f) = 1 and mean(delta) = 0 (both within 1e-9): ``f`` and
    ``f + delta`` must integrate to one.  Note the power of ``f`` differs
    from :func:`riemannian_form`; the two coincide on ``f = 1`` with
    zero-mean ``delta`` and disagree in general.
    """
    d = _check_delta(f, delta)
    f_mean = float(np.mean(f.values))
    if abs(f_mean - 1.0) > _FISHER_NORM_TOL:
        raise ValueError(
            f"density is not normalized: mean(f) = {f_mean!r}, must be 1 within {_FISHER_NORM_TOL}"
        )
    d_mean = float(np.mean(d))
    if abs(d_mean) > _FISHER_NORM_TOL:
        raise ValueError(
            f"perturbation is not mass-preserving: mean(delta) = {d_mean!r}, "
            f"must be 0 within {_FISHER_NORM_TOL}"
        )
    return float(np.mean(d * d / f.values))
