"""Scalar comparison functionals between spectral densities.

The central quantity is the geodesic distance: the standard deviation,
under the normalized frequency measure, of log(f1/f2), tabulated by
:func:`build_distance_matrix`.  It is a pseudo-metric on densities (blind
to positive scaling) and a metric on rays.  Around it sit the prediction-
theoretic divergences (arithmetic-over-geometric mean of the ratio and its
relatives), the quadratic form they all share to second order, and the
Fisher information form, for contrast.  The distance and divergences use
:func:`~specdist.spectra.log_ratio` (the divergences as gaps between log
power means), never the ratio itself, so none overflows.

The functionals return plain floats; ``math.inf`` encodes the completed
value assigned when the log-ratio fails to exist (the two densities
vanish on different sets), and only then.  IEEE arithmetic already
provides the extended semantics the completion needs: ``inf + x == inf``
and ``inf > x`` for every finite ``x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .grid import _centered_mean_square, _scaled_mean, _sealed, _Value, _vector, central_variance
from .spectra import Psd, _log_power_mean, _masked_log, _require_same_grid
from .spectra import arithmetic_mean, log_ratio

__all__ = [
    "geodesic_distance",
    "DistanceMatrix",
    "build_distance_matrix",
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

# Rows of strictly positive spectra differenced against one row at a time in
# the pair loop; caps the scratch block at this many grid-length vectors.
# Over 200 files of 4096 nodes, `specdist matrix` took a median 780, 785 and
# 784 ms with blocks of 8, 16 and 32 rows, and peaked at 37.4, 37.7 and
# 38.2 MB, so the smallest keeps the least memory at no cost.  Each row is
# reduced alone, so the block size changes no bit of any entry.
_PAIR_BLOCK = 8


def geodesic_distance(f1: Psd, f2: Psd) -> float:
    """Standard deviation of log(f1/f2) under the grid measure.

    Returns ``inf`` exactly when the two zero sets differ.  Symmetric to the
    last bit, insensitive to scaling either argument, and zero iff f1/f2 is
    constant on the grid.
    """
    x = log_ratio(f1, f2)
    if x is None:
        return math.inf
    return math.sqrt(central_variance(f1.grid, x))


@dataclass(frozen=True, eq=False)
class DistanceMatrix(_Value):
    """Symmetric pairwise geodesic distances with a zero diagonal.

    Off-diagonal entries may be ``inf`` (pairs with differing zero sets);
    that is data, not an error.  ``entries`` must be a K x K array for K
    labels; it is stored read-only, and copied unless it already is such
    that no writable array reaches it.
    """

    labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        k = len(labels)
        entries = self.entries if _sealed(self.entries) else np.array(self.entries, dtype=float)
        if entries.shape != (k, k):
            raise ValueError(
                f"entries must be a {k} x {k} array for {k} labels, got shape {entries.shape}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)


def build_distance_matrix(spectra: Iterable[Psd], labels: Sequence[str]) -> DistanceMatrix:
    """Geodesic distances between all pairs, each unordered pair computed once.

    ``spectra`` may be any iterable, one spectrum per label; it is read once,
    and no spectrum is held past its turn unless it has zeros.  Evaluation is
    single-threaded and vectorized.  A strictly positive spectrum is logged
    into the next row of one table as it arrives, and each row is differenced
    against the later rows a block at a time; the block goes through the
    centered-variance kernel that :func:`geodesic_distance` uses, so every
    entry is bit-identical to it.  The row's distances gather in one vector,
    which is written into the table's row and column once.  A strictly positive spectrum and one with
    zeros have different zero sets, so their pair is ``inf`` without a call;
    only the pairs of two spectra with zeros go through
    :func:`geodesic_distance` itself, which owns the zero-set bookkeeping.
    """
    labels = tuple(labels)
    k = len(labels)
    count = 0
    logs = np.empty((0, 0))
    positive, with_zeros = [], []
    has_zeros = np.zeros(k, dtype=bool)
    for f in spectra:
        if count == 0:
            # rows that no positive spectrum fills are never touched, so
            # they take no resident memory
            first, logs = f, np.empty((k, f.grid.n))
        else:
            _require_same_grid(first, f)
        if count < k:
            if f.zero_set:
                with_zeros.append((count, f))
                has_zeros[count] = True
            else:
                row = logs[len(positive)]
                row[:] = f.values
                _masked_log(row)
                positive.append(count)
        count += 1
    if count != k:
        raise ValueError(f"{count} spectra but {k} labels")
    entries = np.zeros((k, k))
    entries[has_zeros[:, None] != has_zeros] = math.inf
    index = np.array(positive, dtype=np.intp)
    m = len(index)
    scratch = np.empty_like(logs[:_PAIR_BLOCK])
    row = np.empty(m)
    for a in range(m - 1):
        for start in range(a + 1, m, _PAIR_BLOCK):
            stop = min(start + _PAIR_BLOCK, m)
            d = scratch[: stop - start]
            np.subtract(logs[a], logs[start:stop], out=d)
            np.sqrt(_centered_mean_square(d), out=row[start:stop])
        later = index[a + 1 :]
        entries[index[a], later] = entries[later, index[a]] = row[a + 1 :]
    for a, (i, fi) in enumerate(with_zeros):
        for j, fj in with_zeros[a + 1 :]:
            entries[i, j] = entries[j, i] = geodesic_distance(fi, fj)
    entries.setflags(write=False)
    return DistanceMatrix(labels=labels, entries=entries)


def scaled_metric_d(f1: Psd, f2: Psd) -> float:
    """Geodesic distance plus |mean(f1) - mean(f2)|.

    The added term breaks the scale-blindness of the geodesic distance, so
    this is a metric on densities themselves rather than on rays.
    """
    d = geodesic_distance(f1, f2)
    return d + abs(arithmetic_mean(f1) - arithmetic_mean(f2))


def _ratio_gap(f1: Psd, f2: Psd, r: float, s: float) -> float:
    """Log power mean of order r minus that of order s of the ratio f1/f2,
    from its :func:`log_ratio` samples; ``inf`` when it has none.

    The gap is blind to a shift of the samples, so they are centered first:
    for a nearly constant ratio it is then a difference of two small terms,
    not of two large ones.  By the power-mean inequality it has the sign of
    r - s, which rounding of a gap near zero must not flip.
    """
    x = log_ratio(f1, f2)
    if x is None:
        return math.inf
    x = x - np.mean(x)
    gap = _log_power_mean(x, r) - _log_power_mean(x, s)
    return max(gap, 0.0) if r > s else min(gap, 0.0)


def divergence_ag(f1: Psd, f2: Psd) -> float:
    """log of arithmetic mean minus mean of log of the ratio f1/f2.

    Nonnegative; zero iff the ratio is constant on the grid; ``inf`` when
    either density vanishes where the other does not (the arithmetic term
    or the geometric term diverges).  Not symmetric in its arguments.
    """
    return _ratio_gap(f1, f2, 1.0, 0.0)


def divergence_sym(f1: Psd, f2: Psd) -> float:
    """divergence_ag(f1, f2) + divergence_ag(f2, f1): the geometric terms cancel,
    leaving log M_1 - log M_-1, the gap of the power means of orders 1 and -1
    of the ratio f1/f2.  Exactly symmetric: swapping the arguments negates the
    log-ratio samples, centering commutes with negation, and the order-1 log
    mean of -x is minus the order -1 log mean of x to the last bit.
    """
    return _ratio_gap(f1, f2, 1.0, -1.0)


def divergence_rs(f1: Psd, f2: Psd, r: float, s: float) -> float:
    """Difference of log power means of the ratio, order r minus order s.

    Nonnegative for ``r > s`` by the power-mean inequality (callers wanting
    divergence semantics should order the exponents that way; ``r < s``
    yields the negated value).  ``r``, ``s`` must be finite, nonzero and
    distinct.  Pairs with differing zero sets map to ``inf``, as in
    :func:`divergence_ag`.
    """
    r, s = float(r), float(s)
    if not (math.isfinite(r) and math.isfinite(s)):
        raise ValueError(f"power-mean orders must be finite, got r = {r}, s = {s}")
    if r == 0.0 or s == 0.0:
        raise ValueError("power-mean orders must be nonzero (the 0 limit is the geometric mean)")
    if r == s:
        raise ValueError("power-mean orders must be distinct")
    return _ratio_gap(f1, f2, r, s)


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
    return _vector(delta, "delta", f.grid.n)


def riemannian_form(f: Psd, delta) -> float:
    """Quadratic form central_variance(delta / f): the second-order expansion
    shared by divergence_ag, divergence_sym and (rescaled) divergence_rs.

    Degenerate exactly along the scaling direction ``delta = c*f``; that is
    the infinitesimal face of the metric's scale-blindness.  Terms past the
    double range are rescaled by a power of two; a form past it raises
    ``OverflowError``.
    """
    d = _check_delta(f, delta)
    bound = lambda: 2 * (np.frexp(d)[1] - np.frexp(f.values)[1] + 1)  # |delta/f| < 2**(bound/2)
    form = lambda x: _centered_mean_square(x / f.values)
    return _scaled_mean(form, d, 2, bound, "the Riemannian form")


def fisher_form(f: Psd, delta) -> float:
    """Fisher information form mean(delta^2 / f) for probability densities.

    Requires mean(f) = 1 and mean(delta) = 0 (both within 1e-9): ``f`` and
    ``f + delta`` must integrate to one.  Note the power of ``f`` differs
    from :func:`riemannian_form`; the two coincide on ``f = 1`` with
    zero-mean ``delta`` and disagree in general.  Terms past the double range
    are rescaled by a power of two; a form past it raises ``OverflowError``.
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
    # On the rescue delta is scaled down, and f <= n since mean(f) = 1, so
    # no delta^2 passes the range before the quotient brings it below 2**960.
    bound = lambda: 2 * np.frexp(d)[1] - np.frexp(f.values)[1] + 1
    return _scaled_mean(lambda x: np.mean(x * x / f.values), d, 2, bound, "the Fisher form")
