"""Log-geometric interpolation between densities.

The minimal-length path between two densities at finite distance is the
pointwise interpolant f_tau = f0^(1-tau) * f1^tau.  Distance accumulates
proportionally along it — d(f0, f_tau) = tau * d(f0, f1) — so the summed
length of any discretization reproduces the endpoint distance and the
metric is intrinsic.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .divergences import geodesic_distance
from .errors import NoFiniteGeodesicError
from .grid import _count, _Value, _vector
from .spectra import Psd, _require_same_grid, psd_from_samples

__all__ = ["GeodesicPath", "geodesic_point", "geodesic_path", "path_length"]


@dataclass(frozen=True, eq=False)
class GeodesicPath(_Value):
    """Snapshots of the log-geometric interpolant at nondecreasing tau values.

    ``points[i]`` is the interpolant at ``taus[i]``; a path from
    :func:`geodesic_path` runs from tau 0 to 1, so ``points[0]`` and
    ``points[-1]`` are its endpoints.  ``taus`` is stored read-only, copied
    unless no writable array reaches it, and must lie in [0, 1],
    nondecreasing, one per point; otherwise ``ValueError``.  Only
    ``len(points)`` is read to check them.  :func:`geodesic_path` gives a
    sequence that computes each point when it is accessed and keeps none;
    ``tuple(path.points)`` holds them all.
    """

    taus: np.ndarray
    points: Sequence[Psd]

    def __post_init__(self):
        taus = _vector(self.taus, "taus")
        if taus.size != len(self.points):
            raise ValueError(f"{taus.size} taus but {len(self.points)} points")
        down = np.flatnonzero(taus[1:] < taus[:-1])
        if down.size:
            i = int(down[0])
            raise ValueError(
                f"taus must be nondecreasing, got taus[{i + 1}] = {taus[i + 1]} "
                f"after taus[{i}] = {taus[i]}"
            )
        # nondecreasing, so the ends bound every tau
        if taus.size and not (0.0 <= taus[0] and taus[-1] <= 1.0):
            i = 0 if taus[0] < 0.0 else taus.size - 1
            raise ValueError(f"taus must lie in [0, 1], got taus[{i}] = {taus[i]}")
        object.__setattr__(self, "taus", taus)


def _require_finite_path(f0: Psd, f1: Psd) -> None:
    """Refuse endpoints on different grids or with different zero sets."""
    _require_same_grid(f0, f1)
    if f0.zero_set != f1.zero_set:
        raise NoFiniteGeodesicError(
            "endpoints vanish on different sets; they are infinitely far apart"
        )


def geodesic_point(f0: Psd, f1: Psd, tau: float) -> Psd:
    """Interpolant f0^(1-tau) * f1^tau at a single tau in [0, 1].

    Shared zeros of the endpoints stay zero along the whole path.
    Extrapolation (tau outside [0, 1]) is refused: the formula would
    evaluate, but the result can leave numerical range silently.

    Raises
    ------
    NoFiniteGeodesicError
        If the endpoint zero sets differ (the endpoints are infinitely far
        apart, so no finite path connects them).
    """
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau} (extrapolation refused)")
    _require_finite_path(f0, f1)
    if tau == 0.0:
        return f0
    if tau == 1.0:
        return f1
    with np.errstate(over="ignore"):
        values = f0.values ** (1.0 - tau) * f1.values**tau
        # Near the top of the double range the product of two powers can
        # overflow where the interpolant does not; there, take the log form,
        # clamped to the endpoints, which bound a weighted geometric mean.
        off = np.isinf(values)
        if off.any():
            a, b = f0.values[off], f1.values[off]
            log_form = np.exp((1.0 - tau) * np.log(a) + tau * np.log(b))
            values[off] = np.clip(log_form, np.minimum(a, b), np.maximum(a, b))
    return psd_from_samples(f0.grid, values)


@dataclass(frozen=True, eq=False)
class _PathPoints(_Value, Sequence):
    """``geodesic_point(f0, f1, k / (m - 1))`` at index ``k`` of ``range(m)``,
    computed on each access and not kept, so a walk along the path holds one
    point at a time; a slice gives a tuple.  No tau array is stored: the
    quotient rounds exactly as ``geodesic_path``'s taus do."""

    f0: Psd
    f1: Psd
    m: int

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, i):
        k = range(self.m)[i]
        if isinstance(k, range):
            return tuple(self[j] for j in k)
        return geodesic_point(self.f0, self.f1, k / (self.m - 1))


def geodesic_path(f0: Psd, f1: Psd, m: int) -> GeodesicPath:
    """Path sampled at the m uniform parameters tau_k = k/(m-1), for an integer m >= 2.

    The count and the endpoints are checked here; the points are computed
    when they are accessed.
    """
    m = _count(m, "a path needs at least its 2 endpoints, got m = {}", 2)
    _require_finite_path(f0, f1)
    taus = np.arange(m, dtype=float)
    taus /= m - 1
    taus.setflags(write=False)
    return GeodesicPath(taus=taus, points=_PathPoints(f0, f1, m))


def path_length(path: GeodesicPath) -> float:
    """Sum of geodesic distances over consecutive path points.

    Every segment is finite by construction, and the total reproduces the
    endpoint distance regardless of how finely the path is sampled.
    """
    return sum((geodesic_distance(a, b) for a, b in pairwise(path.points)), 0.0)
