"""Log-geometric interpolation between densities.

The minimal-length path between two densities at finite distance is the
pointwise interpolant f_tau = f0^(1-tau) * f1^tau.  Distance accumulates
proportionally along it — d(f0, f_tau) = tau * d(f0, f1) — so the summed
length of any discretization reproduces the endpoint distance and the
metric is intrinsic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .divergences import geodesic_distance
from .errors import NoFiniteGeodesicError
from .grid import _count, _Value
from .spectra import Psd, _require_same_grid, psd_from_samples

__all__ = ["GeodesicPath", "geodesic_point", "geodesic_path", "path_length"]


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
    # The interpolant never exceeds the larger endpoint, and the product is
    # within a few roundings of it (counting the rounding of 1 - tau), so the
    # product overflows only where the interpolant is within those roundings
    # of the largest double; there the larger endpoint is as close to it.
    off = np.isinf(values)
    values[off] = np.maximum(f0.values[off], f1.values[off])
    return psd_from_samples(f0.grid, values)


@dataclass(frozen=True, eq=False)
class GeodesicPath(_Value):
    """The geodesic from ``f0`` to ``f1`` sampled at the ``m`` uniform
    parameters tau_k = k/(m-1), indexable and iterable.

    Item ``k`` of ``range(m)`` is ``geodesic_point(f0, f1, k / (m - 1))``,
    computed on each access and not kept, so a walk along the path holds one
    point at a time; a slice gives a tuple.  Each access builds a new density,
    and densities compare by identity, so ``in`` is refused (``TypeError``)
    rather than finding only the endpoints, and a path has no ``index`` or
    ``count``.  Construction checks the count (an integer m >= 2) and the
    endpoints (the same grid, the same zero sets) and computes no point.
    """

    f0: Psd
    f1: Psd
    m: int

    def __post_init__(self):
        m = _count(self.m, "a path needs at least its 2 endpoints, got m = {}", 2)
        object.__setattr__(self, "m", m)
        _require_finite_path(self.f0, self.f1)

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, i):
        k = range(self.m)[i]
        if isinstance(k, range):
            return tuple(self[j] for j in k)
        return geodesic_point(self.f0, self.f1, k / (self.m - 1))

    def __iter__(self):
        return (self[k] for k in range(self.m))

    __contains__ = None


def geodesic_path(f0: Psd, f1: Psd, m: int) -> GeodesicPath:
    """Path sampled at the m uniform parameters tau_k = k/(m-1), for an integer
    m >= 2: ``GeodesicPath(f0, f1, m)``, whose points are computed when they
    are accessed."""
    return GeodesicPath(f0, f1, m)


def path_length(points: Iterable[Psd]) -> float:
    """Sum of geodesic distances over consecutive densities of ``points``.

    Along a :class:`GeodesicPath` every segment is finite by construction,
    and the total reproduces the endpoint distance regardless of how finely
    the path is sampled.  Fewer than two points have length 0.0.
    """
    return sum((geodesic_distance(a, b) for a, b in pairwise(points)), 0.0)
