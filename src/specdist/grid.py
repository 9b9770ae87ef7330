"""Uniform frequency grid on [-pi, pi) and normalized quadrature.

Every integral in this package is taken against the normalized measure
dtheta/(2*pi), so on the uniform grid it reduces to a plain average of the
samples.  For 2*pi-periodic integrands the left-endpoint rule coincides
with the trapezoid rule and is spectrally accurate: trigonometric
polynomials of degree d integrate exactly once n > 2d.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FrequencyGrid", "make_grid", "central_variance"]


class _Value:
    """Value type whose copies and unpickled values are rebuilt by its
    constructor, so they pass its checks and own read-only arrays."""

    __slots__ = ()

    def __reduce__(self):
        fields = dataclasses.fields(self)
        return type(self), tuple(getattr(self, f.name) for f in fields if f.init)


@dataclass(frozen=True)
class FrequencyGrid(_Value):
    """Uniform angles theta_k = -pi + 2*pi*k/n for k = 0..n-1, weight 1/n each.

    The weights sum to one, so the plain average of the samples approximates
    the normalized integral over [-pi, pi).  ``FrequencyGrid(n)`` derives its
    read-only ``nodes`` from ``n``, which it stores as an ``int``, and grids
    compare equal iff they have the same node count.  A copy or an unpickled
    grid is ``make_grid(n)``.
    """

    n: int
    nodes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "grid needs at least 2 nodes, got {}", 2))
        nodes = -np.pi + (2.0 * np.pi / self.n) * np.arange(self.n)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    def __reduce__(self):
        # A copy or an unpickled grid is the shared one, so no copy builds
        # its own ``nodes``.
        return make_grid, (self.n,)

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n


def make_grid(n: int) -> FrequencyGrid:
    """The uniform grid of n >= 2 nodes on [-pi, pi): ``FrequencyGrid(n)``,
    shared, so one instance (and one ``nodes`` array) serves each node count,
    whatever integer type ``n`` has."""
    return _shared_grid(_count(n, "grid needs at least 2 nodes, got {}", 2))


@functools.lru_cache(maxsize=16)
def _shared_grid(n: int) -> FrequencyGrid:
    return FrequencyGrid(n)


def _count(x, message: str, minimum: int) -> int:
    """``x`` as an ``int``: a count, which must be an integer (``int``,
    ``np.int64``, ...) of at least ``minimum``.  Otherwise raises
    ``ValueError`` with ``message``, whose ``{}`` takes the value.  Floats
    are refused even when integral, so no count is ever truncated."""
    try:
        k = operator.index(x)
    except TypeError:
        raise ValueError(message.format(x) + ", which is not an integer") from None
    if k < minimum:
        raise ValueError(message.format(k))
    return k


def _vector(x, name: str, length: int | None = None, at_least: int = 0) -> np.ndarray:
    """``x`` as a read-only float64 vector, which must be finite and 1-d with
    exactly ``length`` entries when given, and at least ``at_least``.

    ``x`` itself is kept when it is :func:`_sealed`; anything else, every
    writable array included, is copied.
    """
    v = x if _sealed(x) else np.array(x, dtype=float)
    if v.ndim != 1 or v.size < at_least or length not in (None, v.size):
        size = f"length {length}" if length is not None else f"length at least {at_least}"
        raise ValueError(f"{name} must be a vector of {size}, got shape {v.shape}")
    if not np.isfinite(v).all():
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"{name}[{bad}] = {v[bad]} is not finite")
    v.setflags(write=False)
    return v


def _sealed(x) -> bool:
    """Whether ``x`` is a contiguous read-only float64 ndarray that no writable
    array can reach: it owns its memory, or it spans all of a read-only array
    that does.  These are the arrays :func:`_vector` returns.  (A view of part
    of an owner is copied, so a stored vector never keeps a larger one alive.)
    """
    if type(x) is not np.ndarray or x.dtype != np.float64:
        return False
    if x.flags.writeable or not x.flags.c_contiguous:
        return False
    if x.flags.owndata:
        return True
    owner = x.base
    return (
        type(owner) is np.ndarray
        and owner.flags.owndata
        and not owner.flags.writeable
        and owner.nbytes == x.nbytes
    )


def central_variance(grid: FrequencyGrid, samples) -> float:
    """mean(samples^2) - mean(samples)^2, evaluated in centered form.

    Computed as mean((samples - mean)^2): the same value, but without the
    catastrophic cancellation of the two-term difference, which matters
    because near-constant sample vectors (proportional densities) must come
    out at variance ~0 rather than at the subtraction's rounding residue.
    The centered form is a mean of squares, so the result is nonnegative by
    construction.  Squares past the double range are rescaled by a power of
    two; a variance past it raises ``OverflowError``.
    """
    v = _vector(samples, "samples", grid.n)
    bound = lambda: 2 * np.frexp(v)[1] + 2  # |v - mean(v)| < 2 * 2**frexp(v)[1]
    return _scaled_mean(lambda x: _centered_mean_square(np.array(x)), v, 2, bound, "the variance")


def _centered_mean_square(d: np.ndarray) -> np.ndarray:
    """mean((d - mean(d))^2) along the last axis, computed in place in ``d``.

    Reducing along the contiguous last axis keeps numpy's pairwise summation,
    so each row of a block gives the bits it gives alone.  Each mean is the
    sum divided by the count, which is what ``ndarray.mean`` computes, without
    its Python wrapper.
    """
    n = d.shape[-1]
    d -= np.add.reduce(d, axis=-1, keepdims=True) / n
    d *= d
    return np.add.reduce(d, axis=-1) / n


def _scaled_mean(mean, x: np.ndarray, degree: int, bound, what: str) -> float:
    """``mean(x)`` for a ``mean`` homogeneous of degree 1 or 2 that leaves ``x``
    as is.  Only if that is not finite, ``x`` is scaled by the power of two that
    moves the terms' base-2 exponents (bounded by the largest of ``bound()``, up
    to the 2 that centering adds) below 960, and the mean is scaled back; one
    past the double range raises ``OverflowError`` naming ``what``."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(mean(x))
    if math.isfinite(value):
        return value
    shift = -((960 - int(np.max(bound()))) // degree)
    try:
        return math.ldexp(float(mean(np.ldexp(x, -shift))), degree * shift)
    except OverflowError:
        raise OverflowError(f"{what} exceeds the double range") from None


def _transform_power(x: np.ndarray, n: int) -> np.ndarray:
    """|sum_t x_t e^{-i t theta_k}|^2 at the grid nodes theta_k = -pi + 2 pi k / n,
    for each row along the last axis of a 1-d or 2-d ``x``.

    Since e^{-i t theta_k} = (-1)^t e^{-2 pi i t k / n}, the sum equals an
    n-point DFT of the sign-alternated signal folded modulo n; the fold is
    exact for any signal length.  That signal is real, so its DFT is
    conjugate-symmetric and node k carries the power of node n - k: a real
    FFT gives nodes 0..n//2 (:func:`_half_power`) and the rest are their
    mirror (:func:`_mirror`), for even and odd n alike.  Each row gives the
    bits it gives alone.
    """
    return _mirror(_half_power(x, n), n)


def _half_power(x: np.ndarray, n: int) -> np.ndarray:
    """The first n//2 + 1 nodes of :func:`_transform_power`."""
    length = x.shape[-1]
    signed = x * np.where(np.arange(length) % 2, -1.0, 1.0)
    if length > n:
        padded = np.zeros(x.shape[:-1] + (-(-length // n) * n,))
        padded[..., :length] = signed
        signed = padded.reshape(x.shape[:-1] + (-1, n)).sum(axis=-2)
    # rfft zero-pads a signal shorter than n itself
    half = np.fft.rfft(signed, n)
    return half.real**2 + half.imag**2


def _mirrored_pairs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The samples at theta_j and at -theta_j = theta_{n-j}, for the nodes
    j = 1..ceil(n/2)-1 that have a distinct mirror.  theta = -pi, and theta =
    0 when n is even, are their own mirrors."""
    n = v.size
    return v[1 : (n + 1) // 2], v[: n // 2 : -1]


def _mirror(half: np.ndarray, n: int) -> np.ndarray:
    """All n nodes from the first n//2 + 1: node k carries node n - k."""
    return np.concatenate((half, half[..., n - half.shape[-1] : 0 : -1]), axis=-1)
