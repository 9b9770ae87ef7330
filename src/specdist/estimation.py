"""Nonparametric spectral estimation: periodogram and Welch averaging.

Estimates are evaluated directly at the grid nodes theta_k in [-pi, pi)
(not on the FFT's own bin layout), so they can be compared immediately
with analytic densities.  Estimated spectra may contain exact zeros for
contrived signals; those zeros are preserved and can legitimately produce
infinite distances downstream.  Nothing here floors a spectrum silently —
use Welch averaging (or floor explicitly) if that is not what you want.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .grid import FrequencyGrid, _count, _half_power, _mirror, _Value, _vector
from .spectra import Psd, _density_in_range

__all__ = ["TimeSeries", "periodogram", "welch", "WINDOWS"]

WINDOWS = ("rectangular", "hann")

_MIN_SEGMENT = 8

# Segments transformed per call: larger blocks run no faster and hold more
# scratch memory (about 1.4 MiB at 16 rows on a 4096-node grid).
_SEGMENT_BLOCK = 16


@dataclass(frozen=True, eq=False)
class TimeSeries(_Value):
    """A finite real signal (read-only, at least two samples)."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _vector(self.samples, "samples", at_least=2))

    def __len__(self) -> int:
        return self.samples.size


def periodogram(ts: TimeSeries, grid: FrequencyGrid) -> Psd:
    """Raw periodogram |DTFT|^2 / length evaluated at the grid nodes.

    When ``grid.n >= len(ts)`` the grid mean of the result equals the mean
    square of the signal, so total power is preserved.

    Raises
    ------
    EstimationError
        For the all-zero signal, whose estimate is not a valid density.
    """
    return _segment_average(ts, len(ts), 1, "rectangular", grid, "periodogram")


def _window(kind: str, length: int) -> np.ndarray:
    if kind == "rectangular":
        return np.ones(length)
    if kind == "hann":
        # periodic variant, appropriate for averaged spectral estimates
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    raise ValueError(f"unknown window {kind!r}; choose from {WINDOWS}")


def welch(
    ts: TimeSeries,
    segment: int,
    overlap: float,
    window: str,
    grid: FrequencyGrid,
) -> Psd:
    """Average of windowed segment periodograms.

    Each segment transform is normalized by the window energy sum(w^2), so
    a white-noise input of variance v estimates a flat density of level v
    regardless of the window.  Segments advance by
    ``hop = floor(segment * (1 - overlap))``, which must be at least 1; the
    product is rounded to 9 decimals before the floor, so the hop is that of
    the decimal overlap as written (segment 10 at overlap 0.9 advances by 1
    sample, not 0) rather than of its nearest binary float.

    Parameters
    ----------
    segment : int
        Samples per segment; at least 8 and at most ``len(ts)``.
    overlap : float
        Fraction of a segment shared with its successor, in [0, 1).
    window : str
        ``"rectangular"`` or ``"hann"``.
    """
    segment = _count(segment, f"segment length must be >= {_MIN_SEGMENT}, got {{}}", _MIN_SEGMENT)
    if segment > len(ts):
        raise ValueError(
            f"segment length {segment} exceeds the series length {len(ts)}"
        )
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must lie in [0, 1), got {overlap}")
    hop = math.floor(round(segment * (1.0 - overlap), 9))
    if hop < 1:
        raise ValueError(
            f"overlap {overlap} leaves a hop of {hop} samples on a {segment}-sample "
            "segment; segments must advance by at least 1"
        )
    return _segment_average(ts, segment, hop, window, grid, "Welch estimate")


def _segment_average(
    ts: TimeSeries, segment: int, hop: int, window: str, grid: FrequencyGrid, name: str
) -> Psd:
    """Mean of the windowed segment transforms, each normalized by the window
    energy; the segments start every ``hop`` samples and are transformed
    ``_SEGMENT_BLOCK`` at a time.  Only the first n//2 + 1 nodes are summed;
    the rest mirror them, so the sums are mirrored once at the end."""
    w = _window(window, segment)
    energy = float(w @ w)
    frames = np.lib.stride_tricks.sliding_window_view(ts.samples, segment)[::hop]
    accum = np.zeros(grid.n // 2 + 1)
    # an overflow gives inf samples, or nan ones past inf - inf in a transform
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(frames), _SEGMENT_BLOCK):
            block = frames[first : first + _SEGMENT_BLOCK]
            accum += _half_power(block * w, grid.n).sum(axis=0)
        values = _mirror(accum, grid.n) / (len(frames) * energy)
    try:
        return _density_in_range(grid, values)
    except ValueError as exc:
        raise EstimationError(f"{name} is not a valid density: {exc}") from exc
