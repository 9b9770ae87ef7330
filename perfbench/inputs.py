"""Seeded inputs for the specdist benchmark, built with numpy alone.

Nothing here imports specdist: the files are written by the benchmark's
own writer in the documented CSV formats (17 significant digits, LF line
ends), so generating inputs never runs the code under test, and the
spectra the files hold double as the references the checks compare with.

Every generator takes the workload seed; the same seed gives the same
inputs.  The shape of each input set (how many spectra have zeros, how many
of those share a zero set, series length, path size) is fixed, and only the
values vary with the seed, so the cost of an op does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID_N = 4096

# matrix-k200: 200 spectra; 20 of them (one in ten) carry exact zeros.
MATRIX_K = 200
SHARED_ZERO_GROUPS = 3  # groups of spectra that vanish on the same band
SHARED_ZERO_GROUP_SIZE = 4
OWN_ZERO_SPECTRA = 8  # spectra that vanish on a band of their own

# estimate-1m
SERIES_LEN = 1 << 20
WELCH_SEGMENT = 512
WELCH_OVERLAP = 0.5

# path-101
PATH_STEPS = 101

# oracle-sweep
ORACLE_ORDERS = (16, 64, 256, 512)
ORACLE_MAX_Q = 8

# Reflection coefficients of generated AR models stay below this in modulus
# and their poles below _MAX_POLE, so quadrature on 4096 nodes is exact to
# rounding and the order-p predictor of an AR(q) density, p >= q, is exact.
_MAX_REFLECTION = 0.7
_MAX_POLE = 0.95


def grid_nodes(n: int = GRID_N) -> np.ndarray:
    """theta_k = -pi + 2*pi*k/n, k = 0..n-1: the documented PSD grid."""
    return -np.pi + (2.0 * np.pi / n) * np.arange(n)


def ar_density(a, sigma2: float, n: int = GRID_N) -> np.ndarray:
    """sigma2 / |1 - sum_l a[l-1] e^{-i l theta}|^2 on the grid, from the
    real cosine and sine sums (not the complex form specdist uses)."""
    theta = grid_nodes(n)
    re = np.ones(n)
    im = np.zeros(n)
    for lag, coeff in enumerate(np.asarray(a, dtype=float), start=1):
        re -= coeff * np.cos(lag * theta)
        im += coeff * np.sin(lag * theta)
    return sigma2 / (re * re + im * im)


def expcos_density(a: float, n: int = GRID_N) -> np.ndarray:
    return np.exp(a * np.cos(grid_nodes(n)))


def stable_ar(rng: np.random.Generator, q: int) -> np.ndarray:
    """AR(q) coefficients built from reflection coefficients by the step-up
    recursion, redrawn until every pole lies within _MAX_POLE."""
    while True:
        a = np.zeros(0)
        for k in rng.uniform(-_MAX_REFLECTION, _MAX_REFLECTION, size=q):
            a = np.append(a - k * a[::-1], k)
        if np.abs(np.roots(np.concatenate(([1.0], -a)))).max() < _MAX_POLE:
            return a


def _random_positive(rng: np.random.Generator) -> np.ndarray:
    q = int(rng.integers(1, ORACLE_MAX_Q + 1))
    f = ar_density(stable_ar(rng, q), float(rng.uniform(0.5, 2.0)))
    return f * np.exp(rng.uniform(-1.5, 1.5) * np.cos(grid_nodes() - rng.uniform(-np.pi, np.pi)))


def _random_band(rng: np.random.Generator) -> tuple[int, int]:
    width = int(rng.integers(16, 129))
    start = int(rng.integers(0, GRID_N - width))
    return start, start + width


# ---------------------------------------------------------------- writers


def format_psd_csv(values: np.ndarray) -> str:
    theta = grid_nodes(values.size)
    rows = [f"{t:.17g},{v:.17g}" for t, v in zip(theta.tolist(), values.tolist())]
    return "theta,psd\n" + "\n".join(rows) + "\n"


def write_psd_csv(path: Path, values: np.ndarray) -> int:
    text = format_psd_csv(values)
    path.write_text(text)
    return len(text)


def write_series_csv(path: Path, samples: np.ndarray) -> int:
    rows = [f"{t},{v:.17g}" for t, v in enumerate(samples.tolist())]
    text = "t,value\n" + "\n".join(rows) + "\n"
    path.write_text(text)
    return len(text)


# ---------------------------------------------------------------- workloads


@dataclass
class MatrixInputs:
    paths: list[Path]
    labels: list[str]
    values: np.ndarray  # K x n, the exact doubles the files hold
    bytes_on_disk: int


def matrix_inputs(seed: int, out_dir: Path) -> MatrixInputs:
    """K = 200 spectra: 180 strictly positive, 12 in groups of 4 that share a
    zero band (finite, masked pairs) and 8 with a zero band of their own
    (infinite pairs).  File order is shuffled."""
    rng = np.random.default_rng([seed, 1])
    values = np.array([_random_positive(rng) for _ in range(MATRIX_K)])
    bands: list[tuple[int, int]] = []
    while len(bands) < SHARED_ZERO_GROUPS + OWN_ZERO_SPECTRA:
        band = _random_band(rng)
        if band not in bands:
            bands.append(band)
    zero_bands = [b for b in bands[:SHARED_ZERO_GROUPS] for _ in range(SHARED_ZERO_GROUP_SIZE)]
    zero_bands += bands[SHARED_ZERO_GROUPS:]
    for row, (lo, hi) in zip(values, zero_bands):
        row[lo:hi] = 0.0
    values = values[rng.permutation(MATRIX_K)]
    labels = [f"s{i:03d}" for i in range(MATRIX_K)]
    paths = [out_dir / f"{label}.csv" for label in labels]
    size = sum(write_psd_csv(p, v) for p, v in zip(paths, values))
    return MatrixInputs(paths=paths, labels=labels, values=values, bytes_on_disk=size)


@dataclass
class SeriesInputs:
    path: Path
    samples: np.ndarray
    bytes_on_disk: int


def series_inputs(seed: int, out_dir: Path) -> SeriesInputs:
    """2^20 samples of AR-coloured Gaussian noise (circular FFT filtering).
    17 significant digits round-trip exactly, so the reference sees the
    doubles the program parses."""
    rng = np.random.default_rng([seed, 2])
    a = stable_ar(rng, int(rng.integers(2, 7)))
    noise = np.fft.fft(rng.normal(size=SERIES_LEN))
    omega = 2.0 * np.pi * np.arange(SERIES_LEN) / SERIES_LEN
    transfer = np.ones(SERIES_LEN, dtype=complex)
    for lag, coeff in enumerate(a, start=1):
        transfer -= coeff * np.exp(-1j * lag * omega)
    samples = np.fft.ifft(noise / transfer).real * rng.uniform(0.5, 4.0)
    path = out_dir / "series.csv"
    size = write_series_csv(path, samples)
    return SeriesInputs(path=path, samples=samples, bytes_on_disk=size)


@dataclass
class PathInputs:
    f0_arg: str
    f1_arg: str
    f0: np.ndarray
    f1: np.ndarray


def path_inputs(seed: int) -> PathInputs:
    """Inline analytic endpoints ``ar:<coeffs>:<sigma2>`` and ``expcos:<a>``;
    repr() keeps every float exact through the command line."""
    rng = np.random.default_rng([seed, 3])
    a = stable_ar(rng, int(rng.integers(1, 5)))
    sigma2 = float(rng.uniform(0.5, 2.0))
    alpha = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
    f0_arg = "ar:" + ",".join(repr(float(c)) for c in a) + ":" + repr(sigma2)
    return PathInputs(
        f0_arg=f0_arg,
        f1_arg=f"expcos:{alpha!r}",
        f0=ar_density(a, sigma2),
        f1=expcos_density(alpha),
    )


@dataclass
class OracleOp:
    """One convergence study: f1 is expcos or AR, f2 a stable AR(q <= 8)."""

    f1_kind: str  # "expcos" or "ar"
    f1_alpha: float
    f1_ar: list[float]
    f1_sigma2: float
    f2_ar: list[float]
    f2_sigma2: float

    def f1_values(self) -> np.ndarray:
        if self.f1_kind == "expcos":
            return expcos_density(self.f1_alpha)
        return ar_density(self.f1_ar, self.f1_sigma2)

    def f2_values(self) -> np.ndarray:
        return ar_density(self.f2_ar, self.f2_sigma2)


def oracle_op(seed: int, index: int) -> OracleOp:
    """Op ``index`` of the oracle sweep; no two ops share a spectrum.  The f1
    kind alternates in pairs of ops, so traced and untraced ops (which
    alternate singly) see both kinds."""
    rng = np.random.default_rng([seed, 4, index])
    expcos = (index // 2) % 2 == 0
    return OracleOp(
        f1_kind="expcos" if expcos else "ar",
        f1_alpha=float(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])),
        f1_ar=[] if expcos else stable_ar(rng, int(rng.integers(1, 5))).tolist(),
        f1_sigma2=float(rng.uniform(0.5, 2.0)),
        f2_ar=stable_ar(rng, int(rng.integers(1, ORACLE_MAX_Q + 1))).tolist(),
        f2_sigma2=float(rng.uniform(0.5, 2.0)),
    )
