"""Output checks against references the benchmark computes with numpy alone.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.  The tolerances are the benchmark's contract with
the program and are not tuned per run.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import inputs

MATRIX_RTOL = 1e-10  # distance matrix entries (printed with 12 digits)
WELCH_RTOL = 1e-9
PATH_POINT_RTOL = 1e-12
PATH_LENGTH_RTOL = 1e-10
ORACLE_RTOL = 1e-9
THETA_ATOL = 1e-12


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


# ---------------------------------------------------------------- matrix


def matrix_reference(values: np.ndarray) -> tuple[np.ndarray, dict]:
    """std(log f_i - log f_j), with log ratio 0 at shared zeros and ``inf``
    when the zero sets differ; also the pair-kind shares of the input."""
    k = values.shape[0]
    zero = values == 0.0
    logs = np.log(np.where(zero, 1.0, values))
    keys = [row.tobytes() for row in zero]
    ref = np.zeros((k, k))
    for i in range(k - 1):
        diff = logs[i] - logs[i + 1 :]
        diff -= diff.mean(axis=1, keepdims=True)
        ref[i, i + 1 :] = np.sqrt(np.mean(diff * diff, axis=1))
        for j in range(i + 1, k):
            if keys[i] != keys[j]:
                ref[i, j] = math.inf
    ref = np.triu(ref, 1)
    ref = ref + ref.T
    pairs = k * (k - 1) // 2
    upper = ref[np.triu_indices(k, 1)]
    has_zero = zero.any(axis=1)
    shared = sum(
        1 for i in range(k) for j in range(i + 1, k) if has_zero[i] and keys[i] == keys[j]
    )
    inf_pairs = int(np.isinf(upper).sum())
    shares = {
        "pairs": pairs,
        "finite_share": (pairs - inf_pairs - shared) / pairs,
        "shared_zero_share": shared / pairs,
        "inf_share": inf_pairs / pairs,
    }
    return ref, shares


def check_matrix(path: Path, labels: list[str], ref: np.ndarray) -> list[str]:
    try:
        rows = [line.split(",") for line in path.read_text().split("\n")[:-1]]
    except OSError as exc:
        return [f"matrix output unreadable: {exc}"]
    k = len(labels)
    if len(rows) != k + 1 or rows[0] != ["", *labels]:
        return ["matrix header or row count differs from the input labels"]
    cells = []
    for label, row in zip(labels, rows[1:]):
        if len(row) != k + 1 or row[0] != label:
            return [f"matrix row {label!r} is malformed"]
        cells.append(row[1:])
    problems = []
    for i in range(k):
        if cells[i][i] != "0":
            problems.append(f"diagonal entry {i} is {cells[i][i]!r}, not '0'")
        for j in range(i + 1, k):
            text = cells[i][j]
            if text != cells[j][i]:
                problems.append(f"entries ({i},{j}) and ({j},{i}) differ as strings")
            elif math.isinf(ref[i, j]) != (text == "inf"):
                problems.append(f"entry ({i},{j}) = {text!r}, reference {ref[i, j]!r}")
            elif text != "inf" and abs(float(text) - ref[i, j]) > MATRIX_RTOL * ref[i, j]:
                problems.append(f"entry ({i},{j}) = {text}, reference {ref[i, j]!r}")
            if len(problems) > 5:
                return problems
    return problems


# ---------------------------------------------------------------- PSD files


def read_psd_text(path: Path) -> tuple[np.ndarray, np.ndarray]:
    text = path.read_text()
    header, _, body = text.partition("\n")
    if header != "theta,psd":
        raise ValueError(f"{path.name}: header {header!r}")
    flat = np.array(body.replace(",", "\n").split(), dtype=float)
    return flat[0::2], flat[1::2]


def _psd_problems(name: str, theta: np.ndarray, values: np.ndarray, ref: np.ndarray, rtol: float) -> list[str]:
    if values.size != ref.size or theta.size != ref.size:
        return [f"{name}: {values.size} rows, expected {ref.size}"]
    problems = []
    if np.max(np.abs(theta - inputs.grid_nodes(ref.size))) > THETA_ATOL:
        problems.append(f"{name}: frequency column is off the grid")
    err = _rel_err(values, ref)
    if not err <= rtol:
        problems.append(f"{name}: max relative error {err:.3e} > {rtol:g}")
    return problems


def check_psd_file(path: Path, ref: np.ndarray, rtol: float) -> list[str]:
    try:
        theta, values = read_psd_text(path)
    except (OSError, ValueError) as exc:
        return [f"PSD output unreadable: {exc}"]
    return _psd_problems(path.name, theta, values, ref, rtol)


def welch_reference(samples: np.ndarray, n: int = inputs.GRID_N) -> np.ndarray:
    """Hann-window Welch average evaluated at theta_k = -pi + 2*pi*k/n.

    Written independently of specdist: each segment is zero-padded to an
    n-point FFT, whose bins sit at 2*pi*j/n, and rolled by n/2 so bin k
    lands on theta_k (specdist sign-alternates the signal instead).
    """
    seg = inputs.WELCH_SEGMENT
    hop = int(seg * (1.0 - inputs.WELCH_OVERLAP))
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
    starts = np.arange(0, samples.size - seg + 1, hop)
    total = np.zeros(n)
    for chunk in np.array_split(starts, max(1, starts.size // 256)):
        frames = samples[chunk[:, None] + np.arange(seg)] * window
        total += (np.abs(np.fft.fft(frames, n=n, axis=1)) ** 2).sum(axis=0)
    return np.roll(total, n // 2) / (starts.size * float(window @ window))


# ---------------------------------------------------------------- path


def path_reference(f0: np.ndarray, f1: np.ndarray, steps: int) -> list[np.ndarray]:
    taus = np.arange(steps) / (steps - 1)
    return [f0 ** (1.0 - t) * f1**t for t in taus]


def check_path(out_dir: Path, f0: np.ndarray, f1: np.ndarray, ref: list[np.ndarray]) -> list[str]:
    width = max(3, len(str(len(ref) - 1)))
    names = [f"point_{i:0{width}d}.csv" for i in range(len(ref))]
    present = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if present != names:
        return [f"path directory holds {len(present)} files, expected {names[0]}..{names[-1]}"]
    points = []
    for name, expected in zip(names, ref):
        try:
            theta, values = read_psd_text(out_dir / name)
        except (OSError, ValueError) as exc:
            return [f"PSD output unreadable: {exc}"]
        problems = _psd_problems(name, theta, values, expected, PATH_POINT_RTOL)
        if problems:
            return problems
        points.append(values)
    logs = np.log(np.array(points))
    length = float(np.std(np.diff(logs, axis=0), axis=1).sum())
    distance = float(np.std(np.log(f1) - np.log(f0)))
    if not abs(length - distance) <= PATH_LENGTH_RTOL * distance:
        return [f"path length {length!r} differs from endpoint distance {distance!r}"]
    return []


# ---------------------------------------------------------------- oracle


def oracle_reference(op: inputs.OracleOp) -> float:
    """Closed-form arithmetic-over-geometric mean of f1/f2.  For an AR(q)
    f2 the order-p predictor, p >= q, is exact, so rho_empirical at every
    swept order must reproduce this value."""
    ratio = op.f1_values() / op.f2_values()
    return float(np.mean(ratio) / np.exp(np.mean(np.log(ratio))))


def check_oracle(result: dict, reference: float) -> list[str]:
    problems = []
    for key, got in result.items():
        if not abs(got - reference) <= ORACLE_RTOL * reference:
            problems.append(f"{key} = {got!r}, reference {reference!r}")
    if len(result) != len(inputs.ORACLE_ORDERS) + 1:
        problems.append(f"oracle op returned {sorted(result)}")
    return problems
