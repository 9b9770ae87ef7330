"""CSV persistence: PSD files, time-series files, distance matrices.

PSD file format: header ``theta,psd``, rows ``<theta>,<value>`` with theta
ascending from -pi (inclusive) on a uniform grid whose final node stays
below pi.  Values are written with 17 significant digits so a write/read
round trip is bitwise lossless.  Distance matrices carry their labels in
the first row and column; infinite entries use the literal ``inf``.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .divergences import geodesic_distance
from .errors import CsvParseError, InvalidGridError, NegativeDensityError
from .estimation import TimeSeries
from .grid import make_grid
from .spectra import Psd, _require_same_grid, psd_from_samples

__all__ = [
    "DistanceMatrix",
    "read_psd_csv",
    "write_psd_csv",
    "read_timeseries_csv",
    "build_distance_matrix",
    "write_distance_matrix_csv",
    "format_scalar",
]

PSD_HEADER = ("theta", "psd")

# Accepted headers, as stripped column names, and the columns read from each.
_PSD_LAYOUT = {PSD_HEADER: (0, 1)}
_SERIES_LAYOUTS = {("t", "value"): (1,), ("value",): (0,)}

# Exact first lines that let a file take the vectorized parse.
_PSD_HEADER_LINE = ",".join(PSD_HEADER) + "\n"
_SERIES_HEADER_LINES = tuple(",".join(h) + "\n" for h in _SERIES_LAYOUTS)

# Relative spacing jitter allowed before a frequency column is rejected.
_SPACING_RTOL = 1e-9

# Significant digits: full double precision in PSD files, display precision
# in distance matrices and on stdout.
_PSD_DIGITS = 17
_RESULT_DIGITS = 12

# Rows of strictly positive spectra differenced against one row at a time in
# the pair loop; caps the scratch block at this many grid-length vectors.
_PAIR_BLOCK = 32


def format_scalar(x: float) -> str:
    """Render a result with 12 significant digits; infinities as ``inf``."""
    return f"{float(x):.{_RESULT_DIGITS}g}"


def write_psd_csv(psd: Psd, path) -> None:
    """Write ``theta,psd`` rows at full double precision, LF-terminated.

    ``path`` may also be an open text stream (e.g. stdout).
    """
    if hasattr(path, "write"):
        _write_psd_rows(psd, path)
    else:
        with open(path, "w", newline="") as fh:
            _write_psd_rows(psd, fh)


def _write_psd_rows(psd: Psd, fh) -> None:
    # Numbers never need CSV quoting, so the rows are formatted directly.
    fh.write(_PSD_HEADER_LINE)
    fh.writelines(
        [
            f"{theta:.{_PSD_DIGITS}g},{value:.{_PSD_DIGITS}g}\n"
            for theta, value in zip(psd.grid.nodes.tolist(), psd.values.tolist())
        ]
    )


def _numeric_table(path, headers: tuple[str, ...]) -> np.ndarray | None:
    """The data rows of a plain numeric CSV in one vectorized parse.

    Returns an ``(n, columns)`` array when the first line is exactly one of
    ``headers`` (LF-terminated; the column count is that header's) and every
    row parses to finite numbers.  Returns ``None`` for anything else, so the
    caller's row parser decides: it accepts the same files and is the only
    code that names a bad line.
    """
    with open(path, newline="") as fh:
        try:
            header = fh.readline()
            if header not in headers:
                return None
            with warnings.catch_warnings():
                # a header-only file: "input contained no data"
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            return None
    if table.shape[1] != header.count(",") + 1 or not np.isfinite(table).all():
        return None
    return table


def _read_rows(path, layouts: dict) -> tuple[np.ndarray, list[int]]:
    """Row-by-row parse of a numeric CSV, raising on the first bad line.

    ``layouts`` maps each accepted header to the columns read from it; the
    other columns must be present but are not parsed.  Returns those columns
    as an ``(n, len(columns))`` array of finite floats and the 1-based line
    number of each row.
    """
    rows: list[list[float]] = []
    lines: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        columns = None if header is None else layouts.get(tuple(c.strip() for c in header))
        if columns is None:
            expected = " or ".join(repr(",".join(h)) for h in layouts)
            raise CsvParseError(f"{path}: line 1: expected header {expected}, got {header!r}")
        for row in reader:
            lineno = reader.line_num  # the row's last line, past quoted newlines
            if not row:
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values = [float(row[c]) for c in columns]
            except ValueError:
                raise CsvParseError(
                    f"{path}: line {lineno}: non-numeric field in {row!r}"
                ) from None
            if not all(map(math.isfinite, values)):
                raise CsvParseError(f"{path}: line {lineno}: non-finite field")
            rows.append(values)
            lines.append(lineno)
    return np.array(rows, dtype=float).reshape(-1, len(columns)), lines


def read_psd_csv(path) -> Psd:
    """Read a PSD file back, validating the grid it claims to live on.

    Raises
    ------
    CsvParseError
        Malformed header or row (message carries the 1-based line number).
    NegativeDensityError
        A negative sample in a file whose rows all parse (with its line
        number).
    InvalidGridError
        Frequency column that is not uniform from -pi at 1e-9 relative
        tolerance.
    """
    table = _numeric_table(path, (_PSD_HEADER_LINE,))
    if table is None or np.any(table[:, 1] < 0.0):
        table, lines = _read_rows(path, _PSD_LAYOUT)
        negative = np.flatnonzero(table[:, 1] < 0.0)
        if negative.size:
            i = negative[0]
            raise NegativeDensityError(
                f"{path}: line {lines[i]}: negative density value {float(table[i, 1])}"
            )
    thetas, values = table[:, 0], table[:, 1]
    n = len(thetas)
    if n < 2:
        raise CsvParseError(f"{path}: a PSD file needs at least 2 data rows, got {n}")
    grid = make_grid(n)
    spacing = np.diff(thetas)
    if np.any(np.abs(spacing - grid.spacing) > _SPACING_RTOL * grid.spacing):
        raise InvalidGridError(
            f"{path}: frequency column is not uniform with spacing 2*pi/{n}"
        )
    if abs(thetas[0] + math.pi) > _SPACING_RTOL * grid.spacing:
        raise InvalidGridError(
            f"{path}: frequency column must start at -pi, got {float(thetas[0])!r}"
        )
    return psd_from_samples(grid, values)


def read_timeseries_csv(path) -> TimeSeries:
    """Read a signal from a ``t,value`` or single ``value`` column file.

    The ``t`` column must be present on every row but is not parsed.
    """
    table = _numeric_table(path, _SERIES_HEADER_LINES)
    if table is None:
        table, _ = _read_rows(path, _SERIES_LAYOUTS)
    try:
        return TimeSeries(samples=np.ascontiguousarray(table[:, -1]), label=Path(path).stem)
    except ValueError as exc:
        raise CsvParseError(f"{path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise geodesic distances with a zero diagonal.

    Off-diagonal entries may be ``inf`` (pairs with differing zero sets);
    that is data, not an error.
    """

    labels: tuple[str, ...]
    entries: np.ndarray


def build_distance_matrix(
    spectra: Sequence[Psd], labels: Sequence[str], jobs: int = 1
) -> DistanceMatrix:
    """Geodesic distances between all pairs, each unordered pair computed once.

    Evaluation is single-threaded and vectorized; ``jobs`` is accepted for
    compatibility and ignored.  Strictly positive spectra take their logs
    once, and each row is differenced against the later rows a block at a
    time, with the same operations and summation order as
    :func:`geodesic_distance`, so every entry is bit-identical to it.  Pairs
    involving a spectrum with zeros go through :func:`geodesic_distance`
    itself, which owns the zero-set bookkeeping and the ``inf`` completion.
    """
    if len(spectra) != len(labels):
        raise ValueError(
            f"{len(spectra)} spectra but {len(labels)} labels"
        )
    k = len(spectra)
    for f in spectra[1:]:
        _require_same_grid(spectra[0], f)
    entries = np.zeros((k, k))
    has_zeros = [bool(f.zero_set) for f in spectra]
    positive = [i for i, z in enumerate(has_zeros) if not z]
    if positive:
        logs = np.empty((len(positive), spectra[0].grid.n))
        for row, i in zip(logs, positive):
            np.log(spectra[i].values, out=row)
        columns = np.array(positive)
        scratch = np.empty((min(_PAIR_BLOCK, len(positive)), logs.shape[1]))
        for a, i in enumerate(positive):
            for start in range(a + 1, len(positive), _PAIR_BLOCK):
                js = columns[start : start + _PAIR_BLOCK]
                d = scratch[: js.size]
                # central_variance of log f_i - log f_j; reducing along the
                # contiguous last axis keeps numpy's pairwise summation order.
                np.subtract(logs[a], logs[start : start + js.size], out=d)
                d -= d.mean(axis=1, keepdims=True)
                d *= d
                entries[i, js] = entries[js, i] = np.sqrt(d.mean(axis=1))
    for i in range(k):
        for j in range(i + 1, k):
            if has_zeros[i] or has_zeros[j]:
                entries[i, j] = entries[j, i] = geodesic_distance(spectra[i], spectra[j])
    entries.setflags(write=False)
    return DistanceMatrix(labels=tuple(labels), entries=entries)


def write_distance_matrix_csv(matrix: DistanceMatrix, path) -> None:
    """Write the labeled matrix; ``inf`` is the literal for infinite entries."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["", *matrix.labels])
            for label, row in zip(matrix.labels, matrix.entries):
                writer.writerow([label, *(format_scalar(x) for x in row)])
    except OSError as exc:
        raise OSError(f"cannot write distance matrix to {path}: {exc}") from exc
