"""CSV persistence: PSD files, time-series files, distance matrices.

PSD file format: header ``theta,psd``, rows ``<theta>,<value>`` with theta
ascending from -pi (inclusive) on a uniform grid whose final node stays
below pi.  Values are written with 17 significant digits so a write/read
round trip is bitwise lossless.  Distance matrices carry their labels in
the first row and column; infinite entries use the literal ``inf``.

Every PSD file on an n-node grid has the same theta column, so its theta
fields and the file template built from them are one cached text per n,
for grids of up to ``_CANONICAL_MAX_N`` nodes: writes fill the template
with the values, and reads compare the theta fields' bytes with the
cached ones.  Reads try three parses in turn, and each gives the same
values as the next on the files it accepts:

1. the canonical parse, for a file laid out exactly as written (the header
   line ``theta,psd``, then ``<theta>,<value>`` rows with LF line ends and
   the grid's theta text): it reads the bytes once, converts only the
   values and takes the thetas from the grid;
2. one ``np.loadtxt`` over the whole table, for any file whose header line
   is exact: loadtxt is given the file's absolute name, not an open handle,
   so it reads the file in chunks in C;
3. the row parser, the only one that reports a bad line.

Time-series files take the last two.  Every parse accepts exactly the
numbers ``float`` accepts.  A file whose name ends in ``.gz``, ``.bz2``,
``.xz`` or ``.lzma`` skips the loadtxt parse, because numpy would open it
with a decompressor; every file is read as plain text, whatever its name.
A source that is not a regular file, such as the pipe of ``<(cat f.csv)``,
gives its bytes only once: it is read whole, and the canonical parse and the
row parser run on those bytes, while loadtxt, which opens its file by name,
is skipped.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import stat
import warnings
from io import BytesIO, TextIOWrapper
from types import SimpleNamespace

import numpy as np

from .divergences import DistanceMatrix, build_distance_matrix
from .errors import CsvParseError, InvalidGridError, NegativeDensityError
from .estimation import TimeSeries
from .grid import make_grid
from .spectra import Psd, psd_from_samples

# build_distance_matrix and DistanceMatrix stay bound here, unlisted: they are
# divergences' names, and the benchmark traces the matrix at this binding.
__all__ = [
    "read_psd_csv",
    "write_psd_csv",
    "read_timeseries_csv",
    "write_distance_matrix_csv",
    "format_scalar",
]

PSD_HEADER = ("theta", "psd")
_PSD_HEADER_LINE = (",".join(PSD_HEADER) + "\n").encode()

# Accepted headers, as stripped column names, and the columns read from each.
_PSD_LAYOUT = {PSD_HEADER: (0, 1)}
_SERIES_LAYOUTS = {("t", "value"): (1,), ("value",): (0,)}

# Relative spacing jitter allowed before a frequency column is rejected.
_SPACING_RTOL = 1e-9

# Grids of up to this many nodes keep their file text cached and take the
# canonical parse: a write template of about 26 bytes a node and theta
# fields of about 21.  On larger grids the field list costs more than
# skipping half the conversions saves, and the cached text would hold on to
# megabytes.
_CANONICAL_MAX_N = 1 << 14

# Written rows are at most 48 bytes, so a longer file has too many.
_CANONICAL_MAX_BYTES = len(_PSD_HEADER_LINE) + 64 * _CANONICAL_MAX_N

# File name suffixes numpy's datasource opens with a decompressor, so
# np.loadtxt would not read such a file as the plain text it is.
_DECOMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def format_scalar(x: float) -> str:
    """Render a result with 12 significant digits; infinities as ``inf``."""
    return f"{float(x):.12g}"


def write_psd_csv(psd: Psd, path) -> None:
    """Write ``theta,psd`` rows at full double precision, LF-terminated.

    ``path`` may also be an open text stream (e.g. stdout).
    """
    # Numbers never need CSV quoting, so the whole file is one %-format of
    # the values ("%.17g" is what f"{v:.17g}" gives).
    text = _grid_text(psd.grid.n)[1] % tuple(psd.values.tolist())
    if hasattr(path, "write"):
        path.write(text.decode("ascii"))
    else:
        with open(path, "wb") as fh:
            fh.write(text)


@functools.lru_cache(maxsize=4)
def _cached_grid_text(n: int) -> tuple[bytes, bytes]:
    """The theta fields of every PSD file on the n-node grid, as written and
    joined by commas, and the text of such a file with ``%.17g`` for each
    value."""
    thetas = b",".join(b"%.17g" % theta for theta in make_grid(n).nodes.tolist())
    return thetas, _PSD_HEADER_LINE + thetas.replace(b",", b",%.17g\n") + b",%.17g\n"


def _grid_text(n: int) -> tuple[bytes, bytes]:
    """:func:`_cached_grid_text`, cached for grids of up to ``_CANONICAL_MAX_N`` nodes."""
    return (_cached_grid_text if n <= _CANONICAL_MAX_N else _cached_grid_text.__wrapped__)(n)


# Every byte but the field and line separators (CR ends a line for the row
# parser too), deleted to read a file's row layout.
_NOT_SEPARATORS = bytes(set(range(256)) - set(b",\n\r"))

# Every byte but the comma and the information separators U+001C-U+001F,
# deleted to count a file's fields and find the characters only loadtxt takes.
_NOT_COMMA_OR_SEPARATOR = bytes(set(range(256)) - set(b",\x1c\x1d\x1e\x1f"))


def _read_source(path, head: int) -> tuple[bytes, bytes | None]:
    """The first ``head`` bytes of a file and, unless it is a regular file,
    all of its bytes.

    A regular file is read no further than its size, so the buffer is no
    larger than the file, and every parse may open it again.  Any other
    source, such as a pipe, gives its bytes once, so it is read whole and
    both results are those bytes.
    """
    with open(path, "rb") as fh:
        status = os.fstat(fh.fileno())
        if stat.S_ISREG(status.st_mode):
            return fh.read(min(status.st_size + 1, head)), None
        data = fh.read()
        return data, data


def _canonical_psd(data: bytes) -> Psd | None:
    """The density in file bytes laid out as :func:`write_psd_csv` writes one
    on a grid of up to ``_CANONICAL_MAX_N`` nodes; otherwise ``None``.

    Such a file is the line ``theta,psd``, then one ``<theta>,<value>`` row
    per node with LF line ends and the theta fields written for that grid.
    Its thetas are the grid's nodes (17 digits round-trip), so only the
    values are parsed, each as ``float`` of its bytes: that is ``float`` of
    its text for ASCII, and ``float`` refuses every other byte.  A file whose
    values ``float`` or :func:`psd_from_samples` refuses is declined too, so
    the other parses decide it and report its error as they do.
    """
    if len(data) > _CANONICAL_MAX_BYTES or not data.startswith(_PSD_HEADER_LINE):
        return None
    # The header line holds one comma and one LF, so n rows hold n more each.
    separators = data.translate(None, _NOT_SEPARATORS)
    n = len(separators) // 2 - 1
    if not 2 <= n <= _CANONICAL_MAX_N or separators != b",\n" * (n + 1):
        return None
    fields = data.replace(b"\n", b",").split(b",")
    if b",".join(fields[2:-1:2]) != _grid_text(n)[0]:
        return None
    try:
        values = np.fromiter(map(float, fields[3::2]), dtype=float, count=n)
        values.setflags(write=False)
        return psd_from_samples(make_grid(n), values)
    except ValueError:
        return None


def _numeric_table(path, layouts: dict) -> np.ndarray | None:
    """The data rows of a plain numeric CSV in one vectorized parse.

    Returns :func:`_read_rows`'s table when the first line is exactly one of
    the ``layouts`` headers (unpadded, LF-terminated), every row has that
    header's field count, no byte is U+001C-U+001F, every read field is a
    finite number and the name has none of the ``_DECOMPRESSED_SUFFIXES``.
    Returns ``None`` for anything else, so the caller's row parser decides:
    it accepts the same files and is the only code that names a bad line.
    :func:`read_psd_csv` asks only when the canonical parse declines, which
    it does for no file written on a grid of up to ``_CANONICAL_MAX_N`` nodes.
    """
    try:
        with open(path, newline="") as fh:
            header = fh.readline()
            names = tuple(header[:-1].split(","))
            columns = layouts.get(names) if header.endswith("\n") else None
            if columns is None:
                return None
        # Given a name, loadtxt reads the file in chunks in C (given a handle,
        # it iterates its lines in Python).  Numpy opens a name through its
        # datasource, which decompresses by suffix and fetches "scheme://netloc"
        # names, so only an absolute name without such a suffix is handed over.
        name = os.path.abspath(os.fsdecode(path))
        if os.path.splitext(name)[1] in _DECOMPRESSED_SUFFIXES:
            return None
        with warnings.catch_warnings():
            # a header-only file: "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                name, delimiter=",", comments=None, skiprows=1, ndmin=2, usecols=columns
            )
    except ValueError:
        return None
    # loadtxt takes rows with extra fields and U+001C-U+001F for whitespace,
    # which float refuses.  It refused rows short of usecols, so any kept byte
    # beyond the header's commas per row is an extra comma or one of those.
    with open(path, "rb") as fh:
        kept = sum(
            len(chunk.translate(None, _NOT_COMMA_OR_SEPARATOR))
            for chunk in iter(lambda: fh.read(1 << 20), b"")
        )
    if kept != (len(table) + 1) * (len(names) - 1) or not np.isfinite(table).all():
        return None
    return table


def _read_rows(path, layouts: dict, data: bytes | None = None) -> tuple[np.ndarray, list[int]]:
    """Row-by-row parse of a numeric CSV, raising on the first bad line.

    ``layouts`` maps each accepted header to the columns read from it; the
    other columns must be present but are not parsed.  Returns those columns
    as an ``(n, len(columns))`` array of finite floats that owns its memory,
    and the 1-based line number of each row.  Given the file's ``data``, it
    parses those bytes, decoded as ``open(path, newline="")`` decodes the
    file, instead of opening ``path``.
    """
    rows: list[list[float]] = []
    lines: list[int] = []
    try:
        text = open(path, newline="") if data is None else TextIOWrapper(BytesIO(data), newline="")
        with text as fh:
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
    except UnicodeDecodeError as exc:
        # no line number: the text layer decodes ahead of the csv reader
        raise CsvParseError(f"{path}: {exc}") from None
    table = np.array(rows, dtype=float) if rows else np.empty((0, len(columns)))
    return table, lines


def read_psd_csv(path) -> Psd:
    """Read a PSD file back, validating the grid it claims to live on.

    Raises
    ------
    CsvParseError
        Malformed header or row (message carries the 1-based line number),
        or values that are no density (all zero).
    NegativeDensityError
        A negative sample in a file whose rows all parse (with its line
        number).
    InvalidGridError
        Frequency column that is not uniform from -pi at 1e-9 relative
        tolerance.
    """
    head, whole = _read_source(path, _CANONICAL_MAX_BYTES + 1)
    psd = _canonical_psd(head)
    if psd is not None:
        return psd
    table = None if whole is not None else _numeric_table(path, _PSD_LAYOUT)
    if table is None or np.any(table[:, 1] < 0.0):
        table, lines = _read_rows(path, _PSD_LAYOUT, whole)
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
    try:
        return psd_from_samples(grid, values)
    except ValueError as exc:
        raise CsvParseError(f"{path}: {exc}") from exc


def read_timeseries_csv(path) -> TimeSeries:
    """Read a signal from a ``t,value`` or single ``value`` column file.

    The ``t`` column must be present on every row but is not parsed.  The
    parsed table owns its memory and has one column; it is sealed read-only,
    so the series keeps that column rather than a copy.
    """
    _, whole = _read_source(path, 0)
    table = None if whole is not None else _numeric_table(path, _SERIES_LAYOUTS)
    if table is None:
        table, _ = _read_rows(path, _SERIES_LAYOUTS, whole)
    table.setflags(write=False)
    try:
        return TimeSeries(samples=table[:, 0])
    except ValueError as exc:
        raise CsvParseError(f"{path}: {exc}") from exc


def write_distance_matrix_csv(matrix: DistanceMatrix, path) -> None:
    """Write the labeled matrix; ``inf`` is the literal for infinite entries."""
    # Numbers never need quoting, so csv quotes only the labels: the header
    # row, then each label with the comma after it (one write per row; the
    # line terminator stays "\n" because csv quotes the characters in it).
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        [["", *matrix.labels], *([label, ""] for label in matrix.labels)]
    )
    # One "%.12g" (format_scalar's format) per entry formats a row at once.
    template = ",".join(["%.12g"] * len(matrix.labels)) + "\n"
    rows = [
        prefix[:-1] + template % tuple(row)
        for prefix, row in zip(lines[1:], matrix.entries.tolist())
    ]
    try:
        with open(path, "w", newline="") as fh:
            fh.write(lines[0])
            fh.writelines(rows)
    except OSError as exc:
        raise OSError(f"cannot write distance matrix to {path}: {exc}") from exc
