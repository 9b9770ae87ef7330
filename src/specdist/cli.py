"""Command-line interface.

One verb per concept: ``dist`` (distances and divergences), ``geodesic``
(interpolation), ``matrix`` (pairwise distances over files), ``estimate``
(time series to PSD), ``classify``, and ``rho`` (prediction-ratio, closed
form or finite-order recursion).

Spectrum arguments are either CSV paths or inline analytic forms evaluated
on the ``--grid`` size (default 4096):

    const:<level>              flat density
    expcos:<a>                 exp(a * cos(theta))
    ar:<a1,a2,...>:<sigma2>    autoregressive density; ``ar::1`` is white
                               noise, an empty coefficient is refused, and so
                               is a root within rounding of the unit circle

Files keep the grid they were written on; ``--grid`` never resamples a
file, and mixing files from different grids is refused rather than
silently interpolated.

Exit codes: 0 on success (an ``inf`` distance is a result, not an error),
1 on domain or file errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import divergences, estimation, geodesics, prediction
from .errors import SpectralError
from .grid import make_grid
from .io import (
    format_scalar,
    read_psd_csv,
    read_timeseries_csv,
    write_distance_matrix_csv,
    write_psd_csv,
)
from .spectra import Psd, _density_in_range, psd_constant, psd_from_ar

DEFAULT_GRID = 4096


class UsageError(Exception):
    """Bad flag combination detected after parsing; exits with status 2."""


def _parse_psd_arg(text: str, grid_n: int) -> Psd:
    """A CSV path, or an inline analytic spectrum evaluated on grid_n nodes."""
    kind, sep, rest = text.partition(":")
    if sep and kind in ("const", "expcos", "ar"):
        grid = make_grid(grid_n)
        try:
            if kind == "const":
                return psd_constant(grid, float(rest))
            if kind == "expcos":
                with np.errstate(over="ignore"):
                    values = np.exp(float(rest) * np.cos(grid.nodes))
                return _density_in_range(grid, values)
            coeff_text, sep2, sigma_text = rest.partition(":")
            if not sep2:
                raise UsageError(
                    f"{text!r}: AR form is ar:<a1,a2,...>:<sigma2>"
                )
            coeffs = [float(c) for c in coeff_text.split(",")] if coeff_text.strip() else []
            return psd_from_ar(coeffs, float(sigma_text), grid)
        except ValueError as exc:
            raise UsageError(f"bad analytic spectrum {text!r}: {exc}") from exc
    return read_psd_csv(text)


def _cmd_dist(args) -> int:
    if args.metric == "rs":
        if args.r is None or args.s is None:
            raise UsageError("--metric rs requires --r and --s")
        if args.r == 0 or args.s == 0 or not -np.inf < args.s < args.r < np.inf:
            raise UsageError(
                f"rs orders must be finite and nonzero with r > s, got r={args.r} s={args.s}"
            )
    f1 = _parse_psd_arg(args.f1, args.grid)
    f2 = _parse_psd_arg(args.f2, args.grid)
    if args.metric == "rs":
        value = divergences.divergence_rs(f1, f2, args.r, args.s)
    elif args.metric == "dg":
        value = divergences.geodesic_distance(f1, f2)
    elif args.metric == "d":
        value = divergences.scaled_metric_d(f1, f2)
    elif args.metric == "ag":
        value = divergences.divergence_ag(f1, f2)
    else:
        value = divergences.divergence_sym(f1, f2)
    print(format_scalar(value))
    return 0


def _cmd_geodesic(args) -> int:
    if (args.tau is None) == (args.steps is None):
        raise UsageError("give exactly one of --tau or --steps")
    if args.steps is not None and args.out is None:
        raise UsageError("--steps requires --out DIR")
    f0 = _parse_psd_arg(args.f1, args.grid)
    f1 = _parse_psd_arg(args.f2, args.grid)
    if args.tau is not None:
        point = geodesics.geodesic_point(f0, f1, args.tau)
        write_psd_csv(point, sys.stdout)
        return 0
    path = geodesics.geodesic_path(f0, f1, args.steps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(3, len(str(args.steps - 1)))
    for i, point in enumerate(path):
        write_psd_csv(point, out_dir / f"point_{i:0{width}d}.csv")
    return 0


def _cmd_matrix(args) -> int:
    labels = [Path(p).stem for p in args.files]
    first: dict[str, int] = {}
    for i, label in enumerate(labels):
        if (j := first.setdefault(label, i)) != i:
            raise UsageError(f"{args.files[j]} and {args.files[i]} both give the label {label!r}")
    spectra = (read_psd_csv(p) for p in args.files)
    matrix = divergences.build_distance_matrix(spectra, labels)
    write_distance_matrix_csv(matrix, args.out)
    return 0


def _cmd_estimate(args) -> int:
    ts = read_timeseries_csv(args.series)
    grid = make_grid(args.grid)
    if args.method == "periodogram":
        psd = estimation.periodogram(ts, grid)
    else:
        psd = estimation.welch(ts, args.segment, args.overlap, args.window, grid)
    write_psd_csv(psd, args.out)
    return 0


def _cmd_classify(args) -> int:
    psd = _parse_psd_arg(args.f1, args.grid)
    # Only the empty-or-not zero set is reported: a finite grid cannot grade
    # how integrable the log of the density would be in the limit.
    print("HasZeros" if psd.zero_set else "StrictlyPositive")
    return 0


def _cmd_rho(args) -> int:
    f1 = _parse_psd_arg(args.f1, args.grid)
    f2 = _parse_psd_arg(args.f2, args.grid)
    if args.oracle == "formula":
        value = divergences.prediction_ratio(f1, f2)
    else:
        value = prediction.rho_empirical(f1, f2, args.order)
    print(format_scalar(value))
    return 0


_INLINE_GRID_HELP = "node count for inline analytic spectra (files keep their own grid)"


def _add_grid_flag(parser, help: str = _INLINE_GRID_HELP) -> None:
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID, metavar="N", help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdist",
        description="Distances, divergences and geodesics between power spectral densities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance or divergence between two spectra")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument(
        "--metric",
        choices=("dg", "d", "ag", "sym", "rs"),
        default="dg",
        help="dg: geodesic; d: geodesic + mean gap; ag / sym / rs: divergences",
    )
    p.add_argument("--r", type=float, help="higher power-mean order for --metric rs")
    p.add_argument("--s", type=float, help="lower power-mean order for --metric rs")
    _add_grid_flag(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("geodesic", help="interpolate along the connecting geodesic")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--tau", type=float, help="single interpolation parameter in [0, 1]")
    p.add_argument("--steps", type=int, help="write a path with this many points")
    p.add_argument("--out", help="output directory for --steps")
    _add_grid_flag(p)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("matrix", help="pairwise geodesic distance matrix over PSD files")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("estimate", help="estimate a PSD from a time-series CSV")
    p.add_argument("series")
    p.add_argument("--method", choices=("periodogram", "welch"), default="welch")
    p.add_argument("--segment", type=int, default=256)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--window", choices=estimation.WINDOWS, default="hann")
    p.add_argument("--out", required=True, help="output PSD CSV path")
    _add_grid_flag(p, "node count of the estimated PSD's grid")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("classify", help="report StrictlyPositive or HasZeros")
    p.add_argument("f1")
    _add_grid_flag(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("rho", help="prediction error degradation ratio")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--order", type=int, default=64, help="predictor order for --oracle levinson")
    p.add_argument(
        "--oracle",
        choices=("formula", "levinson"),
        default="formula",
        help="closed form, or the finite-order predictor construction",
    )
    _add_grid_flag(p)
    p.set_defaults(func=_cmd_rho)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SpectralError, ValueError, ZeroDivisionError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
