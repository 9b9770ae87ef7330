"""What the benchmark relies on in the package.

``perfbench/run.py --trace 1`` stops when a ``(module, function)`` pair of
``perfbench/tracer.py``'s ``LAYERS`` no longer resolves, so a rename or a
deletion here would break the benchmark; this test says so first.  The
benchmark also writes its PSD inputs with its own writer, and they must be
the bytes specdist writes, or its matrix workload stops measuring the parse
real files take; and its PSD and series files must take the fast parses, or
its matrix and estimate workloads start measuring the row parser.
"""

import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from specdist import TimeSeries, cli, estimation, make_grid, psd_from_samples, write_psd_csv
from specdist import io as specdist_io

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, directory=_PERFBENCH):
    # tracer.py, inputs.py and bench_compare.py import only the standard
    # library and numpy; inputs.py's dataclasses look their module up in
    # sys.modules
    spec = importlib.util.spec_from_file_location(f"_{directory.name}_{name}", directory / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
LAYERS = TRACER.LAYERS
INPUTS = _load("inputs")


def test_layers_are_listed():
    assert len(LAYERS) == len(set(LAYERS)) > 0


@pytest.mark.parametrize("module,function", LAYERS, ids=[f"{m}.{f}" for m, f in LAYERS])
def test_traced_layer_is_a_callable_of_the_package(module, function):
    mod = importlib.import_module(f"specdist.{module}")
    assert callable(getattr(mod, function, None)), f"specdist.{module}.{function}"


@pytest.mark.parametrize("n", [2, 7, 4096])
def test_benchmark_inputs_are_the_bytes_specdist_writes(n):
    values = np.random.default_rng(n).exponential(size=n)
    values[n // 2] = 0.0
    stream = io.StringIO()
    write_psd_csv(psd_from_samples(make_grid(n), values), stream)
    assert INPUTS.format_psd_csv(values) == stream.getvalue()


def test_benchmark_series_files_take_the_vectorized_parse(tmp_path):
    # estimate-1m measures the parse its series file takes; the row parser
    # would be several times slower
    samples = np.random.default_rng(5).standard_normal(1000)
    path = tmp_path / "series.csv"
    INPUTS.write_series_csv(path, samples)
    table = specdist_io._numeric_table(path, specdist_io._SERIES_LAYOUTS)
    assert table is not None
    np.testing.assert_array_equal(table[:, 0].view(np.uint64), samples.view(np.uint64))


@pytest.mark.parametrize("n", [2, 7, 4096])
def test_benchmark_psd_files_take_the_canonical_parse(tmp_path, n):
    # matrix-k200 measures the parse its 200 PSD files take
    values = np.random.default_rng(n).exponential(size=n)
    values[n // 2] = 0.0
    path = tmp_path / "f.csv"
    INPUTS.write_psd_csv(path, values)
    with open(path, newline="") as fh:
        assert fh.readline() == "theta,psd\n"
    psd = specdist_io._canonical_psd(path)
    assert psd is not None
    np.testing.assert_array_equal(psd.values.view(np.uint64), values.view(np.uint64))


def test_a_psd_read_builds_its_density_through_the_io_binding_once(tmp_path, monkeypatch):
    # matrix-k200's traced run needs spectra.psd_from_samples to fire, and
    # the tracer sees it at specdist.io's binding
    values = np.random.default_rng(11).exponential(size=64)
    path = tmp_path / "f.csv"
    INPUTS.write_psd_csv(path, values)
    calls = []
    build = specdist_io.psd_from_samples

    def counted(grid, values):
        calls.append(grid.n)
        return build(grid, values)

    monkeypatch.setattr(specdist_io, "psd_from_samples", counted)
    specdist_io.read_psd_csv(path)
    assert calls == [64]


def test_a_geodesic_path_writes_each_point_through_the_cli_binding(tmp_path, monkeypatch):
    # path-101's traced run needs io.write_psd_csv to fire once per point,
    # and the tracer sees it at specdist.cli's binding
    calls = []
    write = cli.write_psd_csv

    def counted(psd, path):
        calls.append(path)
        write(psd, path)

    monkeypatch.setattr(cli, "write_psd_csv", counted)
    argv = ["geodesic", "const:1", "expcos:1", "--steps", "5", "--grid", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert sorted(calls) == sorted(tmp_path.iterdir())
    assert len(calls) == 5


def test_traced_segment_count_is_the_frames_welch_averages(monkeypatch):
    # the tracer counts segments with its own hop formula, so the count it
    # reports for estimate-1m is true only while that formula agrees with
    # welch's on the benchmark's setting
    rows = []
    transform = estimation._half_power

    def counted(x, n):
        rows.append(len(x))
        return transform(x, n)

    monkeypatch.setattr(estimation, "_half_power", counted)
    ts = TimeSeries(np.random.default_rng(0).standard_normal(INPUTS.SERIES_LEN))
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        estimation.welch(ts, INPUTS.WELCH_SEGMENT, INPUTS.WELCH_OVERLAP, "hann", make_grid(8))
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["counts"]["estimation.welch.segments"] == sum(rows)


_REPO = _PERFBENCH.parent
_BENCHMARK = json.loads((_REPO / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("path", sorted(_REPO.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_recorded_benchmark_names_every_workload_and_metric(path):
    bench = json.loads(path.read_text())
    assert len(bench["commit"]) == 40 and bench["seeds"]
    assert sorted(bench["workloads"]) == sorted(w["name"] for w in _BENCHMARK["workloads"])
    for workload in bench["workloads"].values():
        for metric in _BENCHMARK["end_to_end"]:
            value = workload["end_to_end"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert value["q1"] <= value["median"] <= value["q3"]


COMPARE = _load("bench_compare", _REPO / "tools")


def test_bench_compare_reports_each_metric_and_each_layer_that_ran(capsys):
    old, new = (json.loads((_REPO / f"BENCH_{c}.json").read_text()) for c in ("526fcc1", "f7f9a25"))
    lines = COMPARE.compare(old, new, _BENCHMARK)
    assert lines[0] == "OLD 526fcc1  NEW f7f9a25"
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[2:] if line}
    for workload in _BENCHMARK["workloads"]:
        for metric in _BENCHMARK["end_to_end"]:
            a = old["workloads"][workload["name"]]["end_to_end"][metric["name"]]
            b = new["workloads"][workload["name"]]["end_to_end"][metric["name"]]
            _, _, ratio, overlap = rows[workload["name"], metric["name"]]
            assert float(ratio) == pytest.approx(b["median"] / a["median"], abs=5e-4)
            assert overlap == ("yes" if a["q1"] <= b["q3"] and b["q1"] <= a["q3"] else "no")
    assert rows["path-101", "op_p50_ms"] == ["474.4", "481.1", "1.014", "yes"]
    assert rows["matrix-k200", "peak_rss_mb"][3] == "no"
    assert rows["matrix-k200", "io.read_psd_csv.self_ms"] == ["630.21", "448.05", "-182.15"]
    # a layer that no traced op of the workload reached in either file
    assert ("matrix-k200", "io.write_psd_csv.self_ms") not in rows
    assert ("path-101", "io.write_psd_csv.self_ms") in rows

    paths = [str(_REPO / f"BENCH_{c}.json") for c in ("526fcc1", "f7f9a25")]
    assert COMPARE.main(paths) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_bench_compare_notes_recordings_that_do_not_compare():
    old, new = (json.loads((_REPO / f"BENCH_{c}.json").read_text()) for c in ("seed", "f7f9a25"))
    notes = [line for line in COMPARE.compare(old, new, _BENCHMARK) if line.startswith("note:")]
    assert notes == [
        "note: machine PYTHONDONTWRITEBYTECODE differs: OLD 'unrecorded', NEW '1'",
        "note: checkout_path_length differs: OLD None, NEW 57",
    ]
