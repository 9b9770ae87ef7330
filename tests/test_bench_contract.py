"""What the benchmark relies on in the package.

``perfbench/run.py --trace 1`` stops when a ``(module, function)`` pair of
``perfbench/tracer.py``'s ``LAYERS`` no longer resolves, so a rename or a
deletion here would break the benchmark; this test says so first.  The
benchmark also writes its PSD inputs with its own writer, and they must be
the bytes specdist writes, or its matrix workload stops measuring the parse
real files take.
"""

import importlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from specdist import TimeSeries, estimation, make_grid, psd_from_samples, write_psd_csv

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    # tracer.py and inputs.py import only the standard library and numpy;
    # inputs.py's dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", _PERFBENCH / f"{name}.py")
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


def test_traced_segment_count_is_the_frames_welch_averages(monkeypatch):
    # the tracer counts segments with its own hop formula, so the count it
    # reports for estimate-1m is true only while that formula agrees with
    # welch's on the benchmark's setting
    rows = []
    transform = estimation._transform_power

    def counted(x, n):
        rows.append(len(x))
        return transform(x, n)

    monkeypatch.setattr(estimation, "_transform_power", counted)
    ts = TimeSeries(np.random.default_rng(0).standard_normal(INPUTS.SERIES_LEN))
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        estimation.welch(ts, INPUTS.WELCH_SEGMENT, INPUTS.WELCH_OVERLAP, "hann", make_grid(8))
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["counts"]["estimation.welch.segments"] == sum(rows)
