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

from specdist import make_grid, psd_from_samples, write_psd_csv

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    # tracer.py and inputs.py import only the standard library and numpy;
    # inputs.py's dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load("tracer").LAYERS
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
