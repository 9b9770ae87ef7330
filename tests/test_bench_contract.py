"""The benchmark's traced layers must exist in the package.

``perfbench/run.py --trace 1`` stops when a ``(module, function)`` pair of
``perfbench/tracer.py``'s ``LAYERS`` no longer resolves, so a rename or a
deletion here would break the benchmark; this test says so first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    # tracer.py imports only the standard library, so loading it by path is cheap
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


LAYERS = _layers()


def test_layers_are_listed():
    assert len(LAYERS) == len(set(LAYERS)) > 0


@pytest.mark.parametrize("module,function", LAYERS, ids=[f"{m}.{f}" for m, f in LAYERS])
def test_traced_layer_is_a_callable_of_the_package(module, function):
    mod = importlib.import_module(f"specdist.{module}")
    assert callable(getattr(mod, function, None)), f"specdist.{module}.{function}"
