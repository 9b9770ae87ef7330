"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import pytest

import specdist

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(specdist.__path__))


def test_package_exports_resolve_once():
    assert len(specdist.__all__) == len(set(specdist.__all__))
    assert [name for name in specdist.__all__ if not hasattr(specdist, name)] == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    m = importlib.import_module(f"specdist.{module}")
    exported = getattr(m, "__all__", ())
    assert [name for name in exported if not hasattr(m, name)] == []
