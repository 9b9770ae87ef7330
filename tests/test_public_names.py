"""Every exported name resolves, in the package and in each submodule, and
the package's public names are its library modules' ``__all__`` lists."""

import importlib
import inspect
import pkgutil

import pytest

import specdist

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(specdist.__path__))

# The modules whose public names the package re-exports (all but the CLI).
LIBRARY = ["divergences", "errors", "estimation", "geodesics", "grid", "io", "prediction", "spectra"]


def test_package_exports_resolve_once():
    assert len(specdist.__all__) == len(set(specdist.__all__))
    assert [name for name in specdist.__all__ if not hasattr(specdist, name)] == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    m = importlib.import_module(f"specdist.{module}")
    exported = getattr(m, "__all__", ())
    assert [name for name in exported if not hasattr(m, name)] == []


@pytest.mark.parametrize("module", LIBRARY)
def test_a_module_lists_only_the_functions_and_classes_it_defines(module):
    m = importlib.import_module(f"specdist.{module}")
    defined = [getattr(m, name) for name in m.__all__]
    defined = [obj for obj in defined if inspect.isfunction(obj) or inspect.isclass(obj)]
    assert defined and [obj for obj in defined if obj.__module__ != m.__name__] == []


def test_package_names_are_the_ordered_union_of_the_module_lists():
    modules = [importlib.import_module(f"specdist.{module}") for module in LIBRARY]
    union = list(dict.fromkeys(name for m in modules for name in m.__all__))
    assert specdist.__all__ == union
    assert len(union) == sum(len(m.__all__) for m in modules)


@pytest.mark.parametrize("module", LIBRARY)
def test_every_package_name_is_the_defining_modules_object(module):
    m = importlib.import_module(f"specdist.{module}")
    assert [name for name in m.__all__ if getattr(specdist, name, None) is not getattr(m, name)] == []
