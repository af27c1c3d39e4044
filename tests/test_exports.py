"""Every public name the package and its submodules declare resolves."""

import importlib
import pkgutil

import pytest

import maxwelldg

MODULES = ["maxwelldg"] + [
    f"maxwelldg.{info.name}" for info in pkgutil.iter_modules(maxwelldg.__path__)
    if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
