import importlib
import pkgutil

import pytest

import pnmimo

MODULES = ["pnmimo"] + sorted(f"pnmimo.{m.name}" for m in pkgutil.iter_modules(pnmimo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
