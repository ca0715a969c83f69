import importlib
import pkgutil

import pytest

import fracell

MODULES = ["fracell", *(f"fracell.{m.name}" for m in pkgutil.iter_modules(fracell.__path__) if m.name != "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # a deleted object left in __all__ breaks `from <module> import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
