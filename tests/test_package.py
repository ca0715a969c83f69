import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fracell

MODULES = ["fracell", *(f"fracell.{m.name}" for m in pkgutil.iter_modules(fracell.__path__) if m.name != "cli")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # a deleted object left in __all__ breaks `from <module> import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# the code that runs the library: its own modules, the sweep scripts, the benchmark and the acceptance criteria
ROOT = Path(__file__).resolve().parent.parent
CALLERS = [*ROOT.glob("src/fracell/*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py"), ROOT / "tests" / "test_acceptance.py"]
# public names no caller reads, each kept as the independent reference of a test:
# halfspace_kernel, the closed-form reflected kernel that test_halfspace_kernel_matches_truncated_operator
# checks jump_kernel against
UNCALLED = {"halfspace_kernel"}


def test_every_public_name_has_a_caller():
    # a public name that only its own unit tests read is an instrument no command, script or criterion runs;
    # a read is a load of the name or of an attribute so named, so a def, an import or an __all__ entry is none
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in CALLERS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    public = {n for name in MODULES for n in importlib.import_module(name).__all__}
    assert sorted(public - read - UNCALLED) == []
    assert UNCALLED <= public - read  # the exemption names only what still needs it
