"""Every public name the package or its benchmark reaches for exists.

A deleted function that ``__all__`` still lists, or that the benchmark's
tracer wraps by name, fails here instead of at a later import or run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pustat

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(f"pustat.{m.name}" for m in pkgutil.iter_modules(pustat.__path__))


def _tracer_targets():
    """The (module, attribute) pairs of TARGETS in perfbench/tracer.py,
    read from its syntax tree without running it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    missing = [
        (module, attr)
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"perfbench/tracer.py wraps missing functions {missing}"
