"""The names the study benchmark binds in tactherm exist where it looks them
up, so deleting or renaming one fails here and not in a benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from tactherm import fem

STUDYBENCH = Path(__file__).resolve().parents[1] / "studybench"


def _layer_calls() -> tuple:
    """studybench/tracing.py's LAYER_CALLS, read without importing it."""
    tree = ast.parse((STUDYBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_CALLS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("studybench/tracing.py assigns no LAYER_CALLS")


def _owner(dotted: str):
    """Module a.b, or class a.b.C of module a.b, as tracing resolves it."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, name = dotted.rpartition(".")
        return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("owner, attr, span", _layer_calls(), ids=str)
def test_each_layer_call_is_an_attribute_of_its_owner(owner, attr, span):
    # the recorder replaces owner.__dict__[attr] for the length of a run
    assert attr in vars(_owner(owner)), f"{owner}.{attr} ({span})"


def test_the_names_the_benchmark_child_imports_exist():
    tree = ast.parse((STUDYBENCH / "child.py").read_text())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tactherm")
        for alias in node.names
    ]
    assert ("tactherm.fem", "ScalarField") in imports
    assert ("tactherm.fem", "energy_balance") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # child.py's PCG check calls solve_heat(mesh, params, method="pcg", tol=tol)
    inspect.signature(fem.solve_heat).bind(None, None, method="pcg", tol=1e-10)
