"""perfbench's `--trace 1` wraps canonform functions by their module
bindings, named `module.attr` in the TRACED tuple of perfbench/trace.py.
Each name must resolve to a callable in canonform, so a refactor that
moves or renames a traced function fails here rather than in the
benchmark."""
import ast
import importlib
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def traced_names() -> tuple:
    """TRACED read off the source; `import trace` would find the stdlib
    module."""
    for node in ast.parse(TRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACE} assigns no TRACED")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves_to_a_callable(name):
    modname, attr = name.split(".")
    module = importlib.import_module("canonform." + modname)
    assert callable(getattr(module, attr, None)), name
