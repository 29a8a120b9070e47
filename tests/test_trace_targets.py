"""The benchmark's tracer wraps orderkit functions by name and stops with a
LookupError when one is missing; this catches a rename before a traced run.
``perfbench/tracing.py`` is only read and parsed here, never imported."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in perfbench/tracing.py")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for metric, module, path in targets:
        obj = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(obj, part), f"{metric}: {module}.{path} is missing"
            obj = getattr(obj, part)
        assert callable(obj), f"{metric}: {module}.{path} is not callable"
