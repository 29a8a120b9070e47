"""src keeps its invariants as typed errors: `python -O` strips asserts.

The count may only go down; turn an assert into an OrderkitError instead of
adding one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orderkit"
MAX_ASSERTS = 0


def test_assert_count_does_not_grow():
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        n = sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
        if n:
            counts[path.name] = n
    assert sum(counts.values()) <= MAX_ASSERTS, counts
