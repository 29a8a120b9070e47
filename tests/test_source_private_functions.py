"""Every module-level private function of src is used by src itself.

A `_name` function that only its own `def` mentions is either dead or a
test-only oracle living in the library; either way it belongs in the tests
or nowhere.  A use is a name or attribute of the same spelling read
anywhere in src outside the function's own body, so a function that only
calls itself is unused."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orderkit"


def unused_private_functions(src):
    """Sorted "module.name" of the module-level private functions of the
    modules in ``src`` that no code outside their own body reads."""
    private, readers = set(), {}  # readers: name -> {(module, top-level def)}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = (path.stem, getattr(top, "name", None))
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and top.name.startswith("_")
                    and not top.name.startswith("__")):
                private.add(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(owner)
    return sorted(f"{module}.{name}" for module, name in private
                  if not readers.get(name, set()) - {(module, name)})


def test_every_private_function_is_used_in_src():
    assert unused_private_functions(SRC) == []


def test_guard_flags_a_function_only_its_def_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n\n"
        "def _live():\n    return 1\n\n"
        "def _helper():\n    return 2\n\n"
        "def public():\n    return _live()\n")
    (tmp_path / "other.py").write_text(
        "from . import mod\n\ndef f():\n    return mod._helper()\n")
    assert unused_private_functions(tmp_path) == ["mod._dead"]
