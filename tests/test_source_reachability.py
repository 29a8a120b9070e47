"""Every public function and method of src is reached from an entry point.

The entry points are the `orderkit` console script (cli.main), the demos,
and the benchmark: its workloads and the functions its tracer wraps by
name (perfbench/tracing.py TARGETS).  Code that runs on import is an entry
point too: module-level statements, class bodies, decorators and default
values.  Reachability is by name, as in test_source_private_functions: a
function is reached when a name or attribute of its spelling is read by an
entry point or by the body of a reached function, and a class's dunder
methods are walked once the class's name is reached (operators and calls
run them).  Import statements read nothing, so re-exporting a name from
the package does not reach it.

A public function that nothing reaches is dead or serves only the tests;
either way it belongs in the tests or nowhere, unless ALLOWED names it
with the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orderkit"

# "module.qualname" -> why it stays in src with no caller there
ALLOWED = {
    "bounds.forget_chain_bound": "a paper formula, kept beside the others",
    "bounds.pol_degree_bound": "a paper formula, kept beside the others",
    "bounds.BigBound.log10_interval": "certifies the printed log10 digits",
    "ideals.principal_ideal": "constructor of the documented FractionalIdeal "
                              "API",
    "ideals.generated_ideal": "constructor of the documented FractionalIdeal "
                              "API",
    "cli._Parser.error": "argparse calls it",
}


def _reads(nodes):
    """Names and attribute spellings read anywhere in ``nodes``."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _def_header(fn):
    """What a def evaluates on import: its decorators and default values."""
    a = fn.args
    return _reads(fn.decorator_list + a.defaults
                  + [d for d in a.kw_defaults if d is not None])


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _tracer_names(tracing):
    """The function each TARGETS entry of the tracer wraps, by name."""
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS"
                        for t in node.targets)):
            return {path.split(".")[-1]
                    for _, _, path in ast.literal_eval(node.value)}
    raise LookupError(f"no TARGETS in {tracing}")


def unreached_public_functions(src, root_files=(), root_names=()):
    """Sorted "module.qualname" of the public functions and methods of the
    modules in ``src`` that no name read from the roots reaches: the
    ``root_names``, every name read in ``root_files``, and the code each
    src module runs on import."""
    defs = []  # (qualname, module, spelling, class or None, body reads)
    reached = set(root_names) | _reads(
        ast.parse(p.read_text(), filename=str(p)) for p in root_files)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((top.name, path.stem, top.name, None,
                             _reads(top.body)))
                reached |= _def_header(top)
            elif isinstance(top, ast.ClassDef):
                reached |= _reads(top.bases + top.keywords
                                  + top.decorator_list)
                for stmt in top.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        defs.append((f"{top.name}.{stmt.name}", path.stem,
                                     stmt.name, top.name, _reads(stmt.body)))
                        reached |= _def_header(stmt)
                    else:
                        reached |= _reads([stmt])
            elif not isinstance(top, (ast.Import, ast.ImportFrom)):
                reached |= _reads([top])
    walked = set()
    grew = True
    while grew:
        grew = False
        for i, (_, _, name, cls, body) in enumerate(defs):
            hit = (cls in reached if _is_dunder(name) and cls
                   else name in reached)
            if hit and i not in walked:
                walked.add(i)
                reached |= body
                grew = True
    return sorted(f"{module}.{qual}"
                  for i, (qual, module, name, _, _) in enumerate(defs)
                  if i not in walked and not name.startswith("_"))


def entry_points():
    """(root files, root names) of this repository."""
    files = sorted((ROOT / "demos").glob("*.py"))
    files.append(ROOT / "perfbench" / "workloads.py")
    return files, {"main"} | _tracer_names(ROOT / "perfbench" / "tracing.py")


def test_every_public_function_is_reached():
    files, names = entry_points()
    unreached = unreached_public_functions(SRC, files, names)
    assert sorted(set(unreached) - set(ALLOWED)) == [], (
        "public functions no entry point reaches: delete them, move them "
        "into the tests, or name them in ALLOWED with a reason")
    assert sorted(set(ALLOWED) - set(unreached)) == [], (
        "ALLOWED names a function that is reached or gone: drop the entry")


def test_guard_flags_an_unreached_public_function(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "LIMIT = _limit()\n\n"
        "def _limit():\n    return 1\n\n"
        "def entry():\n    return helper() + Box().used()\n\n"
        "def helper():\n    return 2\n\n"
        "def dead():\n    return helper()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.v = from_init()\n\n"
        "    def used(self):\n        return self.v\n\n"
        "    def spare(self):\n        return dead()\n\n"
        "def from_init():\n    return 3\n\n"
        "def only_exported():\n    return 4\n")
    (src / "__init__.py").write_text("from .mod import only_exported\n")
    roots = tmp_path / "demo.py"
    roots.write_text("from src import mod\n\nmod.entry()\n")
    assert unreached_public_functions(src, [roots]) == [
        "mod.Box.spare", "mod.dead", "mod.only_exported"]
    assert unreached_public_functions(src, [], {"entry"}) == [
        "mod.Box.spare", "mod.dead", "mod.only_exported"]
    assert unreached_public_functions(src) == [
        "mod.Box.spare", "mod.Box.used", "mod.dead", "mod.entry",
        "mod.from_init", "mod.helper", "mod.only_exported"]
