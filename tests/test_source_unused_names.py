"""Every parameter of a src function is read, and so is every local name it
binds: an unread parameter is an input the function ignores, and an unread
local is work whose result nothing uses.

A name is read when the function body, or a function or comprehension
nested in it, loads it.  `self` and `cls`, and names that start with an
underscore (`_`, `_args`), are exempt: that spelling says the value is
unused on purpose.  Anything else unread must be named in ALLOWED with
the reason it stays."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orderkit"

_IMMUTABLE = "the immutable classes' __setattr__ refuses every assignment"
_KERNELS = ("_reduce_definite takes the arguments _reduce_indefinite takes, "
            "so the two reduction kernels are called alike")

# "module.qualname: name" -> why the name stays unread
ALLOWED = {
    **{f"{cls}.__setattr__: {name}": _IMMUTABLE
       for cls in ("bounds.BigBound", "gamma_structures.MatrixOrder",
                   "gamma_structures.RingMorphism", "ideals.FractionalIdeal",
                   "intmat.IntMatrix", "intmat.Lattice",
                   "numberfield.NumberField", "numberfield.FieldElement",
                   "orders.Order")
       for name in ("name", "value")},
    "quadforms._reduce_definite: d": _KERNELS,
    "quadforms._reduce_definite: s": _KERNELS,
    "cli._json_float: pad": "the writers in cli._WRITERS are all called "
                            "with (value, pad)",
}


def _functions(tree):
    """(qualname, node) for every def in the module, nested ones too."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                yield name, child
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def _own_scope(fn):
    """The nodes of fn's body, without the bodies of nested defs, lambdas
    and classes (their bindings are their own)."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _bound(fn):
    """The parameters of fn and the local names its own scope binds."""
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    for node in _own_scope(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.append(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(al.asname or al.name).split(".")[0]
                      for al in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.append(node.name)
    return names


def _declared_outside(fn):
    """Names fn's own scope declares global or nonlocal."""
    return {n for node in _own_scope(fn)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for n in node.names}


def _unread():
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, fn in _functions(tree):
            reads = {node.id for node in ast.walk(fn)
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load)}
            skip = reads | _declared_outside(fn) | {"self", "cls"}
            for name in _bound(fn):
                if name not in skip and not name.startswith("_"):
                    out.add(f"{path.stem}.{qualname}: {name}")
    return out


def test_every_parameter_and_local_is_read():
    unread = _unread()
    assert unread - set(ALLOWED) == set(), sorted(unread - set(ALLOWED))


def test_every_allowed_name_is_still_unread():
    # an entry whose name became read, or whose function is gone, is stale
    assert set(ALLOWED) - _unread() == set()
