"""Spans around the calls into orderkit's public functions, recorded from
outside the program.

``Tracer.install`` replaces each listed function wherever an orderkit module
or class binds it: ``from .intmat import solve_square`` makes a second name
for the same function object, and calls through that name are recorded too.
Every call becomes one span (function, parent span, start, end) kept in
memory in flat arrays; ``write`` stores them when the run ends and
``layer_metrics`` turns them into call counts and self times.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

# (metric name, module, attribute path) for every traced function.
TARGETS = (
    ("intmat.hnf_basis", "orderkit.intmat", "hnf_basis"),
    ("intmat.hnf", "orderkit.intmat", "hnf"),
    ("intmat.snf", "orderkit.intmat", "snf"),
    ("intmat.solve_square", "orderkit.intmat", "solve_square"),
    ("intmat.inverse_unimodular", "orderkit.intmat", "inverse_unimodular"),
    ("intmat.lattice_index", "orderkit.intmat", "lattice_index"),
    ("intmat.enumerate_intermediate_lattices", "orderkit.intmat",
     "enumerate_intermediate_lattices"),
    ("numberfield.mul", "orderkit.numberfield", "FieldElement.__mul__"),
    ("numberfield.inverse", "orderkit.numberfield", "FieldElement.inverse"),
    ("numberfield.norm", "orderkit.numberfield", "FieldElement.norm"),
    ("numberfield.make_field", "orderkit.numberfield", "make_field"),
    ("orders.unital_basis_elements", "orderkit.orders",
     "Order.unital_basis_elements"),
    ("orders.omega_data", "orderkit.orders", "Order.omega_data"),
    ("orders.conductor", "orderkit.orders", "conductor"),
    ("orders.fundamental_unit", "orderkit.orders", "fundamental_unit"),
    ("orders.is_order", "orderkit.orders", "is_order"),
    ("quadforms.reduce_form", "orderkit.quadforms", "reduce_form"),
    ("quadforms.cycle_of", "orderkit.quadforms", "cycle_of"),
    ("quadforms.class_label", "orderkit.quadforms", "class_label"),
    ("quadforms.fundamental_unit_xy", "orderkit.quadforms",
     "fundamental_unit_xy"),
    ("modular.sqrts_mod", "orderkit.modular", "sqrts_mod"),
    ("modular.factorize", "orderkit.modular", "factorize"),
    ("ideals.ideal_product", "orderkit.ideals", "ideal_product"),
    ("ideals.class_label", "orderkit.ideals", "class_label"),
    ("ideals.is_invertible", "orderkit.ideals", "is_invertible"),
    ("ideals.picard_group", "orderkit.ideals", "picard_group"),
    ("ideals.intermediate_classes", "orderkit.ideals", "intermediate_classes"),
    ("ideals.class_monoid", "orderkit.ideals", "class_monoid"),
    ("gamma_structures.structures_from_ideal_classes",
     "orderkit.gamma_structures", "structures_from_ideal_classes"),
    ("gamma_structures.structure_to_ideal", "orderkit.gamma_structures",
     "structure_to_ideal"),
    ("gamma_structures.compatibility_of", "orderkit.gamma_structures",
     "compatibility_of"),
    ("gamma_structures.count_structures", "orderkit.gamma_structures",
     "count_structures"),
    ("bounds.BigBound", "orderkit.bounds", "BigBound.__init__"),
    ("cli.main", "orderkit.cli", "main"),
    ("verify.build_corpus", "orderkit.verify", "build_corpus"),
)

# Result sizes summed per function, for the derived per-layer ratios.
_RESULT_SIZES = {
    "ideals.intermediate_classes": len,
    "intmat.enumerate_intermediate_lattices": len,
    "ideals.class_monoid": lambda monoid: monoid.census_checked,
}


class Tracer:
    def __init__(self):
        self.func = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.result_sizes = {name: 0 for name in _RESULT_SIZES}
        self._stack = [-1]

    def _wrap(self, index, name, fn):
        func, parent, start, end = self.func, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        sizes = self.result_sizes
        size_of = _RESULT_SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(func)
            func.append(index)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if size_of is not None:
                sizes[name] += size_of(out)
            return out

        return traced

    def install(self):
        """Wrap every target in every loaded orderkit module and class.

        Raises LookupError when a target does not exist, so a renamed
        function fails the traced run instead of silently reading zero."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "orderkit" or n.startswith("orderkit.")]
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            namespaces.extend(v for v in vars(mod).values()
                              if isinstance(v, type)
                              and v.__module__.startswith("orderkit"))
        for index, (name, modname, path) in enumerate(TARGETS):
            owner = sys.modules.get(modname)
            if owner is None:
                raise LookupError(f"{modname} is not imported")
            for part in path.split("."):
                owner = getattr(owner, part)
            original = owner
            wrapper = self._wrap(index, name, original)
            found = 0
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        found += 1
            if not found:
                raise LookupError(f"{name}: no binding of {modname}.{path}")

    def write(self, path, meta):
        """Spans as flat binary arrays plus a JSON index naming them."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.func, self.parent, self.start, self.end):
                arr.tofile(fh)
        index = dict(meta, spans=len(self.func),
                     functions=[t[0] for t in TARGETS],
                     arrays=[["func", self.func.typecode],
                             ["parent", self.parent.typecode],
                             ["start", self.start.typecode],
                             ["end", self.end.typecode]])
        with open(path + ".json", "w") as fh:
            json.dump(index, fh, indent=1)

    def layer_metrics(self):
        """calls and self time per function, plus the two derived ratios.

        Self time is a span's duration minus the durations of its direct
        children; the program runs on one thread, so children never overlap.
        """
        n_targets = len(TARGETS)
        calls = [0] * n_targets
        total = [0.0] * n_targets
        child = [0.0] * n_targets
        func, parent, start, end = self.func, self.parent, self.start, self.end
        for sid in range(len(func)):
            f = func[sid]
            dur = end[sid] - start[sid]
            calls[f] += 1
            total[f] += dur
            p = parent[sid]
            if p >= 0:
                child[func[p]] += dur
        out = {}
        for i, (name, _m, _p) in enumerate(TARGETS):
            out[f"{name}.calls"] = (calls[i], "count")
            out[f"{name}.self_s"] = (max(0.0, total[i] - child[i]), "s")
        sizes = self.result_sizes
        lattices = sizes["intmat.enumerate_intermediate_lattices"]
        ratio = sizes["ideals.intermediate_classes"] / lattices if lattices else 0.0
        out["ideals.intermediate_classes.classes_per_lattice"] = (ratio, "ratio")
        out["ideals.class_monoid.census_ideals"] = (
            sizes["ideals.class_monoid"], "count")
        return out
