"""The three workloads: inputs from a seed, one round of operations, and the
checks every output must pass.

A workload's ``setup`` imports what it needs from orderkit and builds the
inputs; ``round_ops`` lists one round of operations, each a (key, info,
callable) triple: the key is the same for the same operation in every round,
and the callable takes no arguments; ``check`` raises
CheckFailed on the first output that an independent computation (see
oracles.py) or a property of the method contradicts.  The program only
ever receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import random
from fractions import Fraction
from math import isqrt

import oracles


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _class_numbers():
    """Memoized oracle class numbers, shared by the checks of a run."""
    return functools.cache(oracles.wide_class_number)


def _check_table(table, name):
    """Identity (index 0), commutativity and associativity of a table."""
    n = len(table)
    for i in range(n):
        _require(table[0][i] == i and table[i][0] == i,
                 f"{name}: class 0 is not the identity")
        for j in range(n):
            _require(table[i][j] == table[j][i], f"{name}: not commutative")
            tij = table[i][j]
            for k in range(n):
                _require(table[tij][k] == table[i][table[j][k]],
                         f"{name}: not associative")


def _check_monoid_counts(name, d, d0, f, size, pic, inter, invertible, table,
                         class_number):
    """Checks shared by library and CLI monoids of the order of disc d."""
    h0 = class_number(d0)
    nf = f * f
    _require(pic == class_number(d),
             f"{name}: |Pic| = {pic}, reduced forms give {class_number(d)}")
    _require(inter <= nf ** 2, f"{name}: |I| = {inter} > N(f)^2 = {nf ** 2}")
    _require(pic <= nf * h0, f"{name}: |Pic| = {pic} > N(f) h = {nf * h0}")
    _require(size <= nf ** 3 * h0,
             f"{name}: |C| = {size} > N(f)^3 h = {nf ** 3 * h0}")
    if f == 1:
        _require(all(invertible), f"{name}: a class of a maximal order is "
                                  f"not invertible")
    _require(len(table) == size, f"{name}: table is not {size} x {size}")
    _check_table(table, name)


def _import(*names):
    return [importlib.import_module(n) for n in names]


# --- corpus-monoids --------------------------------------------------------------


class CorpusMonoids:
    """class_monoid on each of the 183 verify-corpus orders, one per operation."""

    name = "corpus-monoids"

    def setup(self, seed):
        verify, ideals = _import("orderkit.verify", "orderkit.ideals")
        corpus = verify.build_corpus()
        _require(len(corpus) == 183, f"corpus has {len(corpus)} orders")
        return {"build": verify.build_corpus, "class_monoid": ideals.class_monoid,
                "corpus": corpus, "seed": seed, "h": _class_numbers()}

    def round_ops(self, state, r):
        # A fresh corpus per round, so no round reuses objects (and whatever
        # the program caches on them) from the round before.
        corpus = state["corpus"] if r == 0 else state["build"]()
        order = list(range(len(corpus)))
        random.Random(state["seed"] * 1009 + r).shuffle(order)
        class_monoid = state["class_monoid"]
        return [(i, corpus[i].order,
                 lambda o=corpus[i].order: class_monoid(o)) for i in order]

    def check(self, state, infos, outputs):
        for order, m in zip(infos, outputs):
            _require(m.order is order, "monoid of another order returned")
            poly = order.field.coeffs
            rows = order.lattice.rows_q()
            d, d0, f = oracles.conductor_index(poly, rows)
            name = f"disc {d}"
            _require(m.conductor_norm == f * f,
                     f"{name}: N(f) = {m.conductor_norm}, expected {f * f}")
            _check_monoid_counts(
                name, d, d0, f, m.size, len(m.picard_subset),
                len(m.intermediate_subset), [c.invertible for c in m.classes],
                m.table, state["h"])
            _require(set(m.picard_subset)
                     == {i for i, c in enumerate(m.classes) if c.invertible},
                     f"{name}: picard subset is not the invertible classes")


# --- structure-roundtrip -----------------------------------------------------------


class StructureRoundtrip:
    """One operation identifies the class of one morphism: compatibility_of
    plus structure_to_ideal_class."""

    name = "structure-roundtrip"
    ORDER_STRIDE = 8       # every 8th corpus order: 23 of 183
    CONJUGATES = 20        # seeded GL_2(Z) conjugates per structure

    def setup(self, seed):
        verify, ideals, gs, nf = _import(
            "orderkit.verify", "orderkit.ideals", "orderkit.gamma_structures",
            "orderkit.numberfield")
        corpus = verify.build_corpus()[::self.ORDER_STRIDE]
        q = nf.RATIONAL_FIELD
        target = gs.MatrixOrder(q, 2)
        rng = random.Random(seed)
        morphisms = []
        for entry in corpus:
            monoid = ideals.class_monoid(entry.order)
            found = gs.structures_from_ideal_classes(entry.order, target, 0,
                                                     monoid)
            _require(len(found) == monoid.size,
                     f"disc {entry.disc}: {len(found)} structures for "
                     f"{monoid.size} classes")
            for s in found:
                expect = (s.compatibility, s.ideal_class_index)
                morphisms.append((s.representative, monoid, expect))
                images = [tuple(tuple(int(x.coords[0]) for x in row)
                                for row in m) for m in s.representative.images]
                for _ in range(self.CONJUGATES):
                    u, ui = oracles.random_unimodular(rng)
                    _require(oracles.mat_mul(u, ui) == oracles.IDENTITY,
                             f"U * U^-1 != I for U = {u}")
                    conj = []
                    for m in images:
                        c = oracles.mat_mul(oracles.mat_mul(u, m), ui)
                        conj.append(tuple(tuple(q.from_rational(x) for x in row)
                                          for row in c))
                    rho = gs.RingMorphism(entry.order, target, tuple(conj),
                                          check=False)
                    morphisms.append((rho, monoid, expect))
        return {"morphisms": morphisms, "seed": seed,
                "compatibility_of": gs.compatibility_of,
                "to_class": gs.structure_to_ideal_class}

    def round_ops(self, state, r):
        compat, to_class = state["compatibility_of"], state["to_class"]
        order = list(range(len(state["morphisms"])))
        random.Random(state["seed"] * 1009 + r).shuffle(order)

        def op(rho, monoid):
            return compat(rho)[0], to_class(rho, monoid)[0]

        morphisms = state["morphisms"]
        return [(i, morphisms[i][2],
                 lambda m=morphisms[i]: op(m[0], m[1])) for i in order]

    def check(self, state, infos, outputs):
        for expect, got in zip(infos, outputs):
            _require(got == expect,
                     f"morphism mapped to (embedding, class) {got}, its "
                     f"structure is {expect}")


# --- order-queries -----------------------------------------------------------------


def _poly_text(poly):
    return ",".join(str(c) for c in poly)


def _rows_text(rows):
    return ";".join(",".join(str(x) for x in r) for r in rows)


def _maximal_rows(m):
    """Basis rows of the maximal order of Q(sqrt m), m squarefree."""
    if m % 4 == 1:
        return [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]
    return [[1, 0], [0, 1]]


def _fields(lo, hi, sign):
    """(m, d0) for squarefree m of the given sign with lo < |d0| <= hi."""
    out = []
    for k in range(1, 4 * hi):
        m = sign * k
        if m == 1 or oracles.squarefree_kernel(m) != m:
            continue
        d0 = m if m % 4 == 1 else 4 * m
        if lo < abs(d0) <= hi:
            out.append((m, d0))
    return sorted(out, key=lambda x: abs(x[1]))


class Query:
    """One CLI request with the facts its check needs."""

    def __init__(self, kind, argv, **facts):
        self.kind = kind
        self.argv = argv
        self.facts = facts


def _order_query(kind, m, rows=None, extra=()):
    poly = [-m, 0, 1]
    argv = [kind, "--field" if kind != "gamma-count" else "--gamma-field",
            _poly_text(poly)]
    if rows is not None:
        argv += ["--order-basis" if kind != "gamma-count" else "--gamma-basis",
                 _rows_text(rows)]
    argv += list(extra)
    return Query(kind, argv, poly=poly,
                 rows=rows if rows is not None else _maximal_rows(m),
                 key=(m, _rows_text(rows) if rows else None))


def _bound_queries():
    """Bound requests that finish, each with the factor list of its
    documented formula under every JSON key it answers."""
    def q(formula, g, parts, **flags):
        argv = ["bound", "--formula", formula, "--g", str(g)]
        for k, v in flags.items():
            argv += ["--" + k.replace("_", "-"), str(v)]
        return Query("bound", argv, parts=parts)

    def height(g, n):
        return [(3 * g, 144 * g), (n, 24)]

    return [
        q("thm-a-height", 1, {"bound": height(1, 6)}, nu=6, excluded_primes=""),
        q("thm-a-height", 2, {"bound": height(2, 5 * 6)}, nu=5,
          excluded_primes="2,3"),
        q("thm-main-height", 1, {"bound": height(1, 1)}),
        q("thm-main-height", 2, {"bound": height(2, 6)}, excluded_primes="2,3"),
        q("thm-main-count", 2,
          {"bound": [(2, 1), (3, 1), (2 * 1, 16 ** 8)],
           "sharper": [(2, 1), (3, 1), (8, 16 ** 7), (1, 24 ** 5)]},
          pic=2, max_level=3),
        q("thm-b", 2, {"bound": [(3, 1), (2 * 5, 16 ** 8)]}, pic=3,
          excluded_primes="5"),
        q("es-gl2", 2, {"height": height(2, 1),
                        "count": [(28, 18 ** 6), (1, 36 ** 4)],
                        "isogeny": [(28, 24 ** 5), (1, 74 ** 3)]}),
        q("thm-endobound", 1,
          {"bound": [(4, 2), (2, 1), (3, 1), (7, 3)]},
          n_f=4, h=2, l=3, d_override=7),
        q("thm-endobound", 2,
          {"bound": [(1, 3), (1, 1), (1, 1), (28, 24 ** 5 * 10),
                     (1, 74 ** 3 * 10)]}),
        q("cor-p1n", 2, {"height": height(2, 3),
                         "count": [(1, 1), (6, 16 ** 8)]}, n=3),
        q("cor-p1n", 1, {"height": height(1, 3 * 2),
                         "count": [(2, 1), (12, 8 ** 8)]}, n=3, pic=2,
          excluded_primes="2"),
        q("level-structure", 2, {"bound": 5 ** 8}, kind="principal_n", n=5),
        q("level-structure", 3, {"bound": 7 ** 6}, kind="p1_n", n=7),
        q("pol-degree", 3, {"bound": 2 ** 3}),
    ]


def _order_info_queries():
    out = []
    real = _fields(0, 240, +1)           # real fields below discriminant 241
    for m, _d0 in real[::2]:
        out.append(_order_query("order-info", m))
    for m, f in ((2, 2), (3, 3), (5, 2), (7, 3), (13, 5), (-1, 2), (-2, 3),
                 (-3, 2), (-5, 6), (-1, 5)):
        out.append(_order_query("order-info", m, [[1, 0], [0, f]]))
    for m in (-1, -3, -5):
        out.append(_order_query("order-info", m))
    return out


# Small orders for gamma-count, each also asked for its class monoid; the
# first two are the gamma-count and class-monoid examples of the README.
_GAMMA_ORDERS = ((-5, None), (-3, [[1, 0], [0, 1]]), (-1, [[1, 0], [0, 3]]),
                 (10, None), (-23, None), (3, [[1, 0], [0, 2]]))


class OrderQueries:
    """Single-order requests through orderkit.cli.main, JSON captured and
    parsed."""

    name = "order-queries"
    MONOID_STRATA = 30     # class-monoid requests per round
    STRATUM_STEP = 5       # prime to the stratum sizes, 8 and 9

    def setup(self, seed):
        (cli,) = _import("orderkit.cli")
        h = _class_numbers()
        # Imaginary maximal orders with 200 < |disc| <= 1000 whose census
        # budget (16 for a maximal order) reaches every class; README.md
        # names the two fields left out.
        pool = [(m, d0) for m, d0 in _fields(200, 1000, -1)
                if oracles.census_covers(d0, 16)]
        pool.sort(key=lambda x: (h(x[1]), abs(x[1]), x[1]))
        # One request per stratum of the class-number order per round.  The
        # seed picks a start in each stratum and round r steps 5r places on
        # from it, so successive rounds spread over the whole stratum instead
        # of repeating one draw.
        rng = random.Random(seed)
        k = self.MONOID_STRATA
        strata = []
        for i in range(k):
            fields = pool[i * len(pool) // k:(i + 1) * len(pool) // k]
            strata.append((rng.randrange(len(fields)),
                           [_order_query("class-monoid", m)
                            for m, _d0 in fields]))
        fixed = _bound_queries() + _order_info_queries()
        for m, rows in _GAMMA_ORDERS:
            fixed.append(_order_query("class-monoid", m, rows))
            fixed.append(_order_query("gamma-count", m, rows,
                                      ["--target-n", "2"]))
        return {"main": cli.main, "fixed": fixed, "strata": strata,
                "seed": seed, "h": h, "pell": {}}

    def round_ops(self, state, r):
        main = state["main"]

        def request(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: {' '.join(argv)}")
            return json.loads(buf.getvalue())

        queries = state["fixed"] + [
            fields[(start + self.STRATUM_STEP * r) % len(fields)]
            for start, fields in state["strata"]]
        random.Random(state["seed"] * 1009 + r).shuffle(queries)
        return [(tuple(q.argv), q, lambda q=q: request(q.argv))
                for q in queries]

    def check(self, state, infos, outputs):
        monoid_sizes = {}
        gamma = []
        for q, out in zip(infos, outputs):
            if q.kind == "bound":
                _check_bound(q, out)
            elif q.kind == "order-info":
                _check_order_info(q, out, state)
            elif q.kind == "class-monoid":
                _check_cli_monoid(q, out, state["h"])
                monoid_sizes[q.facts["key"]] = out["size"]
            else:
                gamma.append((q, out))
        for q, out in gamma:
            _check_gamma(q, out, monoid_sizes, state["h"])


def _check_bound(q, out):
    name = " ".join(q.argv)
    for key, factors in q.facts["parts"].items():
        got = out[key]
        if isinstance(factors, int):
            _require(got == factors, f"{name}: {got} != {factors}")
            continue
        factors = [(b, e) for b, e in factors if b != 1 and e != 0]
        if got["exact_flag"]:
            want = oracles.power_product(factors)
            _require(int(got["exact_value"]) == want,
                     f"{name}: {key} exact value differs from the product")
            _require(got["digit_count"] == oracles.decimal_length(want),
                     f"{name}: {key} digit count")
        else:
            _require("exact_value" not in got, f"{name}: {key} value leaked")
            log = oracles.log10_sum(factors)
            _require(got["digit_count"] == int(log) + 1,
                     f"{name}: {key} digit count {got['digit_count']} vs "
                     f"log10 sum {log}")
            _require(abs(Fraction(got["log10"]) - Fraction(log))
                     <= Fraction(1, 10 ** 9) * (1 + abs(Fraction(log))),
                     f"{name}: {key} log10 {got['log10']} vs {log}")


def _check_order_info(q, out, state):
    poly, rows = q.facts["poly"], q.facts["rows"]
    name = " ".join(q.argv)
    d, d0, f = oracles.conductor_index(poly, rows)
    _require(out["order"]["disc"] == d == f * f * d0,
             f"{name}: disc {out['order']['disc']}, expected {d} = f^2 d0")
    _require(out["conductor"]["norm"] == f * f,
             f"{name}: conductor norm {out['conductor']['norm']} != {f * f}")
    units = out["units"]
    if d < 0:
        want = {-3: 6, -4: 4}.get(d, 2)
        _require(units["torsion_order"] == want,
                 f"{name}: torsion order {units['torsion_order']} != {want}")
        return
    a, b = (Fraction(x) for x in units["fundamental_unit"])
    a0, a1 = poly[0], poly[1]
    t = 2 * a - a1 * b                       # trace
    u2 = b * b * (a1 * a1 - 4 * a0) / d      # (eps - eps')^2 / D
    u = isqrt(u2.numerator) if u2.denominator == 1 else None
    _require(t.denominator == 1 and u is not None and u * u == u2,
             f"{name}: unit {a} + {b}x is not (t + u sqrt D)/2 with t, u in Z")
    t = int(t)
    _require(t * t - d * u * u in (4, -4), f"{name}: t^2 - D u^2 != +-4")
    _require((t - u * d) % 2 == 0, f"{name}: unit is not in the order")
    pell = state["pell"]
    if d not in pell:
        pell[d] = oracles.pell_minimal(d, 20_000)
    if pell[d] is not None:
        _require((abs(t), abs(u)) == pell[d],
                 f"{name}: unit ({t}, {u}) is not minimal, Pell gives {pell[d]}")


def _check_cli_monoid(q, out, class_number):
    name = " ".join(q.argv)
    d, d0, f = oracles.conductor_index(q.facts["poly"], q.facts["rows"])
    _require(out["conductor_norm"] == f * f,
             f"{name}: N(f) = {out['conductor_norm']}, expected {f * f}")
    classes = out["classes"]
    _require(len(classes) == out["size"], f"{name}: class list length")
    invertible = [c["invertible"] for c in classes]
    _require(out["picard_subset"]
             == [i for i, inv in enumerate(invertible) if inv],
             f"{name}: picard subset is not the invertible classes")
    _check_monoid_counts(name, d, d0, f, out["size"], len(out["picard_subset"]),
                         len(out["intermediate_subset"]), invertible,
                         out["multiplication_table"], class_number)


def _check_gamma(q, out, monoid_sizes, class_number):
    name = " ".join(q.argv)
    d, d0, f = oracles.conductor_index(q.facts["poly"], q.facts["rows"])
    count = out["count"]
    _require(count == len(out["structures"]) == sum(out["per_embedding"]),
             f"{name}: count disagrees with the structure list")
    size = monoid_sizes.get(q.facts["key"])
    _require(count == size, f"{name}: count {count} != class-monoid size "
                            f"{size} of the same order")
    _require(count <= out["bound"], f"{name}: count exceeds its bound")
    _require(out["conductor_norm"] == f * f, f"{name}: conductor norm")
    _require(out["picard_order"] == class_number(d), f"{name}: |Pic|")


WORKLOADS = {w.name: w for w in (CorpusMonoids(), StructureRoundtrip(),
                                 OrderQueries())}
