"""Desk-scale verification corpus and the end-to-end check suite.

The corpus is every quadratic order with |disc| <= 200 and conductor index
<= 6.  Each check function returns a (name, passed, details) record; the
suite runner aggregates them and is what the command-line `verify-suite`
invokes.  A fault-injection mode flips one multiplication-table entry and
must make the table audit fail: the negative control.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import bounds as bounds_mod
from .errors import FactorizationViolation, InvalidInput
from .gamma_structures import (
    MatrixOrder,
    RingMorphism,
    compatibility_of,
    count_conjugacy_classes_bruteforce,
    count_structures,
    structure_to_ideal_class,
    structures_from_ideal_classes,
    transfer_inequality_check,
)
from .ideals import class_monoid, verify_monoid_table
from .intmat import IntMatrix, inverse_unimodular
from .numberfield import RATIONAL_FIELD, make_field, squarefree_part
from .orders import (
    Order,
    conductor_comparison_check,
    is_order,
    maximal_order,
    unit_square_quotient,
)


@dataclass(frozen=True)
class CorpusEntry:
    order: Order
    disc: int
    field_disc: int
    conductor_index: int


def build_corpus(max_abs_disc=200, max_conductor=6):
    """All quadratic orders with |disc| <= max_abs_disc, conductor <= max_conductor."""
    out = []
    for m in range(-max_abs_disc, max_abs_disc + 1):
        if m in (0, 1):
            continue
        sqf, s = squarefree_part(m)
        if s != 1:
            continue
        d0 = m if m % 4 == 1 else 4 * m
        if abs(d0) > max_abs_disc:
            continue
        field = make_field([-m, 0, 1])
        om = maximal_order(field)
        w0 = om.omega()
        f = 1
        while f <= max_conductor and f * f * abs(d0) <= max_abs_disc:
            rows = [list(field.one().coords), list((w0 * f).coords)]
            order = is_order(field, rows)
            out.append(CorpusEntry(order, f * f * d0, d0, f))
            f += 1
    out.sort(key=lambda e: (abs(e.disc), e.disc, e.conductor_index))
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    details: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.seconds:.2f}s): {self.details}"


def check_lenstra_factorization(corpus, monoids) -> CheckResult:
    """Census audit: the class monoid equals Pic * intermediate classes."""
    t0 = time.time()
    audited = sum(m.census_checked for m in monoids)
    sizes = [m.size for m in monoids]
    return CheckResult(
        "lenstra-factorization", True, time.time() - t0,
        f"{len(corpus)} orders, {audited} census ideals audited, "
        f"max |C| = {max(sizes)}")


def check_class_bounds(corpus, monoids) -> CheckResult:
    """|I| <= N(f)^g, |Pic| <= N(f) h, and |C| <= N(f)^(g+1) h on the corpus."""
    t0 = time.time()
    bad = []
    for entry, m in zip(corpus, monoids):
        nf, h = m.conductor_norm, m.maximal_class_number
        n_inter = len(m.intermediate_subset)
        n_pic = len(m.picard_subset)
        if not (n_inter <= nf ** 2 and n_pic <= nf * h
                and m.size <= nf ** 3 * h):
            bad.append(entry.disc)
    return CheckResult(
        "class-bounds", not bad, time.time() - t0,
        "zero violations" if not bad else f"violated at discs {bad}")


def check_structure_counts() -> CheckResult:
    """Matrix-structure counts on the two benchmark orders, with the
    bounded-entry conjugacy search as an independent check."""
    t0 = time.time()
    details = []
    ok = True
    target = MatrixOrder(RATIONAL_FIELD, 2)
    for coeffs, expected, tight in (([5, 0, 1], 2, True), ([1, 0, 1], 1, True)):
        field = make_field(coeffs)
        om = maximal_order(field)
        res = count_structures(om, target)
        brute, _ = count_conjugacy_classes_bruteforce(0, coeffs[0], 10)
        good = res.count == expected == brute and res.bound == expected
        ok = ok and good
        details.append(f"x^2+{coeffs[0]}: count={res.count} bound={res.bound} "
                       f"brute={brute}")
    return CheckResult("structure-counts", ok, time.time() - t0,
                       "; ".join(details))


def _random_unimodular(rng, n=2, steps=8):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5:
        m[0], m[1] = m[1], m[0]
    return IntMatrix(m)


def _conjugate(rho: RingMorphism, u: IntMatrix) -> RingMorphism:
    ui = inverse_unimodular(u)
    k = rho.target.base_field
    out = []
    for m in rho.images:
        mm = IntMatrix([[int(x.coords[0]) for x in row] for row in m])
        prod = (u * mm) * ui
        out.append(tuple(tuple(k.from_rational(prod[i, j])
                               for j in range(u.rows)) for i in range(u.rows)))
    return RingMorphism(rho.source, rho.target, tuple(out), check=False)


def check_bijection_roundtrip(corpus, monoids, conjugations=20,
                              seed=20260810) -> CheckResult:
    """Round-trip identity class -> morphism -> class, plus invariance of the
    compatibility index and the class under random unimodular conjugation."""
    import random
    rng = random.Random(seed)
    t0 = time.time()
    target = MatrixOrder(RATIONAL_FIELD, 2)
    structures = 0
    for entry, monoid in zip(corpus, monoids):
        found = structures_from_ideal_classes(entry.order, target, 0, monoid)
        if len(found) != monoid.size:
            return CheckResult(
                "bijection-roundtrip", False, time.time() - t0,
                f"disc {entry.disc}: {len(found)} structures for "
                f"{monoid.size} classes")
        for s in found:
            structures += 1
            idx, _ = structure_to_ideal_class(s.representative, monoid)
            if idx != s.ideal_class_index:
                return CheckResult(
                    "bijection-roundtrip", False, time.time() - t0,
                    f"disc {entry.disc}: round-trip moved class "
                    f"{s.ideal_class_index} to {idx}")
            for _ in range(conjugations):
                u = _random_unimodular(rng)
                conj = _conjugate(s.representative, u)
                if compatibility_of(conj)[0] != s.compatibility:
                    return CheckResult(
                        "bijection-roundtrip", False, time.time() - t0,
                        f"disc {entry.disc}: conjugation changed the "
                        f"compatibility index")
                idx2, _ = structure_to_ideal_class(conj, monoid)
                if idx2 != s.ideal_class_index:
                    return CheckResult(
                        "bijection-roundtrip", False, time.time() - t0,
                        f"disc {entry.disc}: conjugation moved the class")
    return CheckResult(
        "bijection-roundtrip", True, time.time() - t0,
        f"{structures} structures, {conjugations} conjugations each")


def check_unit_bounds(corpus) -> CheckResult:
    """|Gamma^x / Gamma^x2| <= 2^g with the exact per-case values, and
    N(eps) = +-1 for every fundamental unit."""
    t0 = time.time()
    for entry in corpus:
        data = unit_square_quotient(entry.order)
        if data.square_class_count > 4:
            return CheckResult("unit-bounds", False, time.time() - t0,
                               f"disc {entry.disc}: quotient exceeds 2^g")
        if entry.disc < 0:
            if data.square_class_count != 2:
                return CheckResult(
                    "unit-bounds", False, time.time() - t0,
                    f"disc {entry.disc}: imaginary quotient must be 2")
            expected_torsion = {-4: 4, -3: 6}.get(entry.disc, 2)
            if data.torsion_order != expected_torsion:
                return CheckResult(
                    "unit-bounds", False, time.time() - t0,
                    f"disc {entry.disc}: torsion {data.torsion_order}")
        else:
            eps = data.fundamental_unit
            if data.square_class_count != 4 or abs(eps.norm()) != 1:
                return CheckResult(
                    "unit-bounds", False, time.time() - t0,
                    f"disc {entry.disc}: bad fundamental unit data")
    return CheckResult("unit-bounds", True, time.time() - t0,
                       f"{len(corpus)} orders verified")


def check_transfer_instance() -> CheckResult:
    """The commensurable-ring instance: counts (2, 2), |R'/2R'| = 4, 2 <= 8,
    and the unit-index bound 2 <= 4."""
    t0 = time.time()
    qi = make_field([1, 0, 1])
    zi = maximal_order(qi)
    z2i = is_order(qi, [[1, 0], [0, 2]])
    rep = transfer_inequality_check(zi, zi, z2i, 2)
    ok = (rep.count_r == 2 and rep.count_r_prime == 2
          and rep.quotient_size == 4 and rep.inequality_holds
          and rep.unit_index == 2 and rep.unit_quotient_bound == 4
          and rep.unit_inequality_holds)
    return CheckResult(
        "transfer-inequality", ok, time.time() - t0,
        f"counts=({rep.count_r},{rep.count_r_prime}) "
        f"|R'/dR'|={rep.quotient_size} units {rep.unit_index}<="
        f"{rep.unit_quotient_bound}")


def check_bound_evaluators() -> CheckResult:
    """Digit counts certified by directed-rounding logs, plus one exact value
    against an independent big-integer exponentiation."""
    t0 = time.time()
    empty = bounds_mod.SIntegerSpec(())
    checks = []
    b = bounds_mod.thm_main_height(1, empty)
    checks.append(b.digit_count == 69)
    head, _ = bounds_mod.thm_main_count(1, empty, 1, 1)
    checks.append(head.digit_count == 5_050_446)
    checks.append(bounds_mod.e_exponent(1) == 16_777_216)
    checks.append(bounds_mod.e_exponent(2) == 4_294_967_296)
    ba = bounds_mod.thm_a_height(1, 6, empty)
    checks.append(ba.exact_flag and ba.exact_value == 3 ** 144 * 6 ** 24)
    ok = all(checks)
    return CheckResult("bound-evaluators", ok, time.time() - t0,
                       "digit counts 69 / 5050446, e_1, e_2, exact value"
                       if ok else f"failed flags: {checks}")


def check_conductor_comparison(corpus, ds=(1, 2, 3)) -> CheckResult:
    """d*f <= f' and N(f') <= d^g N(f) for every corpus order and small d."""
    t0 = time.time()
    for entry in corpus:
        for d in ds:
            rep = conductor_comparison_check(entry.order, d)
            if not rep.ok:
                return CheckResult(
                    "conductor-comparison", False, time.time() - t0,
                    f"disc {entry.disc}, d={d}: {rep}")
    return CheckResult("conductor-comparison", True, time.time() - t0,
                       f"{len(corpus)} orders x d in {list(ds)}")


def _inject_fault(monoids):
    """(index, faulty copy) of the first monoid with more than one class,
    its table entry (0, size - 1) moved to the next class; None when every
    monoid is trivial."""
    idx = next((i for i, m in enumerate(monoids) if m.size > 1), None)
    if idx is None:
        return None
    victim = monoids[idx]
    table = [list(row) for row in victim.table]
    table[0][victim.size - 1] = (table[0][victim.size - 1] + 1) % victim.size
    return idx, replace(victim, table=tuple(tuple(r) for r in table))


def check_negative_control(monoids) -> CheckResult:
    """Flip one multiplication-table entry; the audit must catch it."""
    t0 = time.time()
    injected = _inject_fault(monoids)
    if injected is None:
        return CheckResult("negative-control", False, time.time() - t0,
                           "no monoid of size > 1 in corpus")
    _, faulty = injected
    try:
        verify_monoid_table(faulty)
    except FactorizationViolation:
        return CheckResult("negative-control", True, time.time() - t0,
                           "fault detected as FactorizationViolation")
    return CheckResult("negative-control", False, time.time() - t0,
                       "injected fault was NOT detected")


@dataclass(frozen=True)
class SuiteReport:
    results: tuple
    corpus_size: int
    per_order: tuple = ()

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def lines(self):
        out = [f"verification corpus: {self.corpus_size} quadratic orders"]
        if self.per_order:
            out.append("  disc  cond  N(f)  |C|  |Pic|  |I|  census")
            for row in self.per_order:
                out.append("  {:>5} {:>4} {:>5} {:>4} {:>6} {:>4} {:>7}".format(*row))
        out.extend(r.line() for r in self.results)
        out.append("suite: " + ("PASS" if self.passed else "FAIL"))
        return out


def run_suite(max_abs_disc=200, max_conductor=6, conjugations=20,
              inject_fault=False) -> SuiteReport:
    if conjugations < 0:
        raise InvalidInput(f"--conjugations must be a non-negative integer, "
                           f"got {conjugations}", operation="run_suite")
    corpus = build_corpus(max_abs_disc, max_conductor)
    if not corpus:
        raise InvalidInput(f"no quadratic order has |disc| <= {max_abs_disc} "
                           f"and conductor index <= {max_conductor}",
                           operation="run_suite")
    t0 = time.time()
    monoids = [class_monoid(e.order) for e in corpus]
    build_seconds = time.time() - t0
    # with no monoid of size > 1 to corrupt, the negative control fails
    injected = _inject_fault(monoids) if inject_fault else None
    if injected:
        monoids[injected[0]] = injected[1]
    # the census audit runs inside class_monoid, so its line carries the build
    lenstra = check_lenstra_factorization(corpus, monoids)
    results = [
        replace(lenstra, seconds=lenstra.seconds + build_seconds),
        check_class_bounds(corpus, monoids),
        check_structure_counts(),
        check_bijection_roundtrip(corpus, monoids, conjugations),
        check_unit_bounds(corpus),
        check_transfer_instance(),
        check_bound_evaluators(),
        check_conductor_comparison(corpus),
        _audit_tables(monoids),
        check_negative_control(monoids[:8]) if not injected
        else CheckResult("negative-control", True, 0.0,
                         "skipped: fault injected in main tables instead"),
    ]
    per_order = tuple(
        (e.disc, e.conductor_index, m.conductor_norm, m.size,
         len(m.picard_subset), len(m.intermediate_subset), m.census_checked)
        for e, m in zip(corpus, monoids))
    return SuiteReport(tuple(results), len(corpus), per_order)


def _audit_tables(monoids) -> CheckResult:
    t0 = time.time()
    try:
        for m in monoids:
            verify_monoid_table(m)
    except FactorizationViolation as err:
        return CheckResult("table-audit", False, time.time() - t0, str(err))
    return CheckResult("table-audit", True, time.time() - t0,
                       f"{len(monoids)} multiplication tables recomputed")
