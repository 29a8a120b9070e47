"""Fractional ideals of an order: arithmetic, classes, Picard group, monoid.

The class monoid C of an order is assembled constructively as
Pic * {classes with a representative between the conductor and the maximal
order}, then audited by a brute-force census of stable sublattices.  Class
identity for quadratic orders is decided through oriented binary quadratic
forms (see quadforms); a generic norm-constrained element search remains as
the fallback and as the oracle route in the tests.

class_monoid carries a quadratic class as the pair (a, b) of its
representative [a, b + omega] and multiplies, labels and tests pairs in
integers; the lattice route is their oracle (tests, verify_monoid_table).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as _field
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from . import quadforms
from .errors import (
    FactorizationViolation,
    IndexTooLarge,
    MethodDisagreement,
    NotFullRank,
    OrderMismatch,
    SearchBudgetExceeded,
    UnsupportedDegree,
)
from .intmat import IntMatrix, Lattice, _det_bareiss, solve_square
from .modular import factorize, kronecker, quadratic_roots_upto
from .numberfield import FieldElement, integral_norm
from .orders import (
    _POWER_BUDGET_FACTOR,
    Order,
    _lattice_times_element,
    colon_lattice,
    conductor,
    escaping_product,
    maximal_order,
)

# Largest quotient N(f) = [O_L : f] whose intermediate lattices are enumerated.
_MAX_INDEX = 100_000
# The census audits stable sublattices up to index N(f)^2 times this factor.
_CENSUS_BUDGET_FACTOR = 16
# Largest census index, checked before any census starts.
_MAX_CENSUS = 100_000
# Coefficient budget of the generic equivalence search (degree >= 3).
_EQUIVALENCE_BUDGET = 4000


class FractionalIdeal:
    """A full-rank, order-stable lattice in the field of fractions."""

    __slots__ = ("order", "lattice")

    def __init__(self, order: Order, lattice: Lattice, check=True):
        if lattice.rank != order.degree:
            raise NotFullRank("a fractional ideal has full rank",
                              operation="FractionalIdeal")
        if check and escaping_product(order.basis_elements(), lattice,
                                      order.field) is not None:
            raise ValueError("lattice is not stable under the order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "lattice", lattice)

    def __setattr__(self, name, value):
        raise AttributeError("FractionalIdeal is immutable")

    def __eq__(self, other):
        return (isinstance(other, FractionalIdeal)
                and self.order == other.order and self.lattice == other.lattice)

    def __hash__(self):
        return hash((self.order, self.lattice))

    def __repr__(self):
        return f"FractionalIdeal({self.lattice!r})"

    def elements(self):
        return tuple(self.order.field.element(r) for r in self.lattice.rows_q())

    def scale(self, x) -> "FractionalIdeal":
        if isinstance(x, FieldElement):
            lat = _lattice_times_element(self.lattice, x, self.order.field)
        else:
            lat = self.lattice.scale(Fraction(x))
        return FractionalIdeal(self.order, lat, check=False)

    def norm_index(self) -> Fraction:
        """Generalized index [Gamma : I] (covolume ratio), a positive rational."""
        return _covolume(self.lattice) / _covolume(self.order.lattice)

    def primitive(self) -> "FractionalIdeal":
        """The scaling of I that is integral with coordinate content 1."""
        c = solve_square(self.order.lattice.rows_q(), self.lattice.rows_q())
        den = 1
        for row in c:
            for x in row:
                den = den * x.denominator // gcd(den, x.denominator)
        g = 0
        for row in c:
            for x in row:
                g = gcd(g, int(x * den))
        return self.scale(Fraction(den, g))


def _covolume(lat: Lattice) -> Fraction:
    d = _det_bareiss([list(r) for r in lat.basis.entries])
    return abs(Fraction(d, lat.den ** lat.dim))


def principal_ideal(order: Order, x: FieldElement) -> FractionalIdeal:
    return FractionalIdeal(order, order.lattice, check=False).scale(x)


def generated_ideal(order: Order, generators) -> FractionalIdeal:
    """The fractional ideal generated by finitely many nonzero elements."""
    rows = []
    for g in generators:
        for b in order.basis_elements():
            rows.append(list((g * b).coords))
    lat = Lattice.from_rows(rows, order.degree)
    return FractionalIdeal(order, lat, check=False)


def unit_ideal(order: Order) -> FractionalIdeal:
    return FractionalIdeal(order, order.lattice, check=False)


def ideal_product(i: FractionalIdeal, j: FractionalIdeal) -> FractionalIdeal:
    if i.order != j.order:
        raise OrderMismatch("ideals of different orders",
                            operation="ideal_product")
    rows = []
    for a in i.elements():
        for b in j.elements():
            rows.append(list((a * b).coords))
    return FractionalIdeal(i.order,
                           Lattice.from_rows(rows, i.order.degree),
                           check=False)


def colon_ideal(i: FractionalIdeal, j: FractionalIdeal) -> FractionalIdeal:
    """(I : J) = {x in L : x*J <= I}."""
    if i.order != j.order:
        raise OrderMismatch("ideals of different orders",
                            operation="colon_ideal")
    return FractionalIdeal(i.order,
                           colon_lattice(i.lattice, j.elements(), i.order.field),
                           check=False)


def is_invertible(i: FractionalIdeal) -> bool:
    """I is invertible iff I * (Gamma : I) = Gamma.

    Quadratic orders are Gorenstein, so there I is invertible exactly when
    its multiplier ring is Gamma, whose discriminant is that of the
    primitive form of I (Cox, Primes of the form x^2 + ny^2, Lemma 7.5):
    no colon ideal or product is formed.  Other degrees take the colon
    route, which the tests keep as the oracle for degree 2.
    """
    if i.order.degree == 2:
        t, n = i.order.omega_data()
        return quadforms.disc_of(ideal_form(i)) == t * t - 4 * n
    inv = colon_ideal(unit_ideal(i.order), i)
    return ideal_product(i, inv).lattice == i.order.lattice


# --- quadratic class identification ------------------------------------------


def oriented_basis(i: FractionalIdeal):
    """Basis (alpha, beta) oriented so same-lattice bases differ by SL2 only.

    Imaginary fields: the generator coordinate of beta/alpha is positive
    (upper half plane).  Real fields: sign(sigma1(alpha) sigma2(beta) -
    sigma2(alpha) sigma1(beta)) is pinned, which in coordinates is the sign
    of -v(beta/alpha) * N(alpha); scaling by a negative-norm element flips it,
    which is what sends the form (a, b, c) to (-a, b, -c).
    """
    a, b = i.elements()
    ratio = b / a
    if i.order.field.signature[0] == 0:
        if ratio.coords[1] < 0:
            b = -b
    else:
        if ratio.coords[1] * a.norm() > 0:
            b = -b
    return a, b


def ideal_form(i: FractionalIdeal):
    """Primitive integer form of the oriented basis of a quadratic ideal."""
    if i.order.degree != 2:
        raise UnsupportedDegree("forms need a quadratic order",
                                operation="ideal_form")
    a, b = oriented_basis(i)
    fa = a.norm()
    fc = b.norm()
    fb = (a + b).norm() - fa - fc
    den = 1
    for x in (fa, fb, fc):
        den = den * x.denominator // gcd(den, x.denominator)
    ia, ib, ic = int(fa * den), int(fb * den), int(fc * den)
    g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
    return (ia // g, ib // g, ic // g)


def class_label(i: FractionalIdeal):
    """Canonical hashable label of the equivalence class of an ideal."""
    if i.order.degree == 1:
        return (1,)
    if i.order.degree == 2:
        return quadforms.class_label(ideal_form(i))
    raise UnsupportedDegree("class labels implemented for degree <= 2",
                            operation="class_label")


def _aligned_element(i: FractionalIdeal, j: FractionalIdeal):
    """x with j = x*i, found by aligning reduced forms; None if classes differ."""
    field = i.order.field
    ai, bi = oriented_basis(i)
    aj, bj = oriented_basis(j)
    fi, fj = ideal_form(i), ideal_form(j)
    reps_i = quadforms.reduced_reps_with_transforms(fi)
    reps_j = quadforms.reduced_reps_with_transforms(fj)
    by_form = {}
    for f, u, _sgn in reps_j:
        by_form.setdefault(f, []).append(u)
    for f, u, _sgn in reps_i:
        for uj in by_form.get(f, ()):  # matching canonical forms
            cand_i = ai * u[0][0] + bi * u[0][1]
            cand_j = aj * uj[0][0] + bj * uj[0][1]
            if cand_i.is_zero():
                continue
            x = cand_j / cand_i
            if i.scale(x).lattice == j.lattice:
                return x
    return None


def is_equivalent(i: FractionalIdeal, j: FractionalIdeal):
    """A nonzero x with J = x*I, or None when no such x exists.

    Quadratic orders are decided exactly through canonical forms; other
    degrees fall back to a norm-constrained search over (J : I) and report
    SearchBudgetExceeded rather than claiming inequivalence.
    """
    if i.order != j.order:
        raise OrderMismatch("ideals of different orders",
                            operation="is_equivalent")
    if i.lattice == j.lattice:
        return i.order.field.one()
    g = i.order.degree
    if g == 1:
        a = i.elements()[0]
        b = j.elements()[0]
        return b / a
    if g == 2:
        if class_label(i) != class_label(j):
            return None
        x = _aligned_element(i, j)
        if x is None:
            raise MethodDisagreement(
                "equal class labels but alignment failed",
                operation="is_equivalent")
        return x
    return _search_equivalence(i, j)


def _search_equivalence(i, j):
    """Generic route: x in (J : I) with |N(x)| = covolume ratio, box search
    over at most 8 * _EQUIVALENCE_BUDGET coefficient vectors.

    A candidate is kept as its integer coordinates v = den * x over the
    colon lattice's denominator, so |N(x)| = ratio reads |N(v)| =
    ratio * den^g; only a candidate of the right norm becomes an element."""
    field = i.order.field
    col = colon_ideal(j, i).lattice
    den, cols = col.den, list(zip(*col.basis.entries))
    g = i.order.degree
    target = j.norm_index() / i.norm_index() * den ** g
    radius = 4
    tested = 0
    while radius <= 64:
        for combo in itertools.product(range(-radius, radius + 1), repeat=g):
            if all(c == 0 for c in combo):
                continue
            tested += 1
            if tested > _EQUIVALENCE_BUDGET * 8:
                raise SearchBudgetExceeded("equivalence search budget exhausted",
                                           operation="is_equivalent")
            v = [sum(map(mul, combo, column)) for column in cols]
            if not any(v) or abs(integral_norm(field, v)) != target:
                continue
            x = field.element([Fraction(c, den) for c in v])
            if i.scale(x).lattice == j.lattice:
                return x
        radius *= 2
        if field.signature[0] == 0 and g == 2:
            break  # imaginary quadratic: the first ball is already complete
    if field.signature == (0, 1):
        return None
    raise SearchBudgetExceeded(
        "cannot certify inequivalence for this signature",
        operation="is_equivalent")


# --- class sets ---------------------------------------------------------------


@dataclass(frozen=True)
class IdealClass:
    representative: FractionalIdeal
    invertible: bool
    label: tuple
    pair: tuple = _field(default=None, compare=False)

    def __repr__(self):
        return f"IdealClass(label={self.label}, invertible={self.invertible})"


def _pair_forms(gamma: Order, pairs):
    """(a, b, form) for each stable pair of ``pairs``: form = (a, s*(2b + t),
    (b^2 + t*b + n) / a) is the oriented form of Z*a + Z*(b + omega) times
    its content, with s = -1 for real fields (anti-oriented bases), else 1."""
    t, n = gamma.omega_data()
    s = -1 if gamma.field.signature[0] == 2 else 1
    for a, b in pairs:
        yield a, b, (a, s * (2 * b + t), (b * b + t * b + n) // a)


def _pair_label(gamma: Order, a, b):
    """class_label of the stable lattice [a, b + omega], in integers."""
    (_, _, form), = _pair_forms(gamma, [(a, b)])
    g = quadforms.content(form)
    return quadforms.class_label(tuple(x // g for x in form))


def _pair_class(gamma: Order, a, b, label) -> IdealClass:
    """The class labelled ``label`` represented by [a, b + omega]; invertible
    when the label has the order's discriminant, as in is_invertible."""
    t, n = gamma.omega_data()
    return IdealClass(_standard_ideal(gamma, a, b),
                      quadforms.disc_of(label) == t * t - 4 * n, label, (a, b))


def _pair_of_rows(rows, t, n):
    """(z, a, b) with span(rows) = z*[a, b + omega] for integer rows in
    (1, omega) coordinates (omega^2 = t*omega - n), or None if not stable:
    with HNF rows (x, 0), (y, z) (xgcd on the omega column), it is stable
    iff z | x, z | y and a = x/z divides N(b + omega) for b = y/z mod a."""
    x = y = z = 0
    for r0, r1 in rows:
        if r1:
            g, u, v = quadforms._xgcd(z, r1)
            x = gcd(x, (r1 * y - z * r0) // g)
            y, z = u * y + v * r0, g
        else:
            x = gcd(x, r0)
    if x % z or y % z:
        return None
    a, b = x // z, y // z
    return None if (b * b + t * b + n) % a else (z, a, b % a)


def _lattice_reader(gamma: Order):
    """lat -> (z, a, b) with lat in Q*[a, b + omega], or None if unstable:
    for omega = (p0 + p1*theta)/q, p1*(c0 + c1*theta) is
    (c0*p1 - c1*p0) + c1*q*omega."""
    t, n = gamma.omega_data()
    p0, p1, q = gamma.omega_coords()
    return lambda lat: _pair_of_rows([(c0 * p1 - c1 * p0, c1 * q)
                                      for c0, c1 in lat.basis.entries], t, n)


def _pair_product(gamma: Order, p, q):
    """(a, b, label) with [a1, b1 + omega][a2, b2 + omega] in Q*[a, b + omega]
    for p = (a1, b1), q = (a2, b2), read off the product's generators a1*a2,
    a1*(b2 + omega), a2*(b1 + omega), (b1*b2 - n) + (b1 + b2 + t)*omega."""
    t, n = gamma.omega_data()
    (a1, b1), (a2, b2) = p, q
    _, a, b = _pair_of_rows(((a1 * a2, 0), (a1 * b2, a1), (a2 * b1, a2),
                             (b1 * b2 - n, b1 + b2 + t)), t, n)
    return a, b, _pair_label(gamma, a, b)


def intermediate_classes(gamma: Order, maximal: Order | None = None,
                         max_index=_MAX_INDEX, lower_ideal=None):
    """The classes with a representative I satisfying f <= I <= O_L.

    ``lower_ideal`` optionally replaces the conductor by a smaller ideal of
    the maximal order contained in the order; the resulting class set only
    grows, and the product decomposition still holds.  The conductor is the
    minimal choice and the default; for a quadratic order it is f*O_L.  The
    lattices between (enumerate_intermediate_lattices, a direct HNF listing)
    are read as integer pairs (_lattice_reader; oracle in the tests:
    escaping_product, class_label).
    """
    if maximal is None:
        maximal = maximal_order(gamma.field)
    from .intmat import enumerate_intermediate_lattices
    f = conductor(gamma, maximal)
    lower = f.lattice
    if lower_ideal is not None:
        lower = (lower_ideal.lattice if isinstance(lower_ideal, FractionalIdeal)
                 else lower_ideal)
        if not gamma.lattice.contains_lattice(lower):
            raise OrderMismatch("replacement ideal must sit inside the order",
                                operation="intermediate_classes")
        if escaping_product(maximal.basis_elements(), lower,
                            gamma.field) is not None:
            raise OrderMismatch("replacement ideal must be stable under the "
                                "maximal order", operation="intermediate_classes")
    lattices = enumerate_intermediate_lattices(maximal.lattice, lower,
                                               max_index=max_index)
    if gamma.degree == 1:  # every fractional ideal of Z is principal
        return [IdealClass(unit_ideal(gamma), True, (1,))]
    classes = {}
    for _, a, b in filter(None, map(_lattice_reader(gamma), lattices)):
        lab = _pair_label(gamma, a, b)
        if lab not in classes:
            classes[lab] = _pair_class(gamma, a, b, lab)
    out = sorted(classes.values(), key=lambda c: c.label)
    if lower_ideal is None and len(out) > f.norm ** gamma.degree:
        raise FactorizationViolation("intermediate class count exceeded N(f)^g",
                                     operation="intermediate_classes")
    return out


@dataclass(frozen=True)
class PicardGroup:
    classes: tuple
    order: int
    h_formula: int
    h_maximal: int
    conductor_norm: int


def class_number_formula(gamma: Order) -> int:
    """|Pic(Gamma)| by the classical index formula for quadratic orders:

        h(Gamma) = h(O) * prod_{p | f} p^(e_p - 1) (p - (d0/p)) / [O^x : Gamma^x]

    with f the integer conductor [O : Gamma] and d0 the field discriminant.
    """
    if gamma.degree == 1:
        return 1
    if gamma.degree != 2:
        raise UnsupportedDegree("index formula needs a quadratic order",
                                operation="class_number_formula")
    om = maximal_order(gamma.field)
    return _index_formula(gamma, om, quadforms.form_class_count(om.disc()))


def _index_formula(gamma: Order, om: Order, h0: int) -> int:
    """class_number_formula of a quadratic order, given h0 = h(O_L)."""
    d0 = om.disc()
    f_idx = isqrt(conductor(gamma, om).norm)
    num = h0
    for p, e in factorize(f_idx).items():
        num *= p ** (e - 1) * (p - kronecker(d0, p))
    u_idx = _unit_index(gamma, om)
    if num % u_idx:
        raise MethodDisagreement("index formula gave a non-integer",
                                 operation="class_number_formula")
    return num // u_idx


def _unit_index(gamma: Order, om: Order) -> int:
    """[O_L^x : Gamma^x] in integers, for Gamma = Z + f*O_L.  Imaginary: the
    roots of unity of O_L (6 for d0 = -3, 4 for d0 = -4, else 2) over the
    +-1 left in Gamma when f > 1.  Real: the least k <= 6f with f | u_k for
    eps^k = (t_k + u_k*sqrt(d0)) / 2, eps the fundamental unit of O_L."""
    d0 = om.disc()
    f = isqrt(conductor(gamma, om).norm)
    if d0 < 0:
        return {-3: 3, -4: 2}.get(d0, 1) if f > 1 else 1
    t, u = quadforms.fundamental_unit_xy(d0)
    tk, uk = t, u
    for k in range(1, f * _POWER_BUDGET_FACTOR + 1):
        if uk % f == 0:
            return k
        tk, uk = (tk * t + d0 * uk * u) // 2, (tk * u + uk * t) // 2
    raise MethodDisagreement("no power of the fundamental unit fell in the "
                             "order within budget", operation="fundamental_unit")


def picard_group(gamma: Order) -> PicardGroup:
    """Pic(Gamma) computed two ways and cross-checked.

    (a) enumeration of invertible primitive stable ideals up to the reduced-
    form norm bound, grouped by class: the form of each census pair (a, b)
    is read off its integers as the census of class_monoid does, and gives
    both its invertibility (content 1, i.e. its discriminant is that of
    Gamma) and, unless its reduced form is a canonical form of a class
    already found, its class label; only the first ideal of each class is
    built as a lattice, to represent it, and carries its pair (a, b); a bound
    over _MAX_CENSUS raises IndexTooLarge first; (b) the index formula
    relating |Pic(Gamma)| to h(O_L), also reported as h_maximal.  A mismatch
    is an implementation bug, reported as MethodDisagreement.  The group
    laws are checked on the multiplication table of class_monoid.
    """
    if gamma.degree == 1:
        return PicardGroup((IdealClass(unit_ideal(gamma), True, (1,)),),
                           1, 1, 1, 1)
    if gamma.degree != 2:
        raise UnsupportedDegree("picard_group implemented for degree <= 2",
                                operation="picard_group")
    om = maximal_order(gamma.field)
    d = gamma.disc()
    nf = conductor(gamma, om).norm
    bound = isqrt(abs(d)) + 1
    _check_census(bound, "picard_group")
    found = {}
    seen = set()  # the canonical forms of the classes found so far
    for a, b, form in _census_forms(gamma, bound):
        if quadforms.content(form) != 1:  # not invertible, see is_invertible
            continue
        if quadforms.reduced(form) in seen:
            continue
        lab = quadforms.class_label(form)
        if lab not in found:
            seen |= quadforms.class_forms(lab)
            found[lab] = _pair_class(gamma, a, b, lab)
    classes = sorted(found.values(), key=lambda c: c.label)
    h0 = quadforms.form_class_count(om.disc())
    h_formula = _index_formula(gamma, om, h0)
    if len(classes) != h_formula:
        raise MethodDisagreement(
            f"picard enumeration found {len(classes)} classes, formula "
            f"says {h_formula}", operation="picard_group")
    return PicardGroup(tuple(classes), len(classes), h_formula, h0, nf)


def _census_forms(gamma: Order, bound):
    """_pair_forms of the pairs of _stable_ideal_pairs(gamma, bound)."""
    return _pair_forms(gamma, _stable_ideal_pairs(gamma, bound))


def _check_census(budget, operation):
    """IndexTooLarge when a census up to index ``budget`` is over budget."""
    if budget > _MAX_CENSUS:
        raise IndexTooLarge(f"census up to index {budget} exceeds budget "
                            f"{_MAX_CENSUS}", operation=operation)


def _standard_ideal(gamma: Order, a: int, b: int) -> FractionalIdeal:
    """The stable lattice Z*a + Z*(b + omega) as a fractional ideal, from
    the integer rows (a*q, 0), (b*q + p0, p1) over q, omega = (p0, p1) / q."""
    p0, p1, q = gamma.omega_coords()
    rows = IntMatrix([[a * q, 0], [b * q + p0, p1]])
    return FractionalIdeal(gamma, Lattice(2, rows, q), check=False)


def _stable_ideal_pairs(gamma: Order, bound):
    """(a, b) with 0 <= b < a <= bound and a | N(b + omega): the primitive
    stable sublattices of the order, a ascending, with the b of each a
    ordered by (t + 2b) mod 2a, the least root y of y^2 = disc mod 4a that
    gives b.  This is the sorted view of the census walk
    (modular.quadratic_roots_upto), which _census_audit streams unsorted.
    """
    t, n = gamma.omega_data()
    for a, bs in sorted(quadratic_roots_upto(t, n, bound)):
        two_a = 2 * a
        for b in sorted(bs, key=lambda b: (t + 2 * b) % two_a):
            yield a, b


# --- the class monoid -----------------------------------------------------------


@dataclass(frozen=True)
class ClassMonoid:
    order: Order
    classes: tuple            # IdealClass, identity first
    table: tuple              # table[i][j] = index of class of product
    picard_subset: tuple      # indices of invertible classes
    intermediate_subset: tuple  # indices of classes meeting {f <= I <= O_L}
    conductor_norm: int
    maximal_class_number: int
    census_checked: int       # stable primitive ideals audited
    census_budget: int

    @property
    def size(self):
        return len(self.classes)

    def locate(self, ideal: FractionalIdeal) -> int:
        lab = class_label(ideal)
        for idx, c in enumerate(self.classes):
            if c.label == lab:
                return idx
        raise FactorizationViolation(
            "ideal class outside Pic * intermediate set",
            operation="class_monoid")


def class_monoid(gamma: Order) -> ClassMonoid:
    """C = Pic * {intermediate classes}, audited by a stable-sublattice census.

    Classes carry the pairs (a, b) of their representatives [a, b + omega]
    and are multiplied as pairs (_pair_product), two Picard classes in the
    table by composing forms (_product_labels); verify_monoid_table redoes
    the table as lattices.  A product outside the assembled classes is a
    FactorizationViolation; the monoid laws and the group laws of the Picard
    subset are checked on the table.  P times the order itself is P.
    The census enumerates every primitive stable sublattice of index up to
    max(N(f)^2 * 16, isqrt(|disc|) + 1) and verifies each lands in an
    assembled class, and that every assembled class is hit: the executable
    form of the product decomposition, with FactorizationViolation as the
    fatal signal.  An index N(f) above _MAX_INDEX, or a census index above
    _MAX_CENSUS, raises IndexTooLarge before any class is built.
    """
    if gamma.degree == 1:
        cls = IdealClass(unit_ideal(gamma), True, (1,))
        return ClassMonoid(gamma, (cls,), ((0,),), (0,), (0,), 1, 1, 1, 1)
    if gamma.degree != 2:
        raise UnsupportedDegree("class_monoid implemented for degree <= 2",
                                operation="class_monoid")
    om = maximal_order(gamma.field)
    nf = conductor(gamma, om).norm
    # N(f) = [O_L : f] is the quotient that intermediate_classes enumerates;
    # every class has a reduced form whose a is at most isqrt(|disc|)
    if nf > _MAX_INDEX:
        raise IndexTooLarge(f"quotient order {nf} exceeds budget {_MAX_INDEX}",
                            operation="class_monoid")
    budget = max(nf * nf * _CENSUS_BUDGET_FACTOR, isqrt(abs(gamma.disc())) + 1)
    _check_census(budget, "class_monoid")
    pic = picard_group(gamma)
    inter = intermediate_classes(gamma, om)

    assembled = {}
    identity_label = _pair_label(gamma, 1, 0)
    for p in pic.classes:
        for i in inter:
            if i.pair == (1, 0):
                # P * Gamma = P: the Picard class itself
                assembled.setdefault(p.label, p)
                continue
            a, b, lab = _pair_product(gamma, p.pair, i.pair)
            if lab not in assembled:
                assembled[lab] = _pair_class(gamma, a, b, lab)
    # identity first, rest ordered by label
    rest = sorted((lab for lab in assembled if lab != identity_label))
    ordering = [identity_label] + rest
    classes = tuple(assembled[lab] for lab in ordering)
    index_of = {lab: i for i, lab in enumerate(ordering)}

    # multiplication table; any product escaping the set is a violation
    table = []
    for row in _product_labels(classes, pairs=True):
        if not all(lab in index_of for lab in row):
            raise FactorizationViolation(
                "product of classes left the assembled monoid",
                operation="class_monoid")
        table.append(tuple(index_of[lab] for lab in row))

    picard_subset = tuple(i for i, c in enumerate(classes) if c.invertible)
    inter_labels = {c.label for c in inter}
    intermediate_subset = tuple(i for i, lab in enumerate(ordering)
                                if lab in inter_labels)

    # census audit
    form_to_class = {}
    for idx, c in enumerate(classes):
        for f in quadforms.class_forms(c.label):
            prev = form_to_class.setdefault(f, idx)
            if prev != idx:
                raise MethodDisagreement(
                    "two distinct classes share a canonical form",
                    operation="class_monoid")
    checked, hit = _census_audit(gamma, budget, form_to_class)
    if hit != set(range(len(classes))):
        missing = sorted(set(range(len(classes))) - hit)
        raise FactorizationViolation(
            f"assembled classes {missing} were never found by the census",
            operation="class_monoid")

    monoid = ClassMonoid(gamma, classes, tuple(table), picard_subset,
                         intermediate_subset, nf, pic.h_maximal,
                         checked, budget)
    _check_monoid_laws(monoid)
    return monoid


def _census_audit(gamma: Order, budget, form_to_class):
    """(ideals checked, class indices hit) of the census up to budget.

    The census walk (modular.quadratic_roots_upto) is streamed unsorted and
    never held whole.  Each census form is divided by its content and
    reduced without its transform (quadforms.reduced); its class is the one
    whose canonical forms hold the reduced form.  Ideals in no class raise
    FactorizationViolation naming the first of them in the order of
    _stable_ideal_pairs: the least key (a, (t + 2b) mod 2a).
    """
    t, n = gamma.omega_data()
    hit, checked, missed = set(), 0, []
    reduced, class_of = quadforms.reduced, form_to_class.get
    walk = quadratic_roots_upto(t, n, budget)
    for a, b, (fa, fb, fc) in _pair_forms(gamma, ((a, b) for a, bs in walk
                                                  for b in bs)):
        checked += 1
        g = gcd(gcd(fa, fb), fc)
        idx = class_of(reduced((fa // g, fb // g, fc // g)))
        if idx is None:
            missed.append((a, (t + 2 * b) % (2 * a), b))
        else:
            hit.add(idx)
    if missed:
        a, _, b = min(missed)
        raise FactorizationViolation(
            f"census ideal [{a}, {b} + w] is in no assembled class",
            operation="class_monoid")
    return checked, hit


def _product_labels(classes, pairs=False):
    """labels[i][j] = label of the class of the product of classes[i] and
    classes[j]: the one place where classes are multiplied pair by pair.
    Ideal products commute, so each unordered pair is multiplied once.

    In a quadratic order two invertible classes are multiplied in form
    space: their labels are primitive forms of the order's discriminant, and
    the label of the product is that of their Dirichlet composition
    (quadforms.compose).  Composition respects the plain class, which for
    real fields joins a form and (-a, b, -c), because (-a, b, -c) is the
    composition of the form with one fixed class.  Any other pair goes by
    _pair_product if ``pairs`` is set, else as lattices: the tests keep
    class_label(ideal_product(...)) for all pairs as the oracle."""
    n = len(classes)
    forms = bool(classes) and classes[0].representative.order.degree == 2
    labels = [[None] * n for _ in range(n)]
    for i, ci in enumerate(classes):
        for j in range(i, n):
            cj = classes[j]
            if forms and ci.invertible and cj.invertible:
                lab = quadforms.class_label(quadforms.compose(ci.label,
                                                              cj.label))
            elif forms and pairs:
                lab = _pair_product(ci.representative.order, ci.pair,
                                    cj.pair)[2]
            else:
                lab = class_label(ideal_product(ci.representative,
                                                cj.representative))
            labels[i][j] = labels[j][i] = lab
    return labels


def _check_monoid_laws(monoid: ClassMonoid):
    """Identity, commutativity, associativity of the multiplication table,
    and the group laws of the Picard subset: closed under products, every
    element with an inverse inside it."""
    n = monoid.size
    t = monoid.table
    for i in range(n):
        if t[0][i] != i or t[i][0] != i:
            raise FactorizationViolation("identity row/column corrupt",
                                         operation="class_monoid")
        for j in range(n):
            if t[i][j] != t[j][i]:
                raise FactorizationViolation("table not commutative",
                                             operation="class_monoid")
            for k in range(n):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    raise FactorizationViolation("table not associative",
                                                 operation="class_monoid")
    pic = set(monoid.picard_subset)
    for idx in monoid.picard_subset:
        products = [t[idx][j] for j in monoid.picard_subset]
        if 0 not in products or not pic.issuperset(products):
            raise FactorizationViolation("picard subset is not a group",
                                         operation="class_monoid")


def verify_monoid_table(monoid: ClassMonoid):
    """Recompute every table entry with _product_labels (forms composed for
    two invertible quadratic classes, else lattice products, independent of
    class_monoid's pair products), then check the monoid and Picard group
    laws on the table; raises FactorizationViolation on any mismatch.

    This is the hook the fault-injection negative control goes through."""
    labels = _product_labels(monoid.classes)
    for i, row in enumerate(labels):
        for j, lab in enumerate(row):
            if monoid.classes[monoid.table[i][j]].label != lab:
                raise FactorizationViolation(
                    f"table entry ({i},{j}) does not match its recomputed "
                    f"product", operation="verify_monoid_table")
    _check_monoid_laws(monoid)
