"""Fractional ideals of an order: arithmetic, classes, Picard group, monoid.

The class monoid C of an order is assembled constructively as
Pic * {classes with a representative between the conductor and the maximal
order}, then audited by a census of stable sublattices.  For a quadratic
order the census (_census) is one walk (modular.quadratic_root_walk): it
counts every ideal up to the census bound, and carries roots for, and
reduces, only those up to amax, the reduced-form range (3a^2 <= |d|, or
a^2 <= d if d > 0), where every class has its ideal of least key.
class_monoid reads Pic, the audit and census_checked off one census;
picard_group reads Pic off a census that stops at amax.  N(f) = f^2 comes
from the integer conductor index f (orders.conductor_index), and the
intermediate classes are read off the subgroups of (Z/f)^2, listed in
integers (intermediate_classes).  Class identity for quadratic orders is
decided through oriented binary quadratic forms (see quadforms);
class_label and is_equivalent raise UnsupportedDegree above degree 2.

class_monoid carries a quadratic class as the pair (a, b) of its
representative [a, b + omega] and multiplies, labels and tests pairs in
integers, composing forms for the Picard block of its table; the lattice
route (enumerate_intermediate_lattices, ideal_product) is their oracle in
the tests and verify_monoid_table.  Each fill of a table has one owner:
class_monoid's reads the pairs and the LabelMap, verify_monoid_table's
shares neither.
Each class_monoid or picard_group call keeps one quadforms.LabelMap, from
canonical form to class: every class's rho-cycles are walked once, and Pic,
the intermediate classes, the products, the audit and h(O_L) all read the
map.  Classes travel as {label: (a, b)} until the monoid is assembled, and a
representative (_standard_ideal) is built for the kept classes only.
Nothing outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from fractions import Fraction
from math import gcd, isqrt
from operator import itemgetter

from . import intmat, quadforms
from .errors import (
    FactorizationViolation,
    IndexTooLarge,
    MethodDisagreement,
    NotFullRank,
    OrderMismatch,
    UnsupportedDegree,
)
from .intmat import Lattice, _det_bareiss
from .modular import factorize, kronecker, quadratic_root_walk
from .numberfield import FieldElement
from .orders import (
    Order,
    _lattice_times_element,
    colon_lattice,
    conductor_index,
    escaping_product,
    least_unit_power,
    maximal_order,
    torsion_order,
)

# The census audits stable sublattices up to index N(f)^2 times this factor.
_CENSUS_BUDGET_FACTOR = 16
# Largest census index, checked before any census starts.
_MAX_CENSUS = 100_000
# Most unordered products |C| (|C| + 1) / 2 of a class monoid's table, checked
# before the fill: |C| <= 999, a table of about 10^6 entries.
_MAX_TABLE = 500_000


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
        return quadforms.disc_of(ideal_form(i)) == i.order.disc()
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

    Quadratic orders are decided exactly: equal canonical forms
    (class_label), then the scaling read off aligned reduced forms.  Orders
    of degree >= 3 raise UnsupportedDegree, as class_label does.
    """
    if i.order != j.order:
        raise OrderMismatch("ideals of different orders",
                            operation="is_equivalent")
    g = i.order.degree
    if g > 2:
        raise UnsupportedDegree("equivalence decided for degree <= 2",
                                operation="is_equivalent")
    if i.lattice == j.lattice:
        return i.order.field.one()
    if g == 1:
        return j.elements()[0] / i.elements()[0]
    if class_label(i) != class_label(j):
        return None
    x = _aligned_element(i, j)
    if x is None:
        raise MethodDisagreement("equal class labels but alignment failed",
                                 operation="is_equivalent")
    return x


# --- class sets ---------------------------------------------------------------


@dataclass(frozen=True)
class IdealClass:
    representative: FractionalIdeal
    invertible: bool
    label: tuple
    pair: tuple = _field(default=None, compare=False)

    def __repr__(self):
        return f"IdealClass(label={self.label}, invertible={self.invertible})"


def _class_of_z(gamma: Order) -> IdealClass:
    """The one ideal class of Z = gamma: every fractional ideal of Z is
    principal."""
    return IdealClass(unit_ideal(gamma), True, (1,))


def _pair_label(gamma: Order, a, b, labels):
    """class_label of the stable lattice [a, b + omega], in integers: its
    oriented form times its content is (a, s*(2b + t), (b^2 + t*b + n) / a),
    with s = -1 for real fields (anti-oriented bases), else 1.  The label
    is read through ``labels``, the caller's quadforms.LabelMap."""
    t, n = gamma.omega_data()
    s = -1 if gamma.field.signature[0] == 2 else 1
    form = (a, s * (2 * b + t), (b * b + t * b + n) // a)
    g = quadforms.content(form)
    return labels.label(tuple(x // g for x in form))


def _pair_class(gamma: Order, a, b, label) -> IdealClass:
    """The class labelled ``label`` represented by [a, b + omega]; invertible
    when the label has the order's discriminant, as in is_invertible."""
    return IdealClass(_standard_ideal(gamma, a, b),
                      quadforms.disc_of(label) == gamma.disc(), label, (a, b))


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


def _pair_product(gamma: Order, p, q, labels):
    """(a, b, label) with [a1, b1 + omega][a2, b2 + omega] in Q*[a, b + omega]
    for p = (a1, b1), q = (a2, b2), read off the product's generators a1*a2,
    a1*(b2 + omega), a2*(b1 + omega), (b1*b2 - n) + (b1 + b2 + t)*omega."""
    t, n = gamma.omega_data()
    (a1, b1), (a2, b2) = p, q
    _, a, b = _pair_of_rows(((a1 * a2, 0), (a1 * b2, a1), (a2 * b1, a2),
                             (b1 * b2 - n, b1 + b2 + t)), t, n)
    return a, b, _pair_label(gamma, a, b, labels)


def intermediate_classes(gamma: Order, maximal: Order | None = None, *,
                         labels=None):
    """The classes with a representative I satisfying f <= I <= O_L.

    For a quadratic order the conductor is f*O_L, N(f) = f^2, with f read
    off the discriminants (conductor_index), and over the HNF rows
    (o00, o01), (0, o11) / D of O_L the lattices between are the subgroups
    (h0, e, h1) of (Z/f)^2: h0, h1 | f and e < h1 a multiple of
    h1 / gcd(f/h0, h1), with rows (h0*o00, (h0*o01 + e*o11) mod h1*o11),
    (0, h1*o11) / D cleared of their gcd with D.  Sorted as
    intmat.enumerate_intermediate_lattices sorts them (the oracle in the
    tests), they are read as pairs by _pair_of_rows, all in integers, and a
    class keeps the pair of its first lattice.  N(f) over intmat._MAX_INDEX
    raises IndexTooLarge before the listing.

    class_monoid passes its LabelMap as ``labels``; the classes then come
    back as {label: (a, b)} in label order, with no representative built.
    Otherwise the call keeps a LabelMap of its own.
    """
    if maximal is None:
        maximal = maximal_order(gamma.field)
    f = conductor_index(gamma, maximal)
    nf = f * f
    _check_budget(f"quotient order {nf}", nf, intmat._MAX_INDEX,
                  "enumerate_intermediate_lattices")
    if gamma.degree == 1:
        return [_class_of_z(gamma)]
    (t, n), (p0, p1, q) = gamma.omega_data(), gamma.omega_coords()
    (o00, o01), (_, o11) = maximal.lattice.basis.entries
    den = maximal.lattice.den
    divisors = [h for h in range(1, f + 1) if f % h == 0]
    lattices = sorted((den // g, x // g, z // g, y // g)
                      for h0 in divisors for h1 in divisors
                      for x, y in [(h0 * o00, h1 * o11)]
                      for e in range(0, h1, h1 // gcd(f // h0, h1))
                      for z in [(h0 * o01 + e * o11) % y]
                      for g in [gcd(den, x, z, y)])
    # (1, omega) rows: p1*(c0 + c1*theta) = (c0*p1 - c1*p0) + c1*q*omega
    rows = (((x * p1 - z * p0, z * q), (-y * p0, y * q))
            for _, x, z, y in lattices)
    as_pairs = labels is not None
    labels = labels if as_pairs else quadforms.LabelMap()
    pairs = {}
    for _, a, b in filter(None, (_pair_of_rows(r, t, n) for r in rows)):
        pairs.setdefault(_pair_label(gamma, a, b, labels), (a, b))
    if len(pairs) > nf ** 2:
        raise FactorizationViolation("intermediate class count exceeded N(f)^g",
                                     operation="intermediate_classes")
    pairs = dict(sorted(pairs.items()))
    if as_pairs:
        return pairs
    return [_pair_class(gamma, a, b, lab) for lab, (a, b) in pairs.items()]


@dataclass(frozen=True)
class PicardGroup:
    classes: tuple
    order: int
    h_formula: int
    h_maximal: int
    conductor_norm: int


def _index_formula(d0: int, f_idx: int, h0: int) -> int:
    """|Pic| of the quadratic order of conductor index f_idx in the maximal
    order of discriminant d0, given h0 = h(O_L), by the classical formula

        h = h0 * prod_{p | f_idx} p^(e_p - 1) (p - (d0/p)) / [O_L^x : Gamma^x]

    At f_idx = 1 the order is O_L: the product is empty and the unit index
    1, so h = h0 with no unit computed.
    """
    if f_idx == 1:
        return h0
    num = h0
    for p, e in factorize(f_idx).items():
        num *= p ** (e - 1) * (p - kronecker(d0, p))
    # [O_L^x : Gamma^x]: imaginary, the roots of unity of O_L over those of
    # Gamma
    if d0 < 0:
        u_idx = torsion_order(d0) // torsion_order(d0 * f_idx * f_idx)
    else:
        u_idx = least_unit_power(d0, f_idx)[0]
    if num % u_idx:
        raise MethodDisagreement("index formula gave a non-integer",
                                 operation="_index_formula")
    return num // u_idx


def picard_group(gamma: Order) -> PicardGroup:
    """Pic(Gamma) computed two ways and cross-checked: (a) the classes of
    the census (_census) up to the reduced-form norm bound isqrt(|disc|) + 1,
    read off by _picard_pairs, after IndexTooLarge for a bound over
    _MAX_CENSUS (the census walks and reduces only its ideals up to amax,
    isqrt(|disc| // 3) if definite, isqrt(disc) if not, and counts no
    further); (b) the index formula relating |Pic(Gamma)| to h(O_L), also
    reported as h_maximal, with the conductor index f from
    conductor_index and N(f) = f^2.
    A mismatch is an implementation bug, reported as MethodDisagreement.
    class_monoid reads Pic off its own, longer census and checks the group
    laws on its multiplication table.
    """
    if gamma.degree == 1:
        return PicardGroup((_class_of_z(gamma),), 1, 1, 1, 1)
    if gamma.degree != 2:
        raise UnsupportedDegree("picard_group implemented for degree <= 2",
                                operation="picard_group")
    d = gamma.disc()
    bound = isqrt(abs(d)) + 1
    _check_budget(f"census up to index {bound}", bound, _MAX_CENSUS,
                  "picard_group")
    om = maximal_order(gamma.field)
    f = conductor_index(gamma, om)
    # the census forms are those of its ideals up to amax: no count needed
    forms, _ = _census(gamma, min(bound, _census_amax(d)))
    pairs, h0 = _picard_pairs(gamma, om.disc(), f, forms,
                              quadforms.LabelMap())
    classes = tuple(_pair_class(gamma, a, b, lab)
                    for lab, (a, b) in pairs.items())
    return PicardGroup(classes, len(classes), len(classes), h0, f * f)


def _picard_pairs(gamma: Order, d0, f_idx, forms, labels):
    """({label: (a, b)} in label order, h0 = h(O_L)): Pic(Gamma) read off
    the forms of a census (_census) up to at least isqrt(|disc|) + 1,
    checked against the index formula.  The forms of the order's
    discriminant are those of the invertible ideals (content 1, see
    is_invertible); a class is the set of its canonical forms (``labels``),
    labelled by the least, and represented by its first ideal in the sorted
    census, the least key among its forms."""
    d = gamma.disc()
    pairs = {}
    for form in forms:
        if quadforms.disc_of(form) != d:
            continue
        lab, cls = labels[form]
        if lab not in pairs:
            a, _, b = min(forms[f] for f in cls if f in forms)
            pairs[lab] = a, b
    h0 = quadforms.form_class_count(d0, labels)
    h_formula = _index_formula(d0, f_idx, h0)
    if len(pairs) != h_formula:
        raise MethodDisagreement(
            f"picard enumeration found {len(pairs)} classes, formula "
            f"says {h_formula}", operation="picard_group")
    return dict(sorted(pairs.items())), h0


def _check_budget(what, consumed, limit, operation):
    """IndexTooLarge "<what> exceeds budget <limit>" if consumed > limit."""
    if consumed > limit:
        raise IndexTooLarge(f"{what} exceeds budget {limit}",
                            operation=operation, limit=limit,
                            consumed=consumed)


def _standard_ideal(gamma: Order, a: int, b: int) -> FractionalIdeal:
    """The stable lattice Z*a + Z*(b + omega) as a fractional ideal, from
    the integer rows (x0, 0), (x1, p1) = (a*q, 0), (b*q + p0, p1) over q,
    omega = (p0, p1) / q, in HNF in closed form: for g = gcd(x0, x1) =
    u*x0 + v*x1, the rows (g, v*p1 mod y), (0, y) with y = x0*p1 / g.  No
    prime c | q divides them all: else b + omega, and with it the order
    Z + Z*omega, would lie in (c/q)*Z^2, below the order's own
    denominator q."""
    p0, p1, q = gamma.omega_coords()
    x0 = a * q
    g, _, v = quadforms._xgcd(x0, b * q + p0)
    y = x0 * p1 // g
    return FractionalIdeal(gamma, Lattice._from_hnf(2, ((g, v * p1 % y),
                                                        (0, y)), q),
                           check=False)


def _census_amax(d):
    """amax, the top of the reduced-form range of discriminant d:
    isqrt(-d // 3) if d < 0, isqrt(d) if d > 0 (see _census)."""
    return isqrt(-d // 3) if d < 0 else isqrt(d)


def _census(gamma: Order, bound):
    """({reduced form: least key} of the census up to bound, the number of
    ideals in it).

    The census is every primitive stable sublattice [a, b + omega], a <=
    bound, that is every root b of N(b + omega) mod a.  One walk,
    modular.quadratic_root_walk, streams the roots of the moduli up to
    min(amax, bound), never held whole, and counts the roots of every
    modulus up to bound.  For a root b of a modulus a, the form
    (a, s*(2b + t), N(b + omega)/a) of _pair_label goes as bare integers
    through the reduction kernel of the order's signature; all census forms
    share the discriminant t^2 - 4n, and reduction commutes with scaling,
    so the content is divided out of the reduced form at the end.

    The forms need only the ideals up to amax = isqrt(-d // 3) if d < 0,
    isqrt(d) if d > 0 (_census_amax): a class of forms of discriminant
    d/g^2 has a reduced form (A, B, C), 0 < A <= amax / g (3A^2 <= |d|/g^2
    if definite; if not, |A| < sqrt(d)/g, AC < 0 and a rho step moves C to
    the front), and g*(A, B, C) is a translate of the form of the census
    ideal [g*A, b + omega], b = (s*g*B - t)/2 mod g*A.  Keys sort by index
    first, so every class has its least key up to amax, and only the
    moduli a <= min(amax, bound) carry roots and are reduced: on Z[6i] 7
    kernel calls for 24,754 ideals, 823 for the 152,921 of the 183
    verify-corpus orders.

    The roots of a come in pairs b, b' = (-t - b) mod a, and 2b' + t =
    -(2b + t) mod 2a: the form of [a, b' + omega] is a translate of the
    opposite (a, -B, C) of the form (a, B, C) of [a, b + omega], so it lies
    in the opposite class, whose reduced form quadforms reads off b's
    (_opposite_definite, _opposite_indefinite; an indefinite one need only
    lie on the class's rho-cycle, which the canonical forms hold whole).  So
    the kernel runs once per pair, for the lesser root, and once for b = b'.

    Each distinct reduced primitive form is kept once, with the least key
    (a, (t + 2b) mod 2a, b) of its reduced ideals, the order of the sorted
    census (a ascending, then the least root y of y^2 = disc mod 4a giving
    b).  A definite class has one reduced form, so its entry is the same as
    from a census that reduced every ideal.  An indefinite class may lose a
    cycle form that only an ideal above amax reduced to, but not its least
    key.  Nothing is kept per ideal: a memo on (a, b) would grow by an entry
    per ideal.
    """
    t, n = gamma.omega_data()
    d = gamma.disc()
    if d < 0:
        kernel = quadforms._reduce_definite
        opposite = quadforms._opposite_definite
        s, root = 1, 0
    else:  # real fields orient [a, b + omega] the other way
        kernel = quadforms._reduce_indefinite
        opposite = quadforms._opposite_indefinite
        s, root = -1, isqrt(d)
    forms = {}
    after = (bound + 1,)  # every key sorts before after
    walk = quadratic_root_walk(t, n, min(_census_amax(d), bound), bound)
    while True:
        try:
            a, bs = next(walk)
        except StopIteration as done:  # the walk returns its count
            return forms, done.value
        two_a = 2 * a
        for b in bs:
            b2 = (-t - b) % a
            if b2 < b:  # met with its partner b2
                continue
            fa, fb, fc = kernel(a, s * (2 * b + t), (b * (b + t) + n) // a,
                                d, root)
            g = gcd(fa, fb, fc)
            if g > 1:
                fa, fb, fc = fa // g, fb // g, fc // g
            key = a, (t + 2 * b) % two_a, b
            if key < forms.get((fa, fb, fc), after):
                forms[fa, fb, fc] = key
            if b2 != b:
                form = opposite(fa, fb, fc)
                key = a, (t + 2 * b2) % two_a, b2
                if key < forms.get(form, after):
                    forms[form] = key


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

    Classes carry the pairs (a, b) of their representatives [a, b + omega].
    The table has two fills, each with one owner.  class_monoid fills its
    own: the Picard block from one composed row per generator of Pic
    (_picard_rows), every other unordered pair once as pairs
    (_pair_product).  verify_monoid_table owns the independent fill, every
    Picard pair composed and every other pair multiplied as lattices, and
    is the oracle of this one.  A product outside the assembled classes is a
    FactorizationViolation; the monoid laws and the group laws of the Picard
    subset are checked on the table.  P times the order itself is P.
    N(f) = f^2 comes from the conductor index f (conductor_index, read off
    the two discriminants).  The census covers every primitive stable
    sublattice of index up to the budget max(N(f)^2 * 16, isqrt(|disc|) +
    1), in one walk of _census: it counts them all for census_checked, and
    carries roots for, and reduces, only those up to the reduced-form range
    amax (isqrt(|disc| // 3) if definite, isqrt(disc) if not), where every
    class has its ideal of least key.  Pic is read off its forms
    (_picard_pairs), the intermediate classes off the subgroups of (Z/f)^2
    in integers (intermediate_classes), and the audit verifies that each
    distinct form lands in an assembled class (else naming the form's first
    ideal) and that every assembled class is hit: the executable form of the
    product decomposition, with FactorizationViolation as the fatal signal.  An
    index N(f) above intmat._MAX_INDEX, or a census index above
    _MAX_CENSUS, raises IndexTooLarge before any class is built; so does a
    table of more than _MAX_TABLE products, once the classes are counted.

    One LabelMap serves the whole call, so each class is walked by
    quadforms.class_forms once; Pic and the intermediate classes come back
    as {label: (a, b)}, products are kept as pairs, and a representative is
    built only for each class of the monoid, in its final order.
    """
    if gamma.degree == 1:
        return ClassMonoid(gamma, (_class_of_z(gamma),), ((0,),), (0,), (0,),
                           1, 1, 1, 1)
    if gamma.degree != 2:
        raise UnsupportedDegree("class_monoid implemented for degree <= 2",
                                operation="class_monoid")
    om = maximal_order(gamma.field)
    f = conductor_index(gamma, om)
    nf = f * f
    # N(f) = [O_L : f] is the quotient that intermediate_classes enumerates;
    # every class has a reduced form whose a is at most isqrt(|disc|)
    _check_budget(f"quotient order {nf}", nf, intmat._MAX_INDEX,
                  "class_monoid")
    budget = max(nf * nf * _CENSUS_BUDGET_FACTOR, isqrt(abs(gamma.disc())) + 1)
    _check_budget(f"census up to index {budget}", budget, _MAX_CENSUS,
                  "class_monoid")
    labels = quadforms.LabelMap()
    forms, checked = _census(gamma, budget)
    pic, h0 = _picard_pairs(gamma, om.disc(), f, forms, labels)
    inter = intermediate_classes(gamma, om, labels=labels)

    assembled = {}  # label -> pair of its representative
    identity_label = _pair_label(gamma, 1, 0, labels)
    for p_label, p in pic.items():
        for i in inter.values():
            if i == (1, 0):
                # P * Gamma = P: the Picard class itself
                assembled.setdefault(p_label, p)
                continue
            a, b, lab = _pair_product(gamma, p, i, labels)
            assembled.setdefault(lab, (a, b))
    n = len(assembled)
    products = n * (n + 1) // 2
    _check_budget(f"table of {n} classes with {products} products", products,
                  _MAX_TABLE, "class_monoid")
    # identity first, rest ordered by label; a representative is built for
    # the kept classes only
    rest = sorted((lab for lab in assembled if lab != identity_label))
    ordering = [identity_label] + rest
    classes = tuple(_pair_class(gamma, *assembled[lab], lab)
                    for lab in ordering)
    index_of = {lab: i for i, lab in enumerate(ordering)}
    picard_subset = tuple(i for i, c in enumerate(classes) if c.invertible)

    # multiplication table of class indices, each unordered pair multiplied
    # once (products commute); any product escaping the set is a violation
    out = [[None] * n for _ in range(n)]
    _picard_rows(classes, picard_subset, labels, out)
    for i, ci in enumerate(classes):
        out_i = out[i]
        for j in range(i, n):
            if out_i[j] is None:
                k = index_of.get(_pair_product(gamma, ci.pair,
                                               classes[j].pair, labels)[2])
                if k is None:
                    raise FactorizationViolation(
                        "product of classes left the assembled monoid",
                        operation="class_monoid")
                out_i[j] = out[j][i] = k
    table = tuple(map(tuple, out))

    intermediate_subset = tuple(i for i, lab in enumerate(ordering)
                                if lab in inter)

    # census audit: each distinct census form in an assembled class
    form_to_class = {}
    for idx, lab in enumerate(ordering):
        for form in labels[lab][1]:
            prev = form_to_class.setdefault(form, idx)
            if prev != idx:
                raise MethodDisagreement(
                    "two distinct classes share a canonical form",
                    operation="class_monoid")
    missed = [key for f, key in forms.items() if f not in form_to_class]
    if missed:
        a, _, b = min(missed)
        raise FactorizationViolation(
            f"census ideal [{a}, {b} + w] is in no assembled class",
            operation="class_monoid")
    missing = sorted(set(range(len(classes)))
                     - {form_to_class[f] for f in forms})
    if missing:
        raise FactorizationViolation(
            f"assembled classes {missing} were never found by the census",
            operation="class_monoid")

    monoid = ClassMonoid(gamma, classes, table, picard_subset,
                         intermediate_subset, nf, h0, checked, budget)
    _check_monoid_laws(monoid)
    return monoid


def _picard_rows(classes, picard_subset, labels, out):
    """Fill out[x][y] with the index of the class of x * y, for the
    invertible classes x, y of a quadratic order (picard_subset, led by the
    identity class 0), from one composed row per generator of Pic; a
    composed label outside Pic is a FactorizationViolation.  Rows are kept
    as positions in picard_subset and written as class indices, with no
    label looked up per entry.

    Two invertible classes are multiplied in form space: their labels are
    primitive forms of the order's discriminant, and the label of the
    product is that of their Dirichlet composition (quadforms.compose),
    read through the LabelMap ``labels``.  Composition respects the plain
    class, which for real fields joins a form and (-a, b, -c), because
    (-a, b, -c) is the composition of the form with one fixed class.

    The identity's row is known.  Generators are picked greedily, each
    outside the closure of those picked so far (as in _check_monoid_laws).
    The row of g is composed, g * c for every class c of Pic; the row of
    x = g * y follows from x * c = g * (y * c), and the finite group is the
    closure of its generators under left multiplication: |G| |P|
    compositions instead of |P| (|P| + 1) / 2."""
    pic_labels = [classes[i].label for i in picard_subset]
    where = {lab: k for k, lab in enumerate(pic_labels)}
    # position in picard_subset -> positions of its products with Pic
    rows = {0: list(range(len(pic_labels)))}
    gens = []
    for k, lab in enumerate(pic_labels):
        if k in rows:
            continue
        row = [where.get(labels.label(quadforms.compose(lab, c)))
               for c in pic_labels]
        if None in row:
            raise FactorizationViolation(
                "product of classes left the assembled monoid",
                operation="class_monoid")
        rows[k] = row
        gens.append(row)
        todo = [k]
        while todo:
            y = todo.pop()
            row_y = rows[y]
            for row_g in gens:
                x = row_g[y]
                if x not in rows:
                    rows[x] = [row_g[v] for v in row_y]
                    todo.append(x)
    for k, i in enumerate(picard_subset):
        out_i = out[i]
        for j, pos in zip(picard_subset, rows[k]):
            out_i[j] = picard_subset[pos]


def _check_monoid_laws(monoid: ClassMonoid):
    """Identity, commutativity, associativity of the multiplication table,
    and the group laws of the Picard subset: closed under products, every
    element with an inverse inside it.

    Associativity goes by Light's test (Clifford & Preston I, 1.2): check
    (x g) y = x (g y) for all x, y and each g of a generating set, built
    greedily from the classes outside the closure of those chosen so far.
    The g passing it form a closed set, so the table is associative iff the
    generators pass: n^2 |G| lookups instead of n^3."""
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
    closure = {0}
    for g in range(n):
        if g in closure:
            continue
        # row x read through row g; g > 0, so n > 1 and it reads a tuple
        row_through_g = itemgetter(*t[g])
        for tx in t:
            if t[tx[g]] != row_through_g(tx):
                raise FactorizationViolation("table not associative",
                                             operation="class_monoid")
        todo = [g]
        while todo:
            a = todo.pop()
            if a not in closure:
                closure.add(a)
                todo.extend(t[a][b] for b in closure)
    pic = set(monoid.picard_subset)
    for idx in monoid.picard_subset:
        products = [t[idx][j] for j in monoid.picard_subset]
        if 0 not in products or not pic.issuperset(products):
            raise FactorizationViolation("picard subset is not a group",
                                         operation="class_monoid")


def verify_monoid_table(monoid: ClassMonoid):
    """Recompute every table entry independently of class_monoid's fill,
    then check the monoid and Picard group laws on the table; raises
    FactorizationViolation on any mismatch.

    Two invertible classes of a quadratic order are multiplied by composing
    their labels (quadforms.compose, labelled by quadforms.class_label), any
    other pair as lattices (class_label of ideal_product), with no LabelMap
    and no pair arithmetic.  Each unordered pair is computed once, and the
    entries are checked in row-major order.

    This is the hook the fault-injection negative control goes through."""
    classes, table = monoid.classes, monoid.table
    forms = classes[0].representative.order.degree == 2
    found = []  # found[i][j]: recomputed label of classes[i] * classes[j]
    for i, ci in enumerate(classes):
        row = []
        found.append(row)
        for j, cj in enumerate(classes):
            if j < i:
                lab = found[j][i]
            elif forms and ci.invertible and cj.invertible:
                lab = quadforms.class_label(
                    quadforms.compose(ci.label, cj.label))
            else:
                lab = class_label(ideal_product(ci.representative,
                                                cj.representative))
            row.append(lab)
            if classes[table[i][j]].label != lab:
                raise FactorizationViolation(
                    f"table entry ({i},{j}) does not match its recomputed "
                    f"product", operation="verify_monoid_table")
    _check_monoid_laws(monoid)
