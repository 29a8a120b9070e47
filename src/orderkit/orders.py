"""Orders in number fields: validation, conductors, scaled subrings, units.

An order is stored as a full-rank lattice of power-basis coordinates that
contains 1 and is closed under multiplication; all three conditions are
verified constructively at build time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from . import quadforms
from .errors import (
    MethodDisagreement,
    NeedsUserInput,
    NotClosed,
    NotContained,
    NotFullRank,
    NotUnital,
    UnsupportedDegree,
)
from .intmat import Lattice, lattice_index
from .numberfield import FieldElement, NumberField, squarefree_part


def _derived(compute):
    """Decorate the computation of a derived datum of an Order: the datum is
    computed on first use and kept in the order's one store (``_kept``,
    under compute's name), which the immutability of the order makes safe.
    A datum relative to a maximal order, compute(order, maximal), is kept
    with that order object and read back for the same object only: the key
    is identity, as maximal_order(field) returns one object per field."""
    name = compute.__name__

    @functools.wraps(compute)
    def read(order, maximal=None):
        kept = order._kept.get(name)
        if kept is not None and kept[0] is maximal:
            return kept[1]
        value = compute(order) if maximal is None else compute(order, maximal)
        order._kept[name] = (maximal, value)
        return value

    return read


class Order:
    """A unital, multiplicatively closed, full-rank lattice in a number field."""

    __slots__ = ("field", "lattice", "_kept")

    def __init__(self, field: NumberField, lattice: Lattice):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "_kept", {})  # derived data, see _derived

    def __setattr__(self, name, value):
        raise AttributeError("Order is immutable")

    def __eq__(self, other):
        return (isinstance(other, Order) and self.field == other.field
                and self.lattice == other.lattice)

    def __hash__(self):
        return hash((self.field, self.lattice))

    def __repr__(self):
        return f"Order(field={list(self.field.coeffs)}, lattice={self.lattice!r})"

    @property
    def degree(self):
        return self.field.degree

    @_derived
    def basis_elements(self):
        return tuple(self.field.element(row) for row in self.lattice.rows_q())

    def contains(self, e: FieldElement) -> bool:
        return self.lattice.contains(e.coords)

    def contains_order(self, other: "Order") -> bool:
        return self.lattice.contains_lattice(other.lattice)

    @_derived
    def disc(self) -> int:
        """Discriminant: determinant of the trace pairing on a basis."""
        if self.degree == 2:  # the disc of the basis (1, omega)
            t, n = self.omega_data()
            return t * t - 4 * n
        from .intmat import _det_bareiss
        basis = self.basis_elements()
        g = self.degree
        rows = [[(basis[i] * basis[j]).trace() for j in range(g)] for i in range(g)]
        den = 1
        for r in rows:
            for x in r:
                den = den * x.denominator // gcd(den, x.denominator)
        d = Fraction(_det_bareiss([[int(x * den) for x in r] for r in rows]),
                     den ** g)
        if d.denominator != 1:
            raise MethodDisagreement("order discriminant is not an integer",
                                     operation="disc")
        return int(d)

    @_derived
    def unital_basis_elements(self):
        """A basis starting with 1: complete the coordinate row of 1 to a
        unimodular transform of the stored HNF basis."""
        from .intmat import complete_unimodular, coords_in
        one_lat = Lattice.from_rows([list(self.field.one().coords)],
                                    self.degree)
        c = coords_in(self.lattice, one_lat).row(0)
        u = complete_unimodular(c)
        rows = self.lattice.rows_q()
        g = self.degree
        out = []
        for i in range(g):
            coords = [sum(Fraction(u[i, k]) * rows[k][j] for k in range(g))
                      for j in range(g)]
            out.append(self.field.element(coords))
        if out[0] != self.field.one():
            raise MethodDisagreement("unital basis does not start with 1",
                                     operation="unital_basis_elements")
        return tuple(out)

    @_derived
    def structure_constants(self):
        """c[i][j], the integer coordinates of b_i * b_j in the unital basis
        b (unital_basis_elements).

        A quadratic order has b = (1, u) with u = k + e*omega, e = +-1, so
        u^2 = Tr(u)*u - N(u) with Tr(u) = 2k + e*t and N(u) = k^2 + e*k*t + n,
        read off omega_data (omega^2 = t*omega - n).  Other degrees solve
        for all the products at once."""
        basis = self.unital_basis_elements()
        g = self.degree
        if g == 2:
            p0, p1, q = self.omega_coords()
            t, n = self.omega_data()
            u0, u1 = basis[1].coords
            e = u1 * q / p1
            k = u0 - e * Fraction(p0, q)
            if abs(e) != 1 or k.denominator != 1:
                raise MethodDisagreement("unital basis is not (1, k +- omega)",
                                         operation="structure_constants")
            e, k = int(e), int(k)
            square = (-(k * k + e * k * t + n), 2 * k + e * t)
            return (((1, 0), (0, 1)), ((0, 1), square))
        from .intmat import solve_square
        sol = solve_square([b.coords for b in basis],
                           [(a * b).coords for a in basis for b in basis])
        if sol is None or any(c.denominator != 1 for r in sol for c in r):
            raise MethodDisagreement(
                "product of basis elements has non-integral unital "
                "coordinates", operation="structure_constants")
        return tuple(tuple(tuple(int(c) for c in sol[i * g + j])
                           for j in range(g)) for i in range(g))

    @_derived
    def omega(self) -> FieldElement:
        """Canonical second generator of a quadratic order: Gamma = Z + Z*omega,
        normalized so the generator coordinate is positive and the rational
        part lies in [0, 1); built from omega_coords."""
        p0, p1, q = self.omega_coords()
        return self.field.element([Fraction(p0, q), Fraction(p1, q)])

    @_derived
    def omega_coords(self):
        """(p0, p1, q) with omega = (p0 + p1*theta) / q, read off the HNF
        rows (x0, x1), (0, y1) over q: for g = gcd(x1, y1) = u*x1 + v*y1,
        omega is (u*x0 mod q, g) / q, as 1 = (q, 0) / q lies in the order."""
        if self.degree != 2:
            raise UnsupportedDegree("quadratic orders only", operation="omega")
        (x0, x1), (_, y1) = self.lattice.basis.entries
        q = self.lattice.den
        g, u, _ = quadforms._xgcd(x1, y1)
        return (u * x0 % q, g, q)

    @_derived
    def omega_data(self):
        """(trace, norm) of omega of a quadratic order, from omega_coords."""
        p0, p1, q = self.omega_coords()
        b0, b1, _ = self.field.coeffs
        t, rt = divmod(2 * p0 - b1 * p1, q)
        n, rn = divmod(p0 * p0 - b1 * p0 * p1 + b0 * p1 * p1, q * q)
        if rt or rn:
            raise MethodDisagreement("omega is not integral",
                                     operation="omega_data")
        return (t, n)


def is_order(field: NumberField, basis_rows, den=1) -> Order:
    """Validate a candidate basis and return the Order it spans.

    Raises NotFullRank / NotUnital / NotClosed, naming the violated axiom.
    """
    lat = _as_lattice(field, basis_rows, den)
    if lat.rank != field.degree:
        raise NotFullRank(
            f"basis spans rank {lat.rank}, need {field.degree}",
            operation="is_order")
    if not lat.contains(field.one().coords):
        raise NotUnital("1 is not in the lattice", operation="is_order")
    # Products commute, so the first escaping pair (a, b) has a listed
    # no later than b: the same pair a triangular scan would report.
    elems = [field.element(r) for r in lat.rows_q()]
    escape = escaping_product(elems, lat, field)
    if escape is not None:
        a, b = escape
        raise NotClosed(
            f"product of basis elements {_coords_text(a)} and "
            f"{_coords_text(b)} leaves the lattice",
            operation="is_order")
    return Order(field, lat)


def _coords_text(e: FieldElement):
    """The coordinates of e as a list of rationals, "[1/2, 0]"."""
    return "[" + ", ".join(map(str, e.coords)) + "]"


def escaping_product(multipliers, lat: Lattice, field: NumberField):
    """The first pair (g, e), g in ``multipliers`` and e a basis element of
    ``lat``, whose product g * e leaves ``lat``; None when ``lat`` is stable
    under multiplication by every multiplier."""
    elems = [field.element(r) for r in lat.rows_q()]
    for g in multipliers:
        for e in elems:
            if not lat.contains((g * e).coords):
                return g, e
    return None


def _as_lattice(field, basis_rows, den=1):
    if isinstance(basis_rows, Lattice):
        return basis_rows
    rows = [[Fraction(x, den) if not isinstance(x, Fraction) else x / den
             for x in row] for row in basis_rows]
    return Lattice.from_rows(rows, field.degree)


def maximal_order(field: NumberField, candidate=None) -> Order:
    """The ring of integers for degree <= 2; verified candidate otherwise.

    For degree <= 2 the order is built once per field object and kept on
    it, so every call on the same field returns the same Order, with the
    data it has computed (basis elements, discriminant, omega); an equal
    field made apart gets its own.
    """
    g = field.degree
    if g <= 2:
        om = field._maximal_order
        if om is None:
            om = _ring_of_integers(field)
            object.__setattr__(field, "_maximal_order", om)
        return om
    if candidate is None:
        raise NeedsUserInput(
            "maximal orders of degree >= 3 fields must be supplied and are "
            "only verified, not computed", operation="maximal_order")
    cand = candidate if isinstance(candidate, Order) else is_order(field, candidate)
    # Z[theta] must sit inside any maximal order with index^2 dividing poly_disc.
    power_lat = Lattice.from_rows(
        [[1 if i == j else 0 for j in range(g)] for i in range(g)], g)
    if not cand.lattice.contains_lattice(power_lat):
        raise NotContained("candidate does not contain Z[theta]",
                           operation="maximal_order")
    idx = lattice_index(cand.lattice, power_lat)
    if field.poly_disc % (idx * idx):
        raise NeedsUserInput(
            "candidate index inconsistent with the polynomial discriminant",
            operation="maximal_order")
    d = field.poly_disc // (idx * idx)
    if d % 4 not in (0, 1):
        raise NeedsUserInput(
            "candidate discriminant is not 0 or 1 mod 4",
            operation="maximal_order")
    return cand


def _ring_of_integers(field: NumberField) -> Order:
    if field.degree == 1:
        return Order(field, Lattice.from_rows([[1]], 1))
    b1, b0 = field.coeffs[1], field.coeffs[0]
    dp = b1 * b1 - 4 * b0
    m, s = squarefree_part(dp)
    # sqrt(m) = (2*theta + b1) / s in power-basis coordinates
    sqrt_m = (Fraction(b1, s), Fraction(2, s))
    if m % 4 == 1:
        w = (Fraction(1, 2) + Fraction(sqrt_m[0], 2), Fraction(sqrt_m[1], 2))
    else:
        w = sqrt_m
    return Order(field, Lattice.from_rows([[1, 0], list(w)], 2))


@dataclass(frozen=True)
class ConductorData:
    """Conductor ideal of an order, as a lattice, with its norm N(f)."""

    lattice: Lattice
    norm: int


@_derived
def conductor_index(gamma: Order, maximal: Order) -> int:
    """f with Gamma = Z + f*O_L, for an order Gamma of degree <= 2 inside
    O_L = ``maximal``, in integers: f = isqrt(disc Gamma / disc O_L)
    (Cohen, GTM 138, 5.2), so N(f) = f^2.  Orders of one quadratic field
    are Z + f*O_L and Z + g*O_L, with discriminant ratio (f/g)^2, and the
    first lies in the second iff g | f, that is iff the ratio is the square
    of an integer (Q has the one order Z, ratio 1): so NotContained is
    raised, as conductor raises it, when the two lie in different fields or
    the ratio is no integer square.  Kept on gamma with ``maximal`` (see
    _derived), so class_monoid and the intermediate_classes it calls read
    one f."""
    if gamma.field != maximal.field:
        raise NotContained("orders of different fields", operation="conductor")
    if gamma.degree > 2:
        raise UnsupportedDegree("conductor index for degree <= 2 only",
                                operation="conductor")
    f2, r = divmod(gamma.disc(), maximal.disc())
    f = isqrt(f2) if f2 > 0 else 0
    if r or f * f != f2:
        raise NotContained("order is not contained in the maximal order",
                           operation="conductor")
    return f


@_derived
def conductor(gamma: Order, maximal: Order) -> ConductorData:
    """{x in O_L : x*O_L <= Gamma}: f*O_L for a quadratic order Gamma =
    Z + f*O_L, f from conductor_index, and else by lattice intersections
    (colon_lattice).  Kept on gamma with ``maximal``, as conductor_index
    is.  Callers that need only N(f) of a quadratic order (class_monoid,
    picard_group, intermediate_classes, count_structures) read f off
    conductor_index instead."""
    if gamma.degree == 2:
        f = conductor_index(gamma, maximal)
        return ConductorData(
            maximal.lattice if f == 1 else maximal.lattice.scale(f), f * f)
    if gamma.field != maximal.field:
        raise NotContained("orders of different fields",
                           operation="conductor")
    if not maximal.contains_order(gamma):
        raise NotContained("order is not contained in the maximal order",
                           operation="conductor")
    lat = colon_lattice(gamma.lattice, maximal.basis_elements(),
                        gamma.field)
    return ConductorData(lat, lattice_index(maximal.lattice, lat))


def colon_lattice(lat: Lattice, elements, field) -> Lattice:
    """{x : x*e in lat for every e in ``elements``}: the intersection of the
    preimages of ``lat`` under multiplication by each (nonzero) element."""
    out = None
    for e in elements:
        pre = _lattice_times_element(lat, e.inverse(), field)
        out = pre if out is None else out.intersect(pre)
    return out


def _lattice_times_element(lat: Lattice, e: FieldElement, field) -> Lattice:
    rows = []
    for r in lat.rows_q():
        rows.append(list((field.element(r) * e).coords))
    return Lattice.from_rows(rows, field.degree)


def scaled_subring(gamma: Order, d: int) -> Order:
    """Z[d*Gamma]: the smallest unital closed lattice containing d*Gamma."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    field = gamma.field
    one_row = [Fraction(x) for x in field.one().coords]
    cur = Lattice.from_rows([one_row], field.degree).sum(gamma.lattice.scale(d))
    while True:
        elems = [field.element(r) for r in cur.rows_q()]
        rows = [list(r) for r in cur.rows_q()]
        for i, a in enumerate(elems):
            for b in elems[i:]:
                rows.append(list((a * b).coords))
        nxt = Lattice.from_rows(rows, field.degree)
        if nxt == cur:
            return Order(field, cur)
        cur = nxt


@dataclass(frozen=True)
class ConductorComparison:
    """Report for the conductor comparison f' of Z[d*Gamma] versus f of Gamma."""

    d: int
    norm_f: int
    norm_f_prime: int
    scaling_contained: bool   # d*f <= f'
    norm_bound_holds: bool    # N(f') <= d^g N(f)

    @property
    def ok(self):
        return self.scaling_contained and self.norm_bound_holds


def conductor_comparison_check(gamma: Order, d: int) -> ConductorComparison:
    maximal = maximal_order(gamma.field)
    g = gamma.field.degree
    f = conductor(gamma, maximal)
    gp = scaled_subring(gamma, d)
    fp = conductor(gp, maximal)
    contained = fp.lattice.contains_lattice(f.lattice.scale(d))
    bound = fp.norm <= d ** g * f.norm
    return ConductorComparison(d, f.norm, fp.norm, contained, bound)


# Powers of the maximal order's unit tried per unit of [O_L : Gamma].
_POWER_BUDGET_FACTOR = 6


@dataclass(frozen=True)
class UnitGroupData:
    """Unit-group summary for degree <= 2 orders."""

    torsion_order: int
    fundamental_unit: FieldElement | None
    square_class_count: int


def torsion_order(disc: int) -> int:
    """The number of roots of unity in the imaginary quadratic order of
    discriminant disc: 6 at -3, 4 at -4, else 2 (Cohen, GTM 138, 5.3), the
    count torsion_units enumerates."""
    return {-3: 6, -4: 4}.get(disc, 2)


def torsion_units(gamma: Order):
    """All roots of unity in a degree-1 or imaginary quadratic order."""
    field = gamma.field
    if field.degree == 1:
        return [field.one(), -field.one()]
    w = gamma.omega()
    t, n = gamma.omega_data()
    dd = 4 * n - t * t  # positive iff imaginary
    if dd <= 0:
        raise UnsupportedDegree("torsion enumeration needs an imaginary field",
                                operation="torsion_units")
    out = []
    vmax = isqrt(4 // dd) if dd <= 4 else 0
    for v in range(-vmax, vmax + 1):
        rem = 4 - dd * v * v
        if rem < 0:
            continue
        s = isqrt(rem)
        if s * s != rem:
            continue
        for su in (s, -s):
            u2 = su - t * v
            if u2 % 2:
                continue
            u = u2 // 2
            e = gamma.field.from_rational(u) + w * v
            if e.norm() == 1 and e not in out:
                out.append(e)
    return out


def least_unit_power(d0: int, f: int):
    """(k, t_k, u_k) for the least k >= 1 with f | u_k, where
    eps^k = (t_k + u_k*sqrt(d0)) / 2 and eps is the fundamental unit of the
    real quadratic maximal order of discriminant d0.  So eps^k is the least
    power in Z + f*O_L, and k = [O_L^x : (Z + f*O_L)^x]; at most 6f powers
    are tried."""
    t, u = quadforms.fundamental_unit_xy(d0)
    tk, uk = t, u
    limit = f * _POWER_BUDGET_FACTOR
    for k in range(1, limit + 1):
        if uk % f == 0:
            return k, tk, uk
        tk, uk = (tk * t + d0 * uk * u) // 2, (tk * u + uk * t) // 2
    raise MethodDisagreement("no power of the fundamental unit fell in the "
                             "order within budget; this contradicts finite "
                             "index", operation="fundamental_unit",
                             limit=limit, consumed=limit)


def fundamental_unit(gamma: Order) -> FieldElement:
    """Fundamental unit of a real quadratic order, > 1 in the first embedding.

    The unit of the maximal order comes from the continued-fraction cycle of
    the principal form; for Gamma = Z + f*O_L, its least power in Gamma,
    eps = (t + u*sqrt(d0)) / 2 (least_unit_power).  Its two coordinates are
    read off in integers: sqrt(d0) = 2*w0 - Tr(w0) for w0 = (p0 + p1*theta)
    / q the canonical generator of O_L (omega_coords), so
    eps = ((t - u*Tr(w0))*q + 2*u*p0) / (2q) + (u*p1 / q)*theta, and
    N(eps) = (t^2 - d0*u^2) / 4 must be +-1.  The first embedding is the one
    sending w0 to the larger root, so eps > 1.
    """
    field = gamma.field
    if field.degree != 2 or field.signature != (2, 0):
        raise UnsupportedDegree("fundamental units only for real quadratic",
                                operation="fundamental_unit")
    om = maximal_order(field)
    d0 = om.disc()
    _, t, u = least_unit_power(d0, conductor_index(gamma, om))
    if t * t - d0 * u * u not in (4, -4):
        raise MethodDisagreement("fundamental unit has norm other than +-1",
                                 operation="fundamental_unit")
    p0, p1, q = om.omega_coords()
    t0, _ = om.omega_data()
    return FieldElement(field, (Fraction((t - u * t0) * q + 2 * u * p0, 2 * q),
                                Fraction(u * p1, q)))


def unit_square_quotient(gamma: Order) -> UnitGroupData:
    """|Gamma^x / Gamma^x2| with the exact unit-group data behind it: for a
    real quadratic order {+-1} x <eps> (fundamental_unit), for an imaginary
    one the roots of unity, read off the discriminant (torsion_order)."""
    field = gamma.field
    if field.degree == 1:
        return UnitGroupData(2, None, 2)
    if field.degree != 2:
        raise UnsupportedDegree(
            "unit groups implemented for degree <= 2 only",
            operation="unit_square_quotient")
    if field.signature == (2, 0):
        eps = fundamental_unit(gamma)
        # units = {+-1} x <eps>: squares have index 2 in each factor
        return UnitGroupData(2, eps, 4)
    # cyclic of even order: squares form the index-2 subgroup
    return UnitGroupData(torsion_order(gamma.disc()), None, 2)
