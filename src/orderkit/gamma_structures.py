"""Structures of an order on a matrix order: counting ring morphisms up to units.

A structure on R = M_n(O_K) is a ring morphism from the order into R, taken
modulo conjugation by GL_n(O_K).  The constructive route runs through ideal
classes: each qualifying class yields the matrices of multiplication on a
module basis, and conversely a morphism recovers its class from a cyclic
vector.  Conjugacy is decided by (compatibility embedding, ideal class); a
bounded matrix search over solutions of the characteristic equation is kept
as an independent oracle for the 2x2 integer case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import quadforms
from .errors import (
    BoundViolation,
    DegreeMismatch,
    HypothesisViolated,
    MethodDisagreement,
    NotFreeModule,
    UnsupportedDegree,
)
from .intmat import (
    IntMatrix,
    Lattice,
    left_kernel,
    solve_square,
)
from .numberfield import (
    FieldElement,
    NumberField,
    integral_mult_matrix,
    roots_in_field,
)
from .orders import (
    Order,
    conductor_index,
    maximal_order,
    scaled_subring,
    torsion_units,
)
from .ideals import (
    FractionalIdeal,
    ClassMonoid,
    class_monoid,
)


class MatrixOrder:
    """R = M_n(O_K) for the ring of integers O_K of a base field K."""

    __slots__ = ("base_field", "base_max_order", "n")

    def __init__(self, base_field: NumberField, n: int,
                 base_max_order: Order | None = None):
        if n < 1:
            raise ValueError("n must be positive")
        if base_max_order is None:
            base_max_order = maximal_order(base_field)
        object.__setattr__(self, "base_field", base_field)
        object.__setattr__(self, "base_max_order", base_max_order)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixOrder is immutable")

    def __eq__(self, other):
        return (isinstance(other, MatrixOrder)
                and self.base_field == other.base_field
                and self.base_max_order == other.base_max_order
                and self.n == other.n)

    def __hash__(self):
        return hash((self.base_field, self.base_max_order, self.n))

    def __repr__(self):
        return f"MatrixOrder(n={self.n}, K={list(self.base_field.coeffs)})"

    def identity_matrix(self):
        one, zero = self.base_field.one(), self.base_field.zero()
        return tuple(tuple(one if i == j else zero for j in range(self.n))
                     for i in range(self.n))

    def contains_matrix(self, m):
        if self.base_field.degree == 1:  # O_Q = Z: integer coordinates
            return all(e.coords[0].denominator == 1 for row in m for e in row)
        ok = self.base_max_order
        return all(ok.contains(e) for row in m for e in row)


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def _mat_scale(a, c):
    return tuple(tuple(x * c for x in r) for r in a)


class RingMorphism:
    """A ring morphism from an order into a matrix order.

    ``images`` lists the image of each element of the source's unital basis
    (so images[0] is the identity matrix); entries are elements of K lying in
    O_K.  Additive linearity holds by construction; the multiplication table
    of the source (Order.structure_constants, kept on the order) is
    verified on all basis pairs, on the integer entries when K = Q.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Order, target: MatrixOrder, images, check=True):
        images = tuple(tuple(tuple(row) for row in m) for m in images)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)
        if check:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("RingMorphism is immutable")

    def _validate(self):
        field = self.target.base_field
        n = self.target.n
        consts = self.source.structure_constants()
        if len(self.images) != len(consts):
            raise ValueError("one image per basis element required")
        for m in self.images:
            if len(m) != n or any(len(r) != n for r in m):
                raise ValueError("image matrices must be n x n")
            if not self.target.contains_matrix(m):
                raise ValueError("image entries must be integral")
        if self.images[0] != self.target.identity_matrix():
            raise ValueError("unit must map to the identity matrix")
        # over Q the entries are integers, so the table is checked on ints
        if field.degree == 1:
            mats = [[[int(e.coords[0]) for e in row] for row in m]
                    for m in self.images]
            zero = 0
        else:
            mats, zero = self.images, field.zero()
        span = range(n)
        for i, row in enumerate(consts):
            for j in range(i, len(consts)):
                want = [[sum((m[r][s] * c for c, m in zip(row[j], mats)), zero)
                         for s in span] for r in span]
                x, y = mats[i], mats[j]
                got = [[sum((x[r][k] * y[k][s] for k in span), zero)
                        for s in span] for r in span]
                if got != want:
                    raise ValueError("images violate the multiplication table")

    def __eq__(self, other):
        return (isinstance(other, RingMorphism) and self.source == other.source
                and self.target == other.target and self.images == other.images)

    def __hash__(self):
        return hash((self.source, self.target, self.images))


def _unital_coords(order: Order, e: FieldElement):
    """The rational coordinates of e on the order's unital basis."""
    basis = order.unital_basis_elements()
    sol = solve_square([b.coords for b in basis], [e.coords])
    if sol is None:
        raise ValueError("element outside the span of the order")
    return sol[0]


@dataclass(frozen=True)
class GammaStructure:
    """A conjugacy class of morphisms, tagged by embedding and ideal class."""

    representative: RingMorphism
    compatibility: int
    ideal_class_index: int
    ideal_class_label: tuple


def embeddings_into(k: NumberField, l: NumberField):
    """The ring morphisms K -> L as images of K's generator, sorted."""
    if l.degree % k.degree:
        raise DegreeMismatch(f"degree {k.degree} does not divide {l.degree}",
                             operation="embeddings_into")
    if k.degree == 1:
        return [l.from_rational(-k.coeffs[0])]
    roots = roots_in_field(list(k.coeffs), l)
    return sorted(roots, key=lambda r: tuple(r.coords))


def compatibility_of(rho: RingMorphism):
    """The unique embedding K -> L the morphism is compatible with.

    Returns (index, generator image).  Every morphism has exactly one
    compatible embedding, so failing to find it signals a bug, not bad input.
    """
    k = rho.target.base_field
    l = rho.source.field
    embs = embeddings_into(k, l)
    if k.degree == 1:
        return 0, embs[0]
    n = rho.target.n
    basis = rho.source.unital_basis_elements()
    gen_k = k.gen()
    # solve sum_c c_k rho(basis_k) = gen_K * Id over Q
    rows = []
    for m in rho.images:
        flat = []
        for i in range(n):
            for j in range(n):
                flat.extend(m[i][j].coords)
        rows.append(flat)
    target_flat = []
    for i in range(n):
        for j in range(n):
            e = gen_k if i == j else k.zero()
            target_flat.extend(e.coords)
    sol = solve_square(rows, [target_flat])
    if sol is None:
        raise MethodDisagreement(
            "no compatible embedding: decomposition is broken",
            operation="compatibility_of")
    lam = l.zero()
    for c, b in zip(sol[0], basis):
        lam = lam + b * c
    for idx, e in enumerate(embs):
        if e == lam:
            return idx, e
    raise MethodDisagreement("embedding image is not a root",
                             operation="compatibility_of")


def _multipliers(gamma: Order):
    """(q, M) for each element g of the order's unital basis: q is the
    least common denominator of g's coordinates and M the integer matrix of
    x -> x * (q*g) on the power basis, in the row convention
    (integral_mult_matrix)."""
    out = []
    for e in gamma.unital_basis_elements():
        q = lcm(*(c.denominator for c in e.coords))
        out.append((q, integral_mult_matrix(gamma.field,
                                            [int(c * q) for c in e.coords])))
    return out


def _action_matrices(multipliers, lattice: Lattice):
    """Integer matrices of the unital basis, as _multipliers gives it,
    acting on a lattice of degree <= 2, in closed form: for the lattice's
    HNF numerators R (its rows are R/D, and D cancels), x -> x*g has the
    matrix R (q M_g) adj(R) / (q det R) on its basis, one exact division
    per entry."""
    r = lattice.basis.entries
    if len(r) == 1:  # R (q g) / (q R)
        det, entries = 1, [(q, (m[0][0],)) for q, m in multipliers]
    else:
        (a, b), (c, d) = r
        det, entries = a * d - b * c, []
        for q, ((m00, m01), (m10, m11)) in multipliers:
            x00, x01 = a * m00 + b * m10, a * m01 + b * m11
            x10, x11 = c * m00 + d * m10, c * m01 + d * m11
            entries.append((q, (x00 * d - x01 * c, x01 * a - x00 * b,
                                x10 * d - x11 * c, x11 * a - x10 * b)))
    out = []
    for q, xs in entries:
        qd = q * det
        if any(x % qd for x in xs):
            raise MethodDisagreement(
                "order element maps the ideal outside itself",
                operation="_action_matrices")
        ys = [x // qd for x in xs]
        out.append([ys] if len(ys) == 1 else [ys[:2], ys[2:]])
    return out


def structures_from_ideal_classes(gamma: Order, target: MatrixOrder,
                                  phi_index: int,
                                  monoid: ClassMonoid | None = None):
    """The structures compatible with one embedding, one per qualifying class.

    K = Q: every class of the monoid qualifies (any ideal is a free
    Z-module); the morphism is multiplication on the HNF basis of the class's
    representative, each matrix in closed form in integers
    (_action_matrices: one exact division per entry, no linear solve), and
    RingMorphism checks its entries on the integers, as O_Q = Z.  n = 1 with
    K = L: the single morphism inverse to the embedding.  Other shapes need
    Steinitz-class machinery and are rejected.
    """
    k = target.base_field
    l = gamma.field
    if l.degree != target.n * k.degree:
        raise DegreeMismatch("[L : K] must equal n",
                             operation="structures_from_ideal_classes")
    if monoid is None:
        monoid = class_monoid(gamma)
    embs = embeddings_into(k, l)
    if k.degree == 1:
        out = []
        multipliers = _multipliers(gamma)
        for idx, cls in enumerate(monoid.classes):
            mats = _action_matrices(multipliers, cls.representative.lattice)
            images = tuple(
                tuple(tuple(k.from_rational(x) for x in row) for row in m)
                for m in mats)
            rho = RingMorphism(gamma, target, images)
            out.append(GammaStructure(rho, phi_index, idx, cls.label))
        return out
    if target.n == 1:
        phi_gen = embs[phi_index]
        if not _phi_o_k_inside(l, phi_gen, target.base_max_order):
            raise NotFreeModule(
                "embedding does not carry O_K into the maximal order",
                operation="structures_from_ideal_classes")
        psi = _inverse_embedding(k, l, phi_gen)
        images = []
        for b in gamma.unital_basis_elements():
            img = _apply_embedding(psi, b)
            if not target.base_max_order.contains(img):
                raise NotFreeModule("morphism image is not integral",
                                    operation="structures_from_ideal_classes")
            images.append(((img,),))
        rho = RingMorphism(gamma, target, tuple(images))
        idx, label = structure_to_ideal_class(rho, monoid)
        return [GammaStructure(rho, phi_index, idx, label)]
    raise UnsupportedDegree(
        "structures for K != Q need n = 1 at desk scale",
        operation="structures_from_ideal_classes")


def _phi_o_k_inside(l, phi_gen, ok: Order) -> bool:
    for b in ok.basis_elements():
        if not maximal_order(l).contains(_apply_embedding(phi_gen, b)):
            return False
    return True


def _apply_embedding(gen_image: FieldElement, e: FieldElement) -> FieldElement:
    """Image of e under the field map sending e's generator to gen_image."""
    out = gen_image.field.zero()
    for j, c in enumerate(e.coords):
        out = out + (gen_image ** j) * c
    return out


def _inverse_embedding(k: NumberField, l: NumberField,
                       phi_gen: FieldElement) -> FieldElement:
    """psi(theta_L) in K for the inverse of the isomorphism phi: K -> L."""
    for r in roots_in_field(list(l.coeffs), k):
        if _apply_embedding(phi_gen, r) == l.gen():
            return r
    raise MethodDisagreement("embedding is not invertible; bug for n = 1",
                             operation="_inverse_embedding")


def structure_to_ideal(rho: RingMorphism) -> FractionalIdeal:
    """The fractional ideal of a morphism through a cyclic vector.

    O_K^n becomes a module over the source via rho; tensoring with Q gives a
    one-dimensional vector space over L, and the preimage of O_K^n under
    lambda -> rho(lambda) v is a fractional ideal whose class is the
    conjugacy invariant.
    """
    gamma = rho.source
    l = gamma.field
    k = rho.target.base_field
    n = rho.target.n
    g = l.degree
    dk = k.degree
    ok_rows = rho.target.base_max_order.lattice.rows_q()

    # columns of M_v: flattened rho_Q(theta^j) * v for v = e_0
    theta_mats = []
    theta_pow = l.one()
    for _ in range(g):
        coords = _unital_coords(gamma, theta_pow)
        m = None
        for c, im in zip(coords, rho.images):
            term = _mat_scale(im, c)
            m = term if m is None else _mat_add(m, term)
        theta_mats.append(m)
        theta_pow = theta_pow * l.gen()

    # The action matrices follow the row convention (x -> x * rho(gamma)), so
    # the cyclic vector is the row v = e_0 and mu(lambda) = v * rho_Q(lambda):
    # row j of M is the flattened first row of the matrix of theta^j.
    mv = []
    for m in theta_mats:
        flat = []
        for i in range(n):
            flat.extend(m[0][i].coords)
        mv.append(flat)
    # lattice of O_K^n in flattened coordinates: block diagonal of O_K rows
    lam_rows = []
    for blk in range(n):
        for r in ok_rows:
            row = [Fraction(0)] * g
            for t, x in enumerate(r):
                row[blk * dk + t] = x
            lam_rows.append(row)
    # preimage of O_K^n: the rows x with x * M = R
    pre = solve_square(mv, lam_rows)
    if pre is None:
        raise MethodDisagreement("cyclic vector gave a singular matrix",
                                 operation="structure_to_ideal")
    lat = Lattice.from_rows(pre, g)
    return FractionalIdeal(gamma, lat)


def structure_to_ideal_class(rho: RingMorphism,
                             monoid: ClassMonoid | None = None):
    """(index in the monoid, label) of the class attached to the morphism."""
    if monoid is None:
        monoid = class_monoid(rho.source)
    ideal = structure_to_ideal(rho)
    idx = monoid.locate(ideal)
    return idx, monoid.classes[idx].label


@dataclass(frozen=True)
class StructureCount:
    count: int
    bound: int
    per_embedding: tuple
    conductor_norm: int
    picard_order: int
    embedding_count: int
    structures: tuple         # GammaStructure, embedding by embedding


def count_structures(gamma: Order, target: MatrixOrder,
                     monoid: ClassMonoid | None = None) -> StructureCount:
    """Total structures and the N(f)^g h(Gamma) t bound, per embedding.

    The structures themselves come back too, each built and validated once,
    in embedding order and, within an embedding, in class order."""
    if monoid is None:
        monoid = class_monoid(gamma)
    k = target.base_field
    l = gamma.field
    embs = embeddings_into(k, l)
    per = []
    structures = []
    for idx in range(len(embs)):
        found = structures_from_ideal_classes(gamma, target, idx, monoid)
        per.append(len(found))
        structures.extend(found)
    total = len(structures)
    om = maximal_order(l)
    nf = conductor_index(gamma, om) ** 2
    h_gamma = len(monoid.picard_subset)
    bound = nf ** l.degree * h_gamma * len(embs)
    if total > bound:
        raise BoundViolation(
            f"structure count {total} exceeds N(f)^g h t = {bound}",
            operation="count_structures")
    return StructureCount(total, bound, tuple(per), nf, h_gamma, len(embs),
                          tuple(structures))


def _commutation_rows(m1, m2):
    """The linear system X m1 = m2 X in the n^2 entries of an n x n matrix X:
    row (i, j) holds the coefficient of X[k][l] in (X m1 - m2 X)[i][j]."""
    n = len(m1)
    return [[(m1[l][j] if i == k else 0) - (m2[i][k] if j == l else 0)
             for k in range(n) for l in range(n)]
            for i in range(n) for j in range(n)]


def centralizer_dimension(rho: RingMorphism) -> int:
    """Q-dimension of the centralizer of the rationalized image in M_n(K).

    Solving the commutation system [X, rho(gamma_k)] = 0 for all basis images
    must give exactly dim_Q(L) = n [K:Q]: the image is its own centralizer.
    Implemented for K = Q, where the system is integer linear algebra.
    """
    k = rho.target.base_field
    if k.degree != 1:
        raise UnsupportedDegree("centralizer check implemented over Q",
                                operation="centralizer_dimension")
    n = rho.target.n
    rows = []
    for img in rho.images[1:]:  # identity commutes with everything
        a = [[int(e.coords[0]) for e in row] for row in img]
        rows += _commutation_rows(a, a)
    if not rows:
        return n * n
    kern = left_kernel(IntMatrix(rows).transpose())
    return kern.rows


# --- commutative transfer checks -------------------------------------------------


def count_morphisms_commutative(gamma: Order, target: Order) -> int:
    """Ring morphisms Gamma -> target (conjugation is trivial here).

    The source is Z[omega], so morphisms correspond to roots of omega's
    minimal polynomial lying in the target order.
    """
    if gamma.degree == 1:
        return 1
    w = gamma.omega()
    mp = [int(c) for c in w.min_poly()]
    roots = roots_in_field(mp, target.field)
    return sum(1 for r in roots if target.contains(r))


@dataclass(frozen=True)
class TransferReport:
    d: int
    count_r: int
    count_r_prime: int
    quotient_size: int
    inequality_holds: bool
    unit_index: int | None
    unit_quotient_bound: int | None
    unit_inequality_holds: bool | None


def transfer_inequality_check(gamma: Order, r: Order, r_prime: Order,
                              d: int) -> TransferReport:
    """Counts on commensurable commutative targets R, R'.

    Hypotheses d R' <= R and d R <= R' are verified; the claim is
    #structures(Gamma on R) <= |R'/dR'| * #structures(Z[d Gamma] on R').
    When R' <= R and both unit groups are finite, the unit-index bound
    |R^x / R'^x| <= |R/dR| is checked as well.
    """
    if r.field != r_prime.field:
        raise HypothesisViolated("targets live in different fields",
                                 operation="transfer_inequality_check")
    if not r.lattice.contains_lattice(r_prime.lattice.scale(d)):
        raise HypothesisViolated("d R' is not contained in R",
                                 operation="transfer_inequality_check")
    if not r_prime.lattice.contains_lattice(r.lattice.scale(d)):
        raise HypothesisViolated("d R is not contained in R'",
                                 operation="transfer_inequality_check")
    gamma_prime = scaled_subring(gamma, d)
    count_r = count_morphisms_commutative(gamma, r)
    count_rp = count_morphisms_commutative(gamma_prime, r_prime)
    m = r_prime.degree
    q = d ** m
    holds = count_r <= q * count_rp
    unit_index = None
    unit_bound = None
    unit_holds = None
    if r.contains_order(r_prime) and r.field.signature[0] == 0:
        units_r = len(torsion_units(r))
        units_rp = len(torsion_units(r_prime))
        unit_index = units_r // units_rp
        unit_bound = d ** r.degree
        unit_holds = unit_index <= unit_bound
    return TransferReport(d, count_r, count_rp, q, holds,
                          unit_index, unit_bound, unit_holds)


# --- brute-force oracles ------------------------------------------------------------


def integer_matrix_roots(trace: int, det: int, entry_bound: int):
    """All 2x2 integer matrices with the given trace and determinant and
    entries bounded by entry_bound."""
    out = []
    for a in range(-entry_bound, entry_bound + 1):
        dd = trace - a
        if abs(dd) > entry_bound:
            continue
        need = a * dd - det  # = b*c
        for b in range(-entry_bound, entry_bound + 1):
            if b == 0:
                if need == 0:
                    for c in range(-entry_bound, entry_bound + 1):
                        out.append(((a, b), (c, dd)))
                continue
            if need % b:
                continue
            c = need // b
            if abs(c) <= entry_bound:
                out.append(((a, b), (c, dd)))
    return out


def conjugating_unimodular(m1, m2):
    """U in GL_2(Z) with U m1 = m2 U, or None; exact for definite cases.

    The solutions of U m1 = m2 U form a rank-2 lattice; det restricted to it
    is a binary form, and U exists with det +-1 iff that form represents 1
    or -1, which reduction theory decides exactly when the form is definite.
    """
    kern = left_kernel(IntMatrix(_commutation_rows(m1, m2)).transpose())
    if kern.rows < 2:
        return None
    if kern.rows != 2:
        raise MethodDisagreement(
            "solution space of a conjugacy system must be rank 2",
            operation="conjugating_unimodular")
    u1, u2 = kern.row(0), kern.row(1)

    def as_mat(v):
        return ((v[0], v[1]), (v[2], v[3]))

    def det_of(s, t):
        v = [s * a + t * b for a, b in zip(u1, u2)]
        return v[0] * v[3] - v[1] * v[2]

    qa, qc = det_of(1, 0), det_of(0, 1)
    qb = det_of(1, 1) - qa - qc
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        for target in (1, -1):
            sol = _represent_definite((qa, qb, qc), target)
            if sol is not None:
                s, t = sol
                return as_mat([s * a + t * b for a, b in zip(u1, u2)])
        return None
    # indefinite fallback: bounded search
    for s in range(-40, 41):
        for t in range(-40, 41):
            if det_of(s, t) in (1, -1):
                return as_mat([s * a + t * b for a, b in zip(u1, u2)])
    return None


def _represent_definite(form, target):
    """(x, y) with form(x, y) = target for a definite binary form, or None."""
    a, b, c = form
    if a < 0:
        a, b, c = -a, -b, -c
        target = -target
    if target < 0:
        return None
    red, u = quadforms.reduce_form((a, b, c))
    if red[0] != target:
        # minimum of a reduced definite form is its leading coefficient
        return None
    # the reduced basis vector achieving the minimum: first row of U on (e1, e2)
    return (u[0][0], u[0][1])


def count_conjugacy_classes_bruteforce(trace: int, det: int,
                                       entry_bound: int = 10):
    """Partition bounded-entry integer matrix roots of x^2 - trace x + det
    into GL_2(Z)-conjugacy classes; returns class count and representatives."""
    mats = integer_matrix_roots(trace, det, entry_bound)
    reps = []
    for m in mats:
        if any(conjugating_unimodular(m, r) is not None for r in reps):
            continue
        reps.append(m)
    return len(reps), reps
