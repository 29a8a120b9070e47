"""Number fields Q[x]/(p) for monic irreducible integer p.

Polynomials are coefficient lists, constant term first.  All arithmetic is
exact: Fractions for field elements, integers for resultants and
discriminants.  The signature of a quadratic field is read off the sign of
its polynomial discriminant; higher degrees count real roots by Sturm
sequences (real_root_count, also the tests' oracle in degree 2).

Element arithmetic in a quadratic field Q[t]/(t^2 + b1 t + b0) uses closed
forms: products by the relation t^2 = -b1 t - b0, the norm and trace as
quadratic and linear forms in the coordinates, and inverses as the conjugate
over the norm.  Every other degree goes through the generic route (reduction
of the convolution by the power table, a Bareiss determinant of the
multiplication matrix, an exact solve through ``intmat.solve_square``), which
the tests also use as the oracle for the closed forms.

Minimal polynomials also solve through ``intmat.solve_square``; polynomials
are interpolated by one Lagrange routine, and squarefree parts and the
divisor lists of the root and factor searches are read off
``modular.factorize``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt, lcm, prod

from .errors import (
    DegreeMismatch,
    MethodDisagreement,
    NotMonic,
    Reducible,
    SearchBudgetExceeded,
)
from .intmat import _det_bareiss, solve_square
from .modular import factorize


# --- integer / rational polynomial helpers ---------------------------------

def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_deg(p):
    return len(p) - 1


def poly_neg(p):
    return [-a for a in p]


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    """Division with remainder over the rationals."""
    p = [Fraction(a) for a in p]
    q = poly_trim([Fraction(a) for a in q])
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(poly_trim(p)) >= len(q):
        p = poly_trim(p)
        shift = len(p) - len(q)
        c = p[-1] / lead
        quo[shift] = c
        for i, b in enumerate(q):
            p[shift + i] -= c * b
        p[-1] = Fraction(0)
    return poly_trim(quo), poly_trim(p)


def poly_eval(p, x):
    out = 0
    for a in reversed(p):
        out = out * x + a
    return out


def poly_derivative(p):
    return poly_trim([i * a for i, a in enumerate(p)][1:])


def resultant(p, q) -> int:
    """Resultant of two integer polynomials via the Sylvester determinant."""
    p, q = poly_trim(list(p)), poly_trim(list(q))
    n, m = poly_deg(p), poly_deg(q)
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return p[0] ** m
    if m == 0:
        return q[0] ** n
    size = n + m
    rows = []
    rp = list(reversed(p))
    rq = list(reversed(q))
    for i in range(m):
        rows.append([0] * i + rp + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + rq + [0] * (size - m - 1 - i))
    return _det_bareiss(rows)


def poly_discriminant(p) -> int:
    """Discriminant of a monic integer polynomial."""
    n = poly_deg(p)
    r = resultant(p, poly_derivative(p))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * r


def squarefree_part(n: int):
    """n = s^2 * m with m squarefree; returns (m, s).  n may be negative."""
    if n == 0:
        return 0, 1
    m, s = (-1 if n < 0 else 1), 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return m, s


def _signed_divisors(factors):
    """The divisors of the number with prime factorization ``factors`` (a
    factorize dict), each followed by its negative, in increasing size."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return [x for d in sorted(divs) for x in (d, -d)]


def _monic_factor_candidates(p, deg, budget=400_000):
    """Yield monic integer factors of ``p`` of the given degree.

    Interpolation through small integer points: a factor q satisfies
    q(k) | p(k), so candidates come from divisor tuples.  Only needed up to
    degree 4 (embedding-count resultants cap at degree 4*4 = 16 overall).
    The candidate count is read off the exponents of the factored values and
    checked against the budget before any divisor list is built.
    """
    pts = [0, 1, -1, 2, -2][:deg]
    vals = [poly_eval(p, t) for t in pts]
    if any(v == 0 for v in vals):
        return  # linear factor at one of the sample points; handled by roots
    factored = [factorize(v) for v in vals]
    total = 1
    for f in factored:
        total *= 2 * prod(e + 1 for e in f.values())
    if total > budget:
        raise SearchBudgetExceeded(
            f"factor candidate space {total} exceeds budget {budget}",
            operation="factor_search", limit=budget, consumed=total)
    divlists = [_signed_divisors(f) for f in factored]
    seen = set()
    for combo in itertools.product(*divlists):
        q = _interpolate_monic(pts, combo, deg)
        if q is None or tuple(q) in seen:
            continue
        seen.add(tuple(q))
        if _divides_monic(p, q):
            yield q


def _divides_monic(p, q):
    """Whether the monic integer polynomial q divides the integer polynomial
    p: synthetic division on ints (the quotient is integral since q is
    monic), stopping at the first nonzero remainder coefficient."""
    r = list(p)
    dq = len(q) - 1
    for shift in range(len(r) - 1 - dq, -1, -1):
        c = r[shift + dq]
        if c:
            for i in range(dq):
                r[shift + i] -= c * q[i]
    return not any(r[:dq])


def _interpolate_monic(pts, vals, deg):
    """Monic integer polynomial of degree ``deg`` through (pts, vals), or None.

    Uses exactly ``deg`` points to pin the lower coefficients; the caller
    verifies candidates by exact division.
    """
    pts, vals = pts[:deg], vals[:deg]
    low = _lagrange(pts, [v - t ** deg for t, v in zip(pts, vals)])
    if any(c.denominator != 1 for c in low):
        return None
    return [int(c) for c in low] + [0] * (deg - len(low)) + [1]


def integer_roots(p):
    """All integer roots of an integer polynomial (monic or not)."""
    p = poly_trim(list(p))
    if not p:
        return []
    roots = []
    if p[0] == 0:
        roots.append(0)
        while p and p[0] == 0:
            p = p[1:]
    for d in _signed_divisors(factorize(p[0])) if p else []:
        if poly_eval(p, d) == 0:
            roots.append(d)
    return sorted(set(roots))


def is_irreducible(p) -> bool:
    """Deterministic irreducibility test for monic integer p, degree <= 6."""
    p = poly_trim(list(p))
    n = poly_deg(p)
    if n <= 0:
        return False
    if n == 1:
        return True
    if p[0] == 0:
        return False
    if n == 2:
        # monic x^2 + b1 x + b0 has a rational root iff b1^2 - 4 b0 is a
        # square, which isqrt decides without the divisors of b0
        d = p[1] * p[1] - 4 * p[0]
        return d < 0 or isqrt(d) ** 2 != d
    if integer_roots(p):
        return False
    if resultant(p, poly_derivative(p)) == 0:
        return False  # repeated factor
    for d in range(2, n // 2 + 1):
        for _ in _monic_factor_candidates(p, d):
            return False
    return True


# --- Sturm sequences --------------------------------------------------------

def _sturm_chain(p):
    chain = [[Fraction(a) for a in poly_trim(p)]]
    chain.append([Fraction(a) for a in poly_derivative(chain[0])])
    while poly_trim(chain[-1]):
        _, rem = poly_divmod(chain[-2], chain[-1])
        chain.append(poly_neg(rem))
    chain.pop()
    return chain


def _sign_changes(signs):
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_root_count(p) -> int:
    """Number of distinct real roots, by Sturm's theorem."""
    p = poly_trim(list(p))
    if poly_deg(p) < 1:
        return 0
    chain = _sturm_chain(p)
    at_minus = []
    at_plus = []
    for q in chain:
        q = poly_trim(q)
        if not q:
            at_minus.append(0)
            at_plus.append(0)
            continue
        lead = 1 if q[-1] > 0 else -1
        at_plus.append(lead)
        at_minus.append(lead if poly_deg(q) % 2 == 0 else -lead)
    return _sign_changes(at_minus) - _sign_changes(at_plus)


# --- the field itself -------------------------------------------------------

class NumberField:
    """Q[x]/(p) for a monic irreducible integer polynomial p."""

    __slots__ = ("coeffs", "degree", "poly_disc", "signature", "_pow_table",
                 "_maximal_order")

    def __init__(self, coeffs):
        coeffs = [int(c) for c in poly_trim(list(coeffs))]
        n = poly_deg(coeffs)
        if n < 1 or coeffs[-1] != 1:
            raise NotMonic("defining polynomial must be monic of degree >= 1",
                           operation="make_field")
        if not is_irreducible(coeffs):
            raise Reducible("defining polynomial factors over Q",
                            operation="make_field")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "poly_disc",
                           poly_discriminant(coeffs) if n > 1 else 1)
        if n == 2:
            # a monic quadratic has 1 + sign(disc) distinct real roots
            d = self.poly_disc
            r = 1 + (d > 0) - (d < 0)
        else:
            r = 1 if n == 1 else real_root_count(coeffs)
        object.__setattr__(self, "signature", (r, (n - r) // 2))
        # x^k mod p for k < 2n-1, used to reduce products; integer since p monic.
        table = []
        for k in range(2 * n - 1):
            if k < n:
                row = [0] * n
                row[k] = 1
            else:
                prev = table[-1]
                row = [0] + list(prev[:-1])
                lead = prev[-1]
                if lead:
                    row = [row[i] - lead * coeffs[i] for i in range(n)]
            table.append(tuple(row))
        object.__setattr__(self, "_pow_table", tuple(table))
        # set by orders.maximal_order on first use (degree <= 2)
        object.__setattr__(self, "_maximal_order", None)

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"NumberField({list(self.coeffs)})"

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError("coordinate length mismatch")
        return FieldElement(self, tuple(coords))

    def zero(self):
        return self.element([0] * self.degree)

    def one(self):
        e = [0] * self.degree
        e[0] = 1
        return self.element(e)

    def gen(self):
        if self.degree == 1:
            return self.element([-self.coeffs[0]])
        e = [0] * self.degree
        e[1] = 1
        return self.element(e)

    def from_rational(self, q):
        e = [Fraction(0)] * self.degree
        e[0] = Fraction(q)
        return FieldElement(self, tuple(e))

    def _reduce_product(self, conv):
        n = self.degree
        out = [Fraction(0)] * n
        for k, c in enumerate(conv):
            if c:
                row = self._pow_table[k]
                for i in range(n):
                    if row[i]:
                        out[i] += c * row[i]
        return out


def make_field(coeffs) -> NumberField:
    """Validated construction; raises NotMonic / Reducible."""
    return NumberField(coeffs)


RATIONAL_FIELD = NumberField([0, 1])


def integral_norm(field, v) -> int:
    """The norm of the element with integer coordinates v: the Bareiss
    determinant of its multiplication matrix, built from the integer power
    table of the field."""
    table = field._pow_table
    n = field.degree
    rows = []
    for i in range(n):
        row = [0] * n
        for j, c in enumerate(v):
            if c:
                for k, e in enumerate(table[i + j]):
                    if e:
                        row[k] += c * e
        rows.append(row)
    return _det_bareiss(rows)


class FieldElement:
    """Element of a NumberField in the power basis 1, x, ..., x^(g-1)."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if other.field is not self.field and other.field != self.field:
            raise ValueError("elements of different fields")
        return other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field,
                                tuple(a * other for a in self.coords))
        other = self._check(other)
        field = self.field
        if field.degree == 2:
            b0, b1, _ = field.coeffs
            a0, a1 = self.coords
            c0, c1 = other.coords
            top = a1 * c1
            return FieldElement(field, (a0 * c0 - b0 * top,
                                        a0 * c1 + a1 * c0 - b1 * top))
        return self._mul_generic(other)

    __rmul__ = __mul__

    def _mul_generic(self, other):
        """Product by convolution reduced through the power table."""
        n = self.field.degree
        conv = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        return FieldElement(self.field, tuple(self.field._reduce_product(conv)))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def mult_matrix(self):
        """Matrix of multiplication by self on the power basis (rows = images)."""
        n = self.field.degree
        rows = []
        x = self.field.gen()
        cur = self
        for i in range(n):
            rows.append(list(cur.coords))
            if i + 1 < n:
                cur = cur._mul_generic(x)
        return rows

    def norm(self) -> Fraction:
        if self.field.degree == 2:
            b0, b1, _ = self.field.coeffs
            a0, a1 = self.coords
            return a0 * a0 - b1 * a0 * a1 + b0 * a1 * a1
        return self._norm_generic()

    def _norm_generic(self) -> Fraction:
        """Determinant of the multiplication matrix, by Bareiss on integers:
        with v = den * self integral, N(self) = integral_norm(v) / den^g."""
        den = lcm(*(c.denominator for c in self.coords))
        v = [c.numerator * (den // c.denominator) for c in self.coords]
        return Fraction(integral_norm(self.field, v), den ** self.field.degree)

    def trace(self) -> Fraction:
        if self.field.degree == 2:
            a0, a1 = self.coords
            return 2 * a0 - self.field.coeffs[1] * a1
        return self._trace_generic()

    def _trace_generic(self) -> Fraction:
        """Trace of the multiplication matrix."""
        rows = self.mult_matrix()
        return sum(rows[i][i] for i in range(len(rows)))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        if field.degree == 2:
            # x * conj(x) = N(x), with conj(t) = -b1 - t
            b0, b1, _ = field.coeffs
            a0, a1 = self.coords
            n = a0 * a0 - b1 * a0 * a1 + b0 * a1 * a1
            return FieldElement(field, ((a0 - b1 * a1) / n, -a1 / n))
        return self._inverse_generic()

    def _inverse_generic(self):
        """Solve x * y = 1 through the multiplication matrix."""
        n = self.field.degree
        target = [Fraction(1 if i == 0 else 0) for i in range(n)]
        sol = solve_square(self.mult_matrix(), [target])
        return FieldElement(self.field, tuple(sol[0]))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def min_poly(self):
        """Monic minimal polynomial over Q, constant term first."""
        n = self.field.degree
        powers = [self.field.one()]
        for _ in range(n):
            powers.append(powers[-1] * self)
        for d in range(1, n + 1):
            # Is self^d a combination of lower powers?
            sol = solve_square([p.coords for p in powers[:d]],
                               [powers[d].coords])
            if sol is not None:
                return poly_trim([-c for c in sol[0]] + [Fraction(1)])
        raise MethodDisagreement("minimal polynomial must exist",
                                 operation="min_poly")


# --- embeddings and closures -------------------------------------------------

def roots_in_field(p, field: NumberField):
    """All roots of the integer polynomial p inside the field.

    Supported exactly for deg p <= 2 (any field degree <= 2) which covers the
    desk-scale uses; the count-only question for larger cases goes through
    embedding_count.
    """
    p = poly_trim(list(p))
    d = poly_deg(p)
    if d == 1:
        # monic linear: root is rational
        return [field.from_rational(Fraction(-p[0], p[1]))]
    if d == 2 and field.degree <= 2:
        a2, a1 = p[2], p[1]
        delta = Fraction(a1 * a1 - 4 * a2 * p[0])
        out = []
        for sq in _rational_sqrts_in_field(delta, field):
            y = (field.from_rational(Fraction(-a1)) + sq) * Fraction(1, 2 * a2)
            if y not in out:
                out.append(y)
        return out
    raise SearchBudgetExceeded(
        f"root finding for degree {d} in degree {field.degree} not supported",
        operation="roots_in_field")


def _rational_sqrts_in_field(delta: Fraction, field: NumberField):
    """All y in the field with y^2 = delta, for a rational delta."""
    if delta == 0:
        return [field.zero()]
    num = delta.numerator * delta.denominator  # sqrt(delta) = sqrt(num)/den
    den = delta.denominator
    m, s = squarefree_part(num)
    if m == 1:
        return [field.from_rational(Fraction(s, den)),
                field.from_rational(Fraction(-s, den))]
    if field.degree == 1:
        return []
    # quadratic field: v*(2u + b1 v) pattern from expanding (u + v*theta)^2
    b1, b0 = field.coeffs[1], field.coeffs[0]
    theta_disc = b1 * b1 - 4 * b0
    md, sd = squarefree_part(theta_disc)
    if md != m:
        return []
    # sqrt(m) = (2*theta + b1)/sd, so sqrt(delta) = s*sqrt(m)/den
    coeff = Fraction(s, den * sd)
    root = field.element([coeff * b1, 2 * coeff])
    return [root, -root]


def embedding_count(k: NumberField, l: NumberField) -> int:
    """Number of ring morphisms k -> l (roots of k's polynomial in l)."""
    if l.degree % k.degree:
        raise DegreeMismatch(
            f"degree {k.degree} does not divide degree {l.degree}",
            operation="embedding_count")
    if k.degree == 1:
        return 1
    if k.degree * l.degree > 16:
        raise SearchBudgetExceeded(
            "embedding search capped at degree product 16",
            operation="embedding_count")
    # Count components of k (x) l isomorphic to l: degree-l factors of the
    # squarefree resultant Res_x(p_l(x), p_k(z - s x)).
    for s in range(0, 40):
        r = _tensor_resultant(k.coeffs, l.coeffs, s)
        if resultant(r, poly_derivative(r)) != 0:
            return _count_factors_of_degree(r, l.degree)
    raise MethodDisagreement("no squarefree shift found",
                             operation="embedding_count")


def _tensor_resultant(pk, pl, s):
    """Res_x(pl(x), pk(z - s*x)) as an integer polynomial in z."""
    # Work in Z[z][x]: represent coefficients of x^i as polynomials in z.
    # pk(z - s x): expand via binomials.
    from math import comb
    dk = poly_deg(pk)
    terms = {}  # x-degree -> z-poly
    for i, a in enumerate(pk):
        if not a:
            continue
        # binomial expansion: sum_j C(i,j) z^(i-j) (-s)^j x^j
        for j in range(i + 1):
            c = a * comb(i, j) * (-s) ** j
            zdeg = i - j
            cur = terms.setdefault(j, [0] * (dk + 1))
            cur[zdeg] += c
    fx = [poly_trim(terms.get(j, [])) for j in range(dk + 1)]
    # Sylvester-style resultant in x with z-polynomial entries is exact but
    # heavy; evaluate-and-interpolate instead: deg_z <= dk * deg(pl).
    dz = dk * poly_deg(pl)
    pts = list(range(-(dz // 2), dz - dz // 2 + 1))
    vals = []
    for t in pts:
        # pk(t - s x) as integer polynomial in x
        q = [poly_eval(cz, t) if cz else 0 for cz in fx]
        vals.append(resultant(poly_trim(list(pl)), poly_trim(q)))
    coeffs = _lagrange(pts, vals)
    if any(c.denominator != 1 for c in coeffs):
        raise MethodDisagreement("interpolated resultant is not integral",
                                 operation="embedding_count")
    return [int(c) for c in coeffs]


def _lagrange(pts, vals):
    """Coefficients of the polynomial of degree < len(pts) through (pts, vals).

    The integer Lagrange basis polynomials are summed over the common
    denominator of the nodes; Fractions are made only for the result.
    """
    nums, dens = [], []
    for i, xi in enumerate(pts):
        basis = [1]
        denom = 1
        for j, xj in enumerate(pts):
            if j != i:
                basis = poly_mul(basis, [-xj, 1])
                denom *= xi - xj
        nums.append([vals[i] * c for c in basis])
        dens.append(denom)
    common = lcm(*dens)
    out = [0] * len(pts)
    for num, d in zip(nums, dens):
        scale = common // d
        for k, c in enumerate(num):
            out[k] += c * scale
    return poly_trim([Fraction(c, common) for c in out])


def _count_factors_of_degree(r, g):
    """Distinct monic irreducible integer factors of degree g of squarefree r."""
    r = poly_trim(list(r))
    if poly_deg(r) < g:
        return 0
    lead = r[-1]
    if lead != 1:
        # resultants of monic inputs are monic up to sign here
        if lead == -1:
            r = poly_neg(r)
        else:
            raise MethodDisagreement("expected monic resultant",
                                     operation="embedding_count")
    if g == 1:
        return len([t for t in integer_roots(r)])
    count = 0
    for q in _monic_factor_candidates(r, g):
        if is_irreducible(q):
            count += 1
    return count


def normal_closure_degree(f: NumberField):
    """(degree of a normal closure, exactness flag); g! upper bound for g >= 4."""
    g = f.degree
    if g == 1:
        return 1, True
    if g == 2:
        return 2, True
    if g == 3:
        m, _ = squarefree_part(f.poly_disc)
        return (3, True) if m == 1 else (6, True)
    out = 1
    for i in range(2, g + 1):
        out *= i
    return out, False
