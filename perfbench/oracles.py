"""Integer arithmetic the benchmark uses to check orderkit's outputs.

Nothing here imports orderkit: every value is computed from first
principles (trial division, Gauss reduction of binary quadratic forms, a
Pell search, exact powers and decimal logarithms), so a check that compares
orderkit's answer with one of these functions compares two independent
routes.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import gcd, isqrt


def squarefree_kernel(m):
    """The squarefree integer s with m = s * k^2 (sign kept)."""
    sign = -1 if m < 0 else 1
    n = abs(m)
    out = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out *= p
        p += 1
    return sign * out * n


def field_discriminant(poly):
    """Discriminant d0 of the quadratic field Q[x]/(x^2 + a1 x + a0)."""
    a0, a1 = poly[0], poly[1]
    s = squarefree_kernel(a1 * a1 - 4 * a0)
    return s if s % 4 == 1 else 4 * s


def order_discriminant(poly, rows):
    """Discriminant of the Z-lattice spanned by two rows of power-basis
    coordinates: det of the trace form Tr(x_i x_j)."""
    a0, a1 = Fraction(poly[0]), Fraction(poly[1])

    def mul(x, y):
        # (x0 + x1 t)(y0 + y1 t) with t^2 = -a1 t - a0
        c0 = x[0] * y[0]
        c1 = x[0] * y[1] + x[1] * y[0]
        c2 = x[1] * y[1]
        return (c0 - a0 * c2, c1 - a1 * c2)

    def trace(x):
        return 2 * x[0] - a1 * x[1]

    rows = [tuple(Fraction(v) for v in r) for r in rows]
    t = [[trace(mul(x, y)) for y in rows] for x in rows]
    d = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    if d.denominator != 1:
        raise ValueError(f"non-integral discriminant {d}")
    return int(d)


def conductor_index(poly, rows):
    """(D, d0, f) with D = f^2 d0 for the order spanned by ``rows``."""
    d = order_discriminant(poly, rows)
    d0 = field_discriminant(poly)
    q, r = divmod(d, d0)
    f = isqrt(q) if q > 0 else 0
    if r or f * f != q:
        raise ValueError(f"disc {d} is not a square times {d0}")
    return d, d0, f


# --- class numbers by reduced forms -------------------------------------------


def reduced_definite_forms(d):
    """Reduced primitive positive definite forms (a, b, c) of discriminant d < 0."""
    out = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                out.append((a, b, c))
        a += 1
    return out


def _is_reduced_indefinite(a, b, d):
    # 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, in integers
    aa = 2 * abs(a)
    return (0 < b and b * b < d and (aa + b) ** 2 > d
            and (aa - b <= 0 or (aa - b) ** 2 < d))


def reduced_indefinite_forms(d):
    """Reduced primitive forms (a, b, c) of a nonsquare discriminant d > 0."""
    r = isqrt(d)
    out = []
    for b in range(1, r + 1):
        if (b - d) % 2:
            continue
        num = b * b - d  # = 4ac < 0
        for a_abs in range(1, r + 1):
            if num % (4 * a_abs):
                continue
            for a in (a_abs, -a_abs):
                if not _is_reduced_indefinite(a, b, d):
                    continue
                c = num // (4 * a)
                if gcd(gcd(abs(a), b), abs(c)) == 1:
                    out.append((a, b, c))
    return out


def _rho(form, d):
    a, b, c = form
    r = isqrt(d)
    m = 2 * abs(c)
    b2 = r - (r + b) % m
    return (c, b2, (b2 * b2 - d) // (4 * c))


def wide_class_number(d):
    """|Pic| of the quadratic order of discriminant d.

    d < 0: the number of reduced forms.  d > 0: cycles of reduced forms give
    the proper (narrow) classes; (a, b, c) ~ (-a, b, -c) merges them into
    the classes of ideals up to any nonzero scalar.
    """
    if d < 0:
        return len(reduced_definite_forms(d))
    forms = set(reduced_indefinite_forms(d))
    cycle_of = {}
    cycles = []
    for f in sorted(forms):
        if f in cycle_of:
            continue
        idx = len(cycles)
        cyc = []
        g = f
        while g not in cycle_of:
            if g not in forms:
                raise ValueError(f"rho left the reduced forms at {g}")
            cycle_of[g] = idx
            cyc.append(g)
            g = _rho(g, d)
        cycles.append(cyc)
    seen = set()
    count = 0
    for idx, cyc in enumerate(cycles):
        if idx in seen:
            continue
        a, b, c = cyc[0]
        seen.add(idx)
        seen.add(cycle_of[(-a, b, -c)])
        count += 1
    return count


def census_covers(d, budget):
    """Whether every class of discriminant d < 0 has a reduced form with
    leading coefficient <= budget, i.e. whether a census of primitive
    ideals of norm <= budget can meet every class."""
    return all(a <= budget for a, _b, _c in reduced_definite_forms(d))


# --- units ----------------------------------------------------------------------


def pell_minimal(d, limit):
    """Smallest (t, u), u > 0, with t^2 - d u^2 = +-4, searching u <= limit;
    None when the search runs out."""
    for u in range(1, limit + 1):
        du2 = d * u * u
        for n in (du2 - 4, du2 + 4):
            t = isqrt(n)
            if t * t == n:
                return t, u
    return None


# --- bounds ---------------------------------------------------------------------


def power_product(factors):
    out = 1
    for base, exp in factors:
        out *= base ** exp
    return out


def log10_sum(factors, prec=50):
    """sum exp * log10(base) with decimal's log10 at ``prec`` digits."""
    ctx = decimal.Context(prec=prec)
    total = decimal.Decimal(0)
    for base, exp in factors:
        total = ctx.add(total, ctx.multiply(ctx.log10(decimal.Decimal(base)),
                                            decimal.Decimal(exp)))
    return total


def decimal_length(n):
    """Number of decimal digits of n > 0, without str() on n."""
    k = max(0, (n.bit_length() - 1) * 30103 // 100000)
    while 10 ** k > n:
        k -= 1
    while 10 ** (k + 1) <= n:
        k += 1
    return k + 1


# --- 2x2 integer matrices ----------------------------------------------------------


def mat_mul(x, y):
    return ((x[0][0] * y[0][0] + x[0][1] * y[1][0],
             x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0],
             x[1][0] * y[0][1] + x[1][1] * y[1][1]))


IDENTITY = ((1, 0), (0, 1))


def random_unimodular(rng, steps=8, span=3):
    """(U, U^-1) in GL_2(Z): a product of elementary row operations and a
    seeded swap, with the inverse built from the inverse operations."""
    u, ui = IDENTITY, IDENTITY
    for _ in range(steps):
        i = rng.randrange(2)
        c = rng.randint(-span, span)
        e = ((1, c), (0, 1)) if i == 0 else ((1, 0), (c, 1))
        e_inv = ((1, -c), (0, 1)) if i == 0 else ((1, 0), (-c, 1))
        u, ui = mat_mul(e, u), mat_mul(ui, e_inv)
    if rng.random() < 0.5:
        swap = ((0, 1), (1, 0))
        u, ui = mat_mul(swap, u), mat_mul(ui, swap)
    return u, ui
