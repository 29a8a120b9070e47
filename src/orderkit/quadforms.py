"""Binary quadratic forms: reduction, cycles, labels, composition, Pell units.

This is the workhorse behind ideal-class identification in quadratic fields.
A full-rank lattice in a quadratic field, with an oriented basis, yields a
primitive integer form (a, b, c); lattices are homothetic exactly when their
forms agree up to SL2(Z) and (for real fields) a global sign.  Reduction
gives a finite canonical set per class, so class comparison is a dictionary
lookup instead of an element search.

Forms are triples (a, b, c) meaning a x^2 + b x y + c y^2, with
disc = b^2 - 4ac.  Transforms are tracked as 2x2 integer matrices U acting on
basis rows: new_basis = U * old_basis.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import MethodDisagreement, SearchBudgetExceeded

# Longest rho-cycle that cycle_of walks before giving up.
_MAX_CYCLE = 100_000


def disc_of(form):
    a, b, c = form
    return b * b - 4 * a * c


def content(form):
    a, b, c = form
    return gcd(gcd(abs(a), abs(b)), abs(c))


def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


_IDENT = ((1, 0), (0, 1))


# --- definite reduction -------------------------------------------------------

def reduce_definite(form):
    """Reduce a positive definite form; returns (reduced, U) with U in SL2.

    Canonical conditions: -a < b <= a <= c, and b >= 0 if a == c.  U is
    carried as its four entries p, q, r, s, each step applied in place.
    """
    a, b, c = form
    if disc_of(form) >= 0 or a <= 0:
        raise ValueError(f"not a positive definite form: {form}")
    p, q, r, s = 1, 0, 0, 1
    while True:
        if c < a or (a == c and -a < b < 0):
            # swap roles: basis (beta, -alpha) keeps det = +1
            a, b, c = c, -b, a
            p, q, r, s = r, s, -p, -q
        elif b > a or b <= -a:
            # translate: beta += k*alpha, with the unique k giving -a < b+2ka <= a
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, a * k * k + b * k + c
            r, s = r + k * p, s + k * q
        else:
            return (a, b, c), ((p, q), (r, s))


# --- indefinite reduction ------------------------------------------------------

def is_reduced_indefinite(form, s=None):
    """|sqrt(D) - 2|a|| < b < sqrt(D), checked with exact integer arithmetic."""
    d = disc_of(form)
    return _is_reduced(form[0], form[1], d, isqrt(d) if s is None else s)


def _is_reduced(a, b, d, s):
    """is_reduced_indefinite of (a, b, .) of discriminant d, s = isqrt(d)."""
    if b <= 0 or b > s:  # b < sqrt(D) <=> b <= s, D non-square
        return False
    t = 2 * abs(a)
    if (t + b) ** 2 <= d:  # need sqrt(D) < 2|a| + b
        return False
    if t > b and (t - b) ** 2 >= d:  # need 2|a| - b < sqrt(D)
        return False
    return True


def _rho(a, b, c, d, s):
    """One reduction step (a, b, c) -> (c, b', c') of a form of discriminant
    d, s = isqrt(d); returns (c, b', c', k) for the basis change
    (alpha, beta) -> (beta, -alpha + k*beta)."""
    ac = abs(c)
    if ac > s:
        # choose b' = -b + 2 c k in (-|c|, |c|]
        k = (b + ac) // (2 * ac) if c > 0 else -((b + ac) // (2 * ac))
    else:
        # choose b' = -b + 2 c k in (sqrt(D) - 2|c|, sqrt(D))
        k = (b + s) // (2 * ac) if c > 0 else -((b + s) // (2 * ac))
    b2 = -b + 2 * c * k
    return c, b2, (b2 * b2 - d) // (4 * c), k


def reduce_indefinite(form):
    """Iterate rho until reduced; returns (reduced, U)."""
    d = disc_of(form)
    root = isqrt(d)
    if d <= 0 or root * root == d:
        raise ValueError(f"not an indefinite form of non-square disc: {form}")
    a, b, c = form
    p, q, r, s = 1, 0, 0, 1
    guard = 0
    while not _is_reduced(a, b, d, root):
        a, b, c, k = _rho(a, b, c, d, root)
        p, q, r, s = r, s, k * r - p, k * s - q
        guard += 1
        if guard > 10_000:
            raise MethodDisagreement(
                f"indefinite reduction failed to converge: {form}",
                operation="reduce_indefinite")
    return (a, b, c), ((p, q), (r, s))


def cycle_of(form):
    """The full rho-cycle of a reduced indefinite form, with transforms.

    Returns a list of (form, U) pairs; U maps the input (reduced) basis to
    the basis at that cycle position.  The input must already be reduced.
    """
    d = disc_of(form)
    root = isqrt(d)
    a0, b0, c0 = a, b, c = form
    p, q, r, s = 1, 0, 0, 1
    out = [(form, _IDENT)]
    while True:
        a, b, c, k = _rho(a, b, c, d, root)
        p, q, r, s = r, s, k * r - p, k * s - q
        u = ((p, q), (r, s))
        if a == a0 and b == b0 and c == c0:
            return out, u  # u = full-period transform (the automorph)
        out.append(((a, b, c), u))
        if len(out) > _MAX_CYCLE:
            raise SearchBudgetExceeded(
                f"cycle of {form} longer than {_MAX_CYCLE} forms",
                operation="cycle_of")


def _cycle_length(form, d, root):
    """The length of the rho-cycle of a reduced indefinite form, walked on
    its three coefficients alone, with cycle_of's budget and error."""
    a, b, c = form
    for steps in range(1, _MAX_CYCLE + 1):
        a, b, c, _ = _rho(a, b, c, d, root)
        if (a, b, c) == form:
            return steps
    raise SearchBudgetExceeded(
        f"cycle of {form} longer than {_MAX_CYCLE} forms",
        operation="cycle_of")


def reduced(form):
    """reduce_form(form)[0] without the transform: the same steps on the
    three coefficients alone, for callers that only classify a form."""
    a, b, c = form
    d = b * b - 4 * a * c
    if d < 0:
        if a < 0:
            a, b, c = -a, -b, -c
        while True:
            if c < a or (a == c and -a < b < 0):
                a, b, c = c, -b, a
            elif b > a or b <= -a:
                k = (a - b) // (2 * a)
                b, c = b + 2 * k * a, a * k * k + b * k + c
            else:
                return a, b, c
    root = isqrt(d)
    if d == 0 or root * root == d:
        raise ValueError(f"not an indefinite form of non-square disc: {form}")
    guard = 0
    while not _is_reduced(a, b, d, root):
        a, b, c, _ = _rho(a, b, c, d, root)
        guard += 1
        if guard > 10_000:
            raise MethodDisagreement(
                f"indefinite reduction failed to converge: {form}",
                operation="reduce_indefinite")
    return a, b, c


def reduce_form(form):
    """Sign-aware reduction: returns (reduced, U) for either signature."""
    d = disc_of(form)
    if d < 0:
        f = form if form[0] > 0 else (-form[0], -form[1], -form[2])
        red, u = reduce_definite(f)
        return red, u
    return reduce_indefinite(form)


def class_forms(form):
    """All canonical forms of the plain equivalence class of ``form``.

    Definite: the one reduced form (orientation is SL2-pinning there, so a
    class has a single canonical representative).  Indefinite: scaling the
    lattice by a negative-norm element lands, after re-orienting the basis,
    on (-a, b, -c); the class is the union of the rho-cycles of both.
    """
    d = disc_of(form)
    if d < 0:
        f = form if form[0] > 0 else tuple(-x for x in form)
        red, _ = reduce_definite(f)
        return frozenset([red])
    a, b, c = form
    red, _ = reduce_indefinite(form)
    cyc, _ = cycle_of(red)
    forms = {f for f, _ in cyc}
    redn, _ = reduce_indefinite((-a, b, -c))
    cycn, _ = cycle_of(redn)
    forms |= {f for f, _ in cycn}
    return frozenset(forms)


def class_label(form):
    """Canonical hashable label of the plain class: the minimal canonical form."""
    return min(class_forms(form))


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def compose(f1, f2):
    """Dirichlet composition of two primitive forms of one discriminant D.

    The united-form formula (Cohen, GTM 138, Alg. 5.4.7): with
    e = gcd(a1, a2, (b1 + b2)/2) = x*a1 + y*a2 + z*(b1 + b2)/2, the composite
    is (A, B, (B^2 - D) / 4A) with A = a1*a2 / e^2 and
    B = (x*a1*b2 + y*a2*b1 + z*(b1*b2 + D)/2) / e mod 2|A|.  The result is
    primitive of discriminant D but not reduced.
    """
    a1, b1, _ = f1
    a2, b2, _ = f2
    d = disc_of(f1)
    if disc_of(f2) != d:
        raise ValueError(f"forms of different discriminants: {f1}, {f2}")
    g, x, y = _xgcd(a1, a2)
    e, u, z = _xgcd(g, (b1 + b2) // 2)
    big_a = a1 * a2 // (e * e)
    big_b = ((u * x * a1 * b2 + u * y * a2 * b1 + z * (b1 * b2 + d) // 2) // e
             % (2 * abs(big_a)))
    return (big_a, big_b, (big_b * big_b - d) // (4 * big_a))


def reduced_reps_with_transforms(form):
    """(canonical form, U, sign) triples for aligning two equivalent lattices.

    Each U maps the original basis B to a basis U*B whose primitive form is
    sign * (listed form): sign +1 entries walk the cycle of the form itself,
    sign -1 entries walk the cycle of (-a, b, -c), whose members are the
    negated forms of the flipped bases (alpha, -beta) transformed along.
    """
    d = disc_of(form)
    out = []
    if d < 0:
        f = form if form[0] > 0 else tuple(-x for x in form)
        red, u = reduce_definite(f)
        out.append((red, u, 1))
        return out
    a, b, c = form
    red, u0 = reduce_indefinite(form)
    cyc, _ = cycle_of(red)
    for f, u in cyc:
        out.append((f, _mat_mul(u, u0), 1))
    flip = ((1, 0), (0, -1))
    redn, u0n = reduce_indefinite((-a, b, -c))
    cycn, _ = cycle_of(redn)
    for f, u in cycn:
        out.append((f, _mat_mul(_mat_mul(u, u0n), flip), -1))
    return out


# --- class numbers -------------------------------------------------------------

def reduced_definite_forms(d):
    """All reduced primitive positive definite forms of discriminant d < 0."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"not a negative discriminant: {d}")
    out = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            out.append((a, b, c))
        a += 1
    return out


def reduced_indefinite_forms(d):
    """All reduced primitive forms of non-square discriminant d > 0."""
    s = isqrt(d)
    if d <= 0 or d % 4 not in (0, 1) or s * s == d:
        raise ValueError(f"not a positive non-square discriminant: {d}")
    out = []
    for b in range(1, s + 1):
        if (d - b) % 2:
            continue
        num = b * b - d  # = 4ac < 0
        lo = (s - b) // 2 + 1  # |a| > (sqrt(D)-b)/2
        hi = (s + b) // 2      # |a| < (sqrt(D)+b)/2 -> |a| <= floor
        for aa in range(max(lo, 1), hi + 1):
            if num % (4 * aa):
                continue
            for a in (aa, -aa):
                c = num // (4 * a)
                f = (a, b, c)
                if content(f) != 1:
                    continue
                if is_reduced_indefinite(f, s):
                    out.append(f)
    return out


def form_class_count(d):
    """Number of plain classes of primitive forms of discriminant d.

    For d < 0 this is the count of reduced definite forms (each class has
    exactly one).  For d > 0 the reduced forms are partitioned by label.
    """
    if d < 0:
        return len(reduced_definite_forms(d))
    labels = {class_label(f) for f in reduced_indefinite_forms(d)}
    return len(labels)


# --- fundamental units ----------------------------------------------------------

def principal_form(d):
    """The principal form of discriminant d."""
    if d % 2 == 0:
        return (1, 0, -d // 4)
    return (1, 1, (1 - d) // 4)


def fundamental_unit_xy(d):
    """Fundamental unit (t + u*sqrt(d))/2 > 1 of the order of discriminant d.

    Returns (t, u) with t, u > 0 and t^2 - d u^2 = +-4.  Computed from the
    automorph of the principal cycle (continued-fraction reduction), then a
    square-root extraction in case the cycle only reaches the square of the
    fundamental unit (norm -1 fields).
    """
    if d <= 4 or isqrt(d) ** 2 == d or d % 4 not in (0, 1):
        raise ValueError(f"not a real quadratic discriminant: {d}")
    f0, _ = reduce_indefinite(principal_form(d))
    # The first pass walks the cycle on the coefficients alone, under
    # cycle_of's budget; the transform is carried once the cycle closes.
    root = isqrt(d)
    a, b, c = f0
    p, q, r, s = 1, 0, 0, 1
    for _ in range(_cycle_length(f0, d, root)):
        a, b, c, k = _rho(a, b, c, d, root)
        p, q, r, s = r, s, k * r - p, k * s - q
    period_u = ((p, q), (r, s))
    # The period transform is an automorph of f0: it acts on the basis
    # (1, tau) of the principal lattice as multiplication by a unit.
    t_, u_ = _unit_from_automorph(f0, period_u, d)
    # Try to take a square root: the cycle yields the smallest totally
    # positive automorph, which is eps^2 when N(eps) = -1.
    root = _unit_sqrt(t_, u_, d)
    while root is not None:
        t_, u_ = root
        root = _unit_sqrt(t_, u_, d)
    return t_, u_


def _unit_from_automorph(form, u, d):
    """Unit (t + v sqrt(d))/2 from an SL2 automorph of a reduced form."""
    a, b, _ = form
    # basis (alpha, beta) with beta/alpha = tau = (-b + sqrt(d)) / (2a);
    # the automorph acts as multiplication by x = p + q*tau where
    # U = [[p, q], [r, s]] maps (alpha, beta) to (x*alpha, x*beta).
    (p, q), (_r, _s) = u
    # beta/alpha = tau satisfies a t^2 - b t + c = 0, so tau = (b + sqrt(d))/(2a)
    # and x = p + q*tau = (2ap + qb + q sqrt(d)) / (2a); integrality needs a | qb, a | q.
    num_t = 2 * a * p + q * b
    num_v = q
    den = a
    if num_t % den or num_v % den:
        raise MethodDisagreement("automorph unit not integral",
                                 operation="fundamental_unit_xy")
    t_, v_ = num_t // den, num_v // den
    if t_ < 0:
        t_, v_ = -t_, -v_
    if v_ < 0:
        # conjugate; take the one > 1
        v_ = -v_
    if t_ * t_ - d * v_ * v_ not in (4, -4):
        raise MethodDisagreement("automorph did not give a unit",
                                 operation="fundamental_unit_xy")
    return t_, v_


def _unit_sqrt(t, u, d):
    """If (t + u sqrt d)/2 = eps^2 for a unit eps of the same order, return eps."""
    # eps = (x + y sqrt d)/2 with x^2 + d y^2 = 2t, x y = u and
    # x^2 - d y^2 = 4 N(eps), so x^2 = t + 2n and d y^2 = t - 2n for n = +-1.
    for n in (1, -1):
        x2, dy2 = t + 2 * n, t - 2 * n
        if x2 <= 0 or dy2 <= 0 or dy2 % d:
            continue
        x, y = isqrt(x2), isqrt(dy2 // d)
        if x * x == x2 and y * y == dy2 // d and x * y == u:
            return x, y
    return None
