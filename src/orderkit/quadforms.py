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

The reduction rules live in two kernels on bare integers, one per
signature (_reduce_definite, _reduce_indefinite).  reduce_form carries U
through the basis changes they report, reduced is the same call without
it, and the class-monoid census calls the kernels directly, once per pair
of ideals in opposite classes: the second takes the reduced form of its
class from _opposite_definite or _opposite_indefinite.  One walk on the
coefficients alone (_cycle) takes the indefinite kernel's step from each
reduced form to the next, gives the rho-cycle and holds the cycle budget;
class_forms is reduced plus that walk, and cycle_of carries U along the
walked cycle; a LabelMap keeps the class_forms of each class it meets, so
a computation that labels many forms walks each class once.  The
fundamental unit is read off the automorph that cycle_of returns for the
principal form.

reduced_forms lists the reduced primitive forms of a discriminant d on
the census's root walk (modular.quadratic_roots_upto), in O(sqrt|d|)
moduli; form_class_count counts their classes, h(O_L) for class_monoid.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import MethodDisagreement, SearchBudgetExceeded
from .modular import quadratic_roots_upto

# Longest rho-cycle that _cycle walks before giving up.
_MAX_CYCLE = 100_000


def disc_of(form):
    a, b, c = form
    return b * b - 4 * a * c


def content(form):
    return gcd(*form)


def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


# --- reduction -------------------------------------------------------------------
# One kernel per signature works on bare integers and holds the reduction
# rules; reduced, reduce_form, _cycle and the class-monoid census all call
# them.  A kernel given a list ``ops`` appends each basis change it makes:
# None for the swap (alpha, beta) -> (beta, -alpha), k for the translation
# beta -> beta + k*alpha; reduce_form multiplies them out into U.

# rho steps the indefinite kernel takes before it gives up
_MAX_REDUCTION_STEPS = 10_000


def _reduce_definite(a, b, c, d=None, s=None, ops=None):
    """The reduced form of the positive definite form (a, b, c), a > 0:
    -a < b <= a <= c, with b >= 0 if a == c.  The roles of a and c swap
    while c < a, with b translated into (-a, a] after each swap; a last swap
    makes b >= 0 when a == c.  d and s are not read: they keep the two
    kernels' arguments alike."""
    while True:
        if c < a:
            a, b, c = c, -b, a
            if ops is not None:
                ops.append(None)
        if b > a or b <= -a:
            # the unique k giving -a < b + 2ka <= a
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, (a * k + b) * k + c
            if ops is not None:
                ops.append(k)
        if c >= a:
            break
    if a == c and b < 0:
        b = -b
        if ops is not None:
            ops.append(None)
    return a, b, c


def _reduce_indefinite(a, b, c, d, s, ops=None, step=False):
    """The reduced form reached from (a, b, c), of non-square discriminant
    d > 0 with s = isqrt(d), by rho steps: (a, b, c) -> (c, b', c') with
    b' = -b + 2ck in (-|c|, |c|] if |c| > sqrt(d), else in
    (sqrt(d) - 2|c|, sqrt(d)), for the basis change
    (alpha, beta) -> (beta, -alpha + k*beta).  With ``step`` exactly one
    step is taken, whatever the form: from a reduced form, the next form of
    its cycle.  More than _MAX_REDUCTION_STEPS steps raise
    MethodDisagreement."""
    guard = _MAX_REDUCTION_STEPS
    while True:
        if 0 < b <= s and not step:  # b < sqrt(d) <=> b <= s, d non-square
            t = 2 * abs(a)
            # reduced: sqrt(d) < t + b, and t - b < sqrt(d)
            if (t + b) ** 2 > d and (t <= b or (t - b) ** 2 < d):
                return a, b, c
        ac = abs(c)
        k = (b + (ac if ac > s else s)) // (2 * ac)
        if c < 0:
            k = -k
        b = 2 * c * k - b
        a, c = c, (b * b - d) // (4 * c)
        if ops is not None:
            ops += (None, k)
        if step:
            return a, b, c
        guard -= 1
        if guard < 0:
            raise MethodDisagreement(
                f"indefinite reduction of discriminant {d} failed to "
                f"converge within {_MAX_REDUCTION_STEPS} steps",
                operation="reduce_form")


def _opposite_definite(a, b, c):
    """The reduced form of the class opposite to that of the reduced
    definite form (a, b, c), the class of (a, -b, c): that form itself,
    unless it is not reduced, which happens when b = a (a translation gives
    back (a, a, c)) or when a = c with b > 0 (the swap gives (a, b, a));
    for b = 0 it is (a, b, c)."""
    return (a, b, c) if b == 0 or b == a or a == c else (a, -b, c)


def _opposite_indefinite(a, b, c):
    """A reduced form of the class opposite to that of the reduced
    indefinite form (a, b, c): (c, b, a), which is (a, -b, c) after the
    swap (x, y) -> (y, -x).  It is reduced, because |ac| = (d - b^2) / 4
    makes |sqrt(d) - 2|a|| < b hold for c as it does for a, so it lies in
    the rho-cycle of the opposite class (Cohen, GTM 138, 5.6)."""
    return c, b, a


def _reduce(form, ops=None):
    """The kernel of the form's signature applied to it; a negative definite
    form is negated first, and a square discriminant is a ValueError."""
    a, b, c = form
    d = b * b - 4 * a * c
    if d < 0:
        if a < 0:
            a, b, c = -a, -b, -c
        return _reduce_definite(a, b, c, d, 0, ops)
    root = isqrt(d)
    if d == 0 or root * root == d:
        raise ValueError(f"not an indefinite form of non-square disc: {form}")
    return _reduce_indefinite(a, b, c, d, root, ops)


def reduce_form(form):
    """Reduce a form of either signature; returns (reduced, U) with U in SL2.

    Definite: the sign is made positive, then swaps and translations reach
    -a < b <= a <= c, with b >= 0 if a == c.  Indefinite (non-square disc):
    rho steps until reduced.  U is carried as its four entries p, q, r, s
    through the kernel's basis changes.
    """
    ops = []
    red = _reduce(form, ops)
    p, q, r, s = 1, 0, 0, 1
    for k in ops:
        if k is None:
            p, q, r, s = r, s, -p, -q
        else:
            r, s = r + k * p, s + k * q
    return red, ((p, q), (r, s))


def reduced(form):
    """reduce_form(form)[0] without the transform, for callers that only
    classify a form."""
    return _reduce(form)


# --- cycles and classes ----------------------------------------------------------

def _cycle(form):
    """The rho-cycle of a reduced indefinite form as a list of forms, starting
    at form, walked on the three coefficients alone.  The one holder of the
    cycle budget: more than _MAX_CYCLE forms raise SearchBudgetExceeded."""
    d = disc_of(form)
    root = isqrt(d)
    a, b, c = form
    out = [form]
    while True:
        a, b, c = _reduce_indefinite(a, b, c, d, root, None, True)
        if (a, b, c) == form:
            return out
        out.append((a, b, c))
        if len(out) > _MAX_CYCLE:
            raise SearchBudgetExceeded(
                f"cycle of {form} longer than {_MAX_CYCLE} forms",
                operation="cycle_of", limit=_MAX_CYCLE, consumed=len(out))


def cycle_of(form):
    """The full rho-cycle of a reduced indefinite form, with transforms.

    Returns (pairs, automorph): pairs lists (form, U), where U maps the input
    (reduced) basis to the basis at that cycle position, and the automorph
    is the full-period transform.  The cycle is walked first; the step from
    (a, b, c) to (c, b', .) has k = (b + b') / 2c, which carries U.
    """
    forms = _cycle(form)
    p, q, r, s = 1, 0, 0, 1
    out = []
    for f, nxt in zip(forms, forms[1:] + forms[:1]):
        out.append((f, ((p, q), (r, s))))
        k = (f[1] + nxt[1]) // (2 * f[2])
        p, q, r, s = r, s, k * r - p, k * s - q
    return out, ((p, q), (r, s))


def class_forms(form):
    """All canonical forms of the plain equivalence class of ``form``.

    Definite: the one reduced form (orientation is SL2-pinning there, so a
    class has a single canonical representative).  Indefinite: scaling the
    lattice by a negative-norm element lands, after re-orienting the basis,
    on (-a, b, -c); the class is the union of the rho-cycles of both.
    """
    a, b, c = form
    if b * b - 4 * a * c < 0:
        return frozenset([reduced(form)])
    return frozenset(_cycle(reduced(form)) + _cycle(reduced((-a, b, -c))))


def class_label(form):
    """Canonical hashable label of the plain class: the minimal canonical form."""
    return min(class_forms(form))


class LabelMap(dict):
    """Reduced form -> (label, class_forms) of its plain class, for one
    computation.  A class is walked by class_forms once, when the first of
    its reduced forms is looked up; every canonical form of it then finds
    the class by one dict lookup.  Keys are reduced forms; label takes any
    primitive form and reduces it first."""

    __slots__ = ()

    def __missing__(self, form):
        forms = class_forms(form)
        entry = min(forms), forms
        for f in forms:
            self[f] = entry
        return entry

    def label(self, form):
        """class_label(form), through the map."""
        return self[reduced(form)][0]


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
    red, u0 = reduce_form(form)
    if disc_of(form) < 0:
        return [(red, u0, 1)]
    a, b, c = form
    out = [(f, _mat_mul(u, u0), 1) for f, u in cycle_of(red)[0]]
    flip = ((1, 0), (0, -1))
    redn, u0n = reduce_form((-a, b, -c))
    for f, u in cycle_of(redn)[0]:
        out.append((f, _mat_mul(_mat_mul(u, u0n), flip), -1))
    return out


# --- class numbers -------------------------------------------------------------

def reduced_forms(d):
    """All reduced primitive forms of discriminant d, sorted: positive
    definite ones for d < 0, both signs of a for a non-square d > 0.

    A form (a, b, c) of discriminant d has b = 2r + e, e = d mod 2, for a
    root r of r^2 + e*r + (e - d)/4 mod a (Cohen, GTM 138, 5.3-5.6).
    d < 0: a <= isqrt(|d|/3), b is taken into (-a, a], then c >= a, with
    b >= 0 when a = c.  d > 0: a <= s = isqrt(d), b steps by 2a through
    max(2a - s, s + 1 - 2a, 1) <= b <= s, that is |sqrt(d) - 2a| < b <
    sqrt(d), and (a, b, c) gives (-a, b, -c) too."""
    s = isqrt(abs(d))
    if d % 4 > 1 or d == 0 or d > 0 and s * s == d:
        raise ValueError(f"not a negative or non-square discriminant: {d}")
    e = d & 1
    out = []
    if d < 0:
        for a, rs in quadratic_roots_upto(e, (e - d) // 4, isqrt(-d // 3)):
            for r in rs:
                b = 2 * r + e
                if b > a:
                    b -= 2 * a
                c = (b * b - d) // (4 * a)
                if c >= a and (b >= 0 or a != c) and gcd(a, b, c) == 1:
                    out.append((a, b, c))
    else:
        for a, rs in quadratic_roots_upto(e, (e - d) // 4, s):
            two_a = 2 * a
            lo = max(two_a - s, s + 1 - two_a, 1)
            for r in rs:
                for b in range(lo + (2 * r + e - lo) % two_a, s + 1, two_a):
                    c = (b * b - d) // (4 * a)
                    if gcd(a, b, c) == 1:
                        out += (a, b, c), (-a, b, -c)
    out.sort()
    return out


def form_class_count(d, labels=None):
    """Number of plain classes of primitive forms of discriminant d.

    For d < 0 this is the count of reduced definite forms (each class has
    exactly one).  For d > 0 the reduced forms are partitioned by class
    through a LabelMap (``labels``, or a fresh one), which walks each class
    once: a reduced form of a class already walked is a lookup.
    """
    forms = reduced_forms(d)
    if d < 0:
        return len(forms)
    labels = LabelMap() if labels is None else labels
    return len({labels[f][0] for f in forms})


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
    f0 = reduced(principal_form(d))
    # The period transform is an automorph of f0: it acts on the basis
    # (1, tau) of the principal lattice as multiplication by a unit.
    t_, u_ = _unit_from_automorph(f0, cycle_of(f0)[1], d)
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
