import random
import re
import time
from collections import deque
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orderkit import quadforms as qf


def apply_baschange(form, m):
    """Form of the basis (p*alpha + q*beta, r*alpha + s*beta), m = [[p,q],[r,s]]."""
    a, b, c = form
    (p, q), (r, s) = m
    a2 = a * p * p + b * p * q + c * q * q
    c2 = a * r * r + b * r * s + c * s * s
    b2 = 2 * a * p * r + b * (p * s + q * r) + 2 * c * q * s
    return (a2, b2, c2)


def fundamental_unit_brute(d, limit=10_000_000):
    """Oracle: smallest unit > 1 by direct search on u in (t+u sqrt d)/2."""
    u = 1
    while u <= limit:
        hits = []
        for pm in (4, -4):
            t2 = d * u * u + pm
            if t2 > 0:
                t = isqrt(t2)
                if t * t == t2:
                    hits.append(t)
        if hits:
            return min(hits), u
        u += 1
    raise AssertionError("no unit found within limit")


def random_form(rng, definite):
    while True:
        a = rng.randint(1, 12)
        b = rng.randint(-12, 12)
        if definite:
            # force b^2 - 4ac < 0
            c = rng.randint((b * b) // (4 * a) + 1, (b * b) // (4 * a) + 12)
        else:
            c = rng.randint(-12, -1)
        d = b * b - 4 * a * c
        if definite and d < 0:
            return (a, b, c)
        if not definite and d > 0 and isqrt(d) ** 2 != d:
            return (a, b, c)


# --- the reduced-form scans, the oracle of quadforms.reduced_forms ---------------
# Each scans about |d| / 4 pairs (a, b): O(|d|) where the root walk of
# reduced_forms is O(sqrt|d|).

def is_reduced_indefinite(form, s=None):
    """|sqrt(D) - 2|a|| < b < sqrt(D), checked with exact integer arithmetic:
    the indefinite kernel leaves exactly the reduced forms unchanged."""
    a, b, c = form
    d = b * b - 4 * a * c
    s = isqrt(d) if s is None else s
    return qf._reduce_indefinite(a, b, c, d, s) == (a, b, c)


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
                if qf.content(f) != 1:
                    continue
                if is_reduced_indefinite(f, s):
                    out.append(f)
    return out


def reduced_forms_by_scan(d):
    return sorted(reduced_definite_forms(d) if d < 0
                  else reduced_indefinite_forms(d))


def _valid(d):
    return d % 4 < 2 and d != 0 and (d < 0 or isqrt(d) ** 2 != d)


def test_reduced_forms_match_scans():
    valid = [d for d in range(-2999, 3000) if _valid(d) and abs(d) > 3]
    assert len(valid) == 2943
    for d in valid:
        assert qf.reduced_forms(d) == reduced_forms_by_scan(d), d


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3000, 4 * 10 ** 6), st.booleans())
def test_reduced_forms_match_scans_sampled(n, negative):
    d = -n if negative else n
    assume(_valid(d))
    assert qf.reduced_forms(d) == reduced_forms_by_scan(d)


@pytest.mark.parametrize("d", [0, 1, 4, 9, 16, 2, 3, -1, -2, -5, 6, 7, -6,
                               -26])
def test_reduced_forms_reject_non_discriminants(d):
    with pytest.raises(ValueError):
        qf.reduced_forms(d)


def test_definite_reduction_properties():
    rng = random.Random(3)
    for _ in range(200):
        f = random_form(rng, definite=True)
        red, u = qf.reduce_form(f)
        assert apply_baschange(f, u) == red
        assert u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1
        a, b, c = red
        assert -a < b <= a <= c
        if a == c:
            assert b >= 0
        # idempotent
        red2, _ = qf.reduce_form(red)
        assert red2 == red


def test_indefinite_reduction_properties():
    rng = random.Random(7)
    for _ in range(200):
        f = random_form(rng, definite=False)
        red, u = qf.reduce_form(f)
        assert apply_baschange(f, u) == red
        assert u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1
        assert is_reduced_indefinite(red)
        cyc, aut = qf.cycle_of(red)
        for g, w in cyc:
            assert is_reduced_indefinite(g)
            assert apply_baschange(red, w) == g
        # the period transform is an automorph
        assert apply_baschange(red, aut) == red


def sl2_class_count(d, cap=400):
    """Oracle: SL2 orbits of reduced forms by breadth-first generator search."""
    if d < 0:
        return len(reduced_definite_forms(d))
    forms = reduced_indefinite_forms(d)
    gens = (((0, 1), (-1, 0)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)))
    orbits = []
    done = set()
    for f0 in forms:
        if f0 in done:
            continue
        seen = {f0}
        hits = set()
        queue = deque([f0])
        while queue:
            f = queue.popleft()
            if is_reduced_indefinite(f):
                hits.add(f)
            for m in gens:
                g = apply_baschange(f, m)
                if g not in seen and all(abs(x) <= cap for x in g):
                    seen.add(g)
                    queue.append(g)
        orbits.append(hits)
        done.update(hits)
    return len(orbits)


def plain_class_count_oracle(d):
    """Oracle for the plain (any-scalar) class count: SL2 orbits merged by
    the negative-norm-scaling involution f -> (-a, b, -c)."""
    if d < 0:
        return len(reduced_definite_forms(d))
    forms = reduced_indefinite_forms(d)
    gens = (((0, 1), (-1, 0)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)))

    def orbit(f0, cap=400):
        seen = {f0}
        hits = set()
        queue = deque([f0])
        while queue:
            f = queue.popleft()
            if is_reduced_indefinite(f):
                hits.add(f)
            for m in gens:
                g = apply_baschange(f, m)
                if g not in seen and all(abs(x) <= cap for x in g):
                    seen.add(g)
                    queue.append(g)
        return frozenset(hits)

    classes = []
    done = set()
    for f in forms:
        if f in done:
            continue
        o = orbit(f)
        a, b, c = f
        o = o | orbit((-a, b, -c))
        classes.append(o)
        done.update(o)
    return len(classes)


def test_cycles_are_sl2_classes():
    for d in (5, 8, 13, 40, 60, 136, 145):
        forms = reduced_indefinite_forms(d)
        cycles = []
        done = set()
        for f in forms:
            if f in done:
                continue
            cyc, _ = qf.cycle_of(f)
            members = {g for g, _ in cyc}
            cycles.append(members)
            done.update(members)
        assert len(cycles) == sl2_class_count(d), d
        # each cycle is one orbit: members never straddle two cycles
        for m1 in cycles:
            for m2 in cycles:
                assert m1 == m2 or not (m1 & m2)


def test_class_counts_match_oracle():
    for d in (-3, -4, -7, -8, -11, -15, -20, -23, -24, -36, -47, -108,
              5, 8, 12, 13, 17, 40, 60, 65, 85, 104, 136, 145):
        assert qf.form_class_count(d) == plain_class_count_oracle(d), d


def class_count_by_labels(d):
    """Oracle: form_class_count of d > 0 before the label map, the number
    of distinct class_label values of the reduced forms."""
    return len({qf.class_label(f) for f in reduced_indefinite_forms(d)})


REAL_DISCS = [d for d in range(5, 1200)
              if d % 4 in (0, 1) and isqrt(d) ** 2 != d]


def test_class_count_walks_each_class_once(monkeypatch):
    walks = []
    cycle = qf._cycle

    def counted(form):
        walks.append(form)
        return cycle(form)

    monkeypatch.setattr(qf, "_cycle", counted)
    for d in REAL_DISCS:
        walks.clear()
        h = qf.form_class_count(d)
        assert len(walks) == 2 * h, d  # class_forms walks two cycles
    monkeypatch.setattr(qf, "_cycle", cycle)
    for d in REAL_DISCS[::14]:
        assert qf.form_class_count(d) == class_count_by_labels(d) \
            == plain_class_count_oracle(d), d
    for d in REAL_DISCS:
        assert qf.form_class_count(d) == class_count_by_labels(d), d


def test_label_map_matches_class_label():
    rng = random.Random(18)
    labels = qf.LabelMap()
    for _ in range(300):
        f = random_form(rng, definite=rng.random() < 0.5)
        assert labels.label(f) == qf.class_label(f)
        red = qf.reduced(f)
        assert labels[red] == (qf.class_label(f), qf.class_forms(f))


def test_class_label_consistency():
    rng = random.Random(19)
    for _ in range(60):
        f = random_form(rng, definite=rng.random() < 0.5)
        # label is invariant along the class construction itself
        for g in qf.class_forms(f):
            assert qf.class_label(g) == qf.class_label(f)


def test_principal_form():
    assert qf.principal_form(-4) == (1, 0, 1)
    assert qf.principal_form(5) == (1, 1, -1)
    assert qf.disc_of(qf.principal_form(-23)) == -23
    assert qf.disc_of(qf.principal_form(136)) == 136


def test_fundamental_units_against_brute():
    for d in (5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 40, 44, 60, 61,
              76, 92, 124, 136, 152, 172, 184, 188):
        t, u = qf.fundamental_unit_xy(d)
        assert t * t - d * u * u in (4, -4)
        assert (t, u) == fundamental_unit_brute(d)


def test_fundamental_unit_norm_signs():
    # norm -1 exists for 5, 8, 13; not for 12, 24 (those have norm +4 only)
    for d, sign in ((5, -4), (8, -4), (13, -4), (12, 4), (24, 4)):
        t, u = qf.fundamental_unit_xy(d)
        assert t * t - d * u * u == sign


def test_definite_form_counts_classical():
    # counted directly from the reduced-triple inequalities, these are the
    # reduced-form class numbers used for the maximal-order class count
    assert [len(qf.reduced_forms(d))
            for d in (-3, -4, -15, -23, -47, -71)] == [1, 1, 2, 3, 5, 7]


def test_fundamental_unit_with_large_coefficients():
    # the unit of disc 409 has 11- and 12-digit coefficients, so the square
    # root step must not walk the divisors of u
    t, u = qf.fundamental_unit_xy(409)
    assert (t, u) == (223843593936, 11068353370)
    assert t * t - 409 * u * u == -4
    assert qf._unit_sqrt(t, u, 409) is None
    # eps^2 = ((t^2 + d u^2)/2 + t u sqrt(d))/2 gives eps back
    assert qf._unit_sqrt((t * t + 409 * u * u) // 2, t * u, 409) == (t, u)


def unit_by_cycle_list(d):
    """Oracle: the unit from the automorph that cycle_of returns with the
    cycle's list of forms and transforms, then square roots taken."""
    f0, _ = qf.reduce_form(qf.principal_form(d))
    _, period_u = qf.cycle_of(f0)
    t, u = qf._unit_from_automorph(f0, period_u, d)
    root = qf._unit_sqrt(t, u, d)
    while root is not None:
        t, u = root
        root = qf._unit_sqrt(t, u, d)
    return t, u


@settings(max_examples=150, deadline=None)
@given(st.integers(5, 200_000))
def test_fundamental_unit_matches_cycle_list(d):
    assume(d % 4 in (0, 1) and isqrt(d) ** 2 != d)
    assert qf.fundamental_unit_xy(d) == unit_by_cycle_list(d)


def test_fundamental_unit_budget_as_cycle_of(monkeypatch):
    # the coefficient walk raises at the cycle length where cycle_of does
    f0, _ = qf.reduce_form(qf.principal_form(409))
    length = len(qf.cycle_of(f0)[0])
    monkeypatch.setattr(qf, "_MAX_CYCLE", length)
    assert qf.fundamental_unit_xy(409) == unit_by_cycle_list(409)
    monkeypatch.setattr(qf, "_MAX_CYCLE", length - 1)
    for route in (qf.fundamental_unit_xy, unit_by_cycle_list):
        with pytest.raises(qf.SearchBudgetExceeded,
                           match=rf"longer than {length - 1} forms"):
            route(409)


# --- composition -------------------------------------------------------------

COMPOSE_DISCS = (-20, -23, -56, -84, -108, -120, -144, -255, -576,
                 5, 40, 72, 136, 145, 180, 316, 405, 892)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMPOSE_DISCS), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_compose_keeps_disc_and_primitivity(d, i, j):
    forms = qf.reduced_forms(d)
    f, g = forms[i % len(forms)], forms[j % len(forms)]
    h = qf.compose(f, g)
    assert qf.disc_of(h) == d and qf.content(h) == 1
    assert qf.class_label(h) == qf.class_label(qf.compose(g, f))
    # the principal form is the identity, (a, -b, c) the inverse
    one = qf.class_label(qf.principal_form(d))
    assert qf.class_label(qf.compose(f, qf.principal_form(d))) \
        == qf.class_label(f)
    a, b, c = f
    assert qf.class_label(qf.compose(f, (a, -b, c))) == one


def test_compose_rejects_mixed_discriminants():
    with pytest.raises(ValueError):
        qf.compose((1, 0, 5), (1, 1, 6))


def test_bad_input_raises_value_error():
    with pytest.raises(ValueError):
        qf.reduce_form((1, 0, -4))  # square discriminant 16
    with pytest.raises(ValueError):
        qf.reduced_forms(6)  # 2 mod 4
    with pytest.raises(ValueError):
        qf.reduced_forms(16)  # a square
    with pytest.raises(ValueError):
        qf.fundamental_unit_xy(16)


# --- reduction against the matrix-product route --------------------------------
# The reduction as it was written before transforms were carried as four
# integers: every step multiplies out a 2x2 matrix.  Kept as the oracle.

def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


_IDENT = ((1, 0), (0, 1))


def reduce_definite_by_matrices(form):
    a, b, c = form
    u = _IDENT
    while True:
        if c < a:
            step = ((0, 1), (-1, 0))
            a, b, c = c, -b, a
            u = _mat_mul(step, u)
            continue
        if b > a or b <= -a:
            k = (a - b) // (2 * a)
            step = ((1, 0), (k, 1))
            b2 = b + 2 * k * a
            c2 = a * k * k + b * k + c
            b, c = b2, c2
            u = _mat_mul(step, u)
            continue
        if a == c and b < 0:
            step = ((0, 1), (-1, 0))
            a, b, c = c, -b, a
            u = _mat_mul(step, u)
            continue
        return (a, b, c), u


def rho_step_by_matrices(form, s):
    a, b, c = form
    d = qf.disc_of(form)
    ac = abs(c)
    if ac > s:
        k = (b + ac) // (2 * ac) if c > 0 else -((b + ac) // (2 * ac))
    else:
        k = (b + s) // (2 * ac) if c > 0 else -((b + s) // (2 * ac))
    b2 = -b + 2 * c * k
    c2 = (b2 * b2 - d) // (4 * c)
    return (c, b2, c2), ((0, 1), (-1, k))


def is_reduced_by_matrices(form, s):
    a, b, c = form
    d = qf.disc_of(form)
    if b <= 0 or b > s:
        return False
    t = 2 * abs(a)
    if (t + b) ** 2 <= d:
        return False
    if t > b and (t - b) ** 2 >= d:
        return False
    return True


def reduce_indefinite_by_matrices(form):
    s = isqrt(qf.disc_of(form))
    u = _IDENT
    f = form
    while not is_reduced_by_matrices(f, s):
        f, step = rho_step_by_matrices(f, s)
        u = _mat_mul(step, u)
    return f, u


def cycle_by_matrices(form):
    s = isqrt(qf.disc_of(form))
    out = [(form, _IDENT)]
    f, u = form, _IDENT
    while True:
        f, step = rho_step_by_matrices(f, s)
        u = _mat_mul(step, u)
        if f == form:
            return out, u
        out.append((f, u))


def _indefinite(a, b, c):
    d = b * b - 4 * a * c
    return d > 0 and isqrt(d) ** 2 != d


COEFF = st.integers(-10 ** 6, 10 ** 6)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 6), COEFF, st.integers(1, 10 ** 6))
def test_definite_reduction_matches_matrix_route(a, b, c):
    assume(b * b < 4 * a * c)
    assert qf.reduce_form((a, b, c)) \
        == reduce_definite_by_matrices((a, b, c))
    assert qf.reduce_form((a, b, c)) == qf.reduce_form((-a, -b, -c)) \
        == reduce_definite_by_matrices((a, b, c))


@settings(max_examples=300, deadline=None)
@given(COEFF, COEFF, COEFF)
def test_indefinite_reduction_matches_matrix_route(a, b, c):
    assume(_indefinite(a, b, c))
    assert qf.reduce_form((a, b, c)) \
        == reduce_indefinite_by_matrices((a, b, c))
    assert qf.reduce_form((a, b, c)) \
        == reduce_indefinite_by_matrices((a, b, c))


# Cycle lengths grow like the square root of the discriminant, so the cycle
# comparison takes coefficients up to 10^3 (discriminants up to ~5 * 10^6).
@settings(max_examples=150, deadline=None)
@given(st.integers(-10 ** 3, 10 ** 3), st.integers(-10 ** 3, 10 ** 3),
       st.integers(-10 ** 3, 10 ** 3))
def test_cycle_matches_matrix_route(a, b, c):
    assume(_indefinite(a, b, c))
    red, _ = reduce_indefinite_by_matrices((a, b, c))
    assert qf.cycle_of(red) == cycle_by_matrices(red)


@settings(max_examples=300, deadline=None)
@given(COEFF, COEFF, COEFF, st.integers(1, 12))
def test_reduced_matches_reduce_form(a, b, c, k):
    # both signs of a definite form, indefinite forms, and multiples by k of
    # each: reduced keeps the content and drops only the transform
    d = b * b - 4 * a * c
    assume(d < 0 or _indefinite(a, b, c))
    for form in ((a, b, c), (-a, -b, -c), (k * a, k * b, k * c)):
        assert qf.reduced(form) == qf.reduce_form(form)[0]


@pytest.mark.parametrize("form", [(0, 1, 0), (1, 2, 1), (2, 5, 2)])
def test_reduced_rejects_square_discriminants(form):
    with pytest.raises(ValueError):
        qf.reduced(form)


def test_cycle_guard_is_a_budget_error(monkeypatch):
    from orderkit.cli import main
    from orderkit.errors import SearchBudgetExceeded
    # the principal cycle of discriminant 4 * 94 has more than 3 forms
    monkeypatch.setattr(qf, "_MAX_CYCLE", 3)
    red, _ = qf.reduce_form(qf.principal_form(4 * 94))
    with pytest.raises(SearchBudgetExceeded, match="longer than 3 forms"):
        qf.cycle_of(red)
    assert main(["order-info", "--field=-94,0,1"]) == 3


# --- class forms against the transform-carrying route ---------------------------

def class_forms_by_transforms(form):
    """Oracle: the forms that reduce_form and cycle_of reach from (a, b, c)
    and, for indefinite forms, from (-a, b, -c)."""
    a, b, c = form
    red, _ = qf.reduce_form(form)
    if b * b - 4 * a * c < 0:
        return frozenset([red])
    redn, _ = qf.reduce_form((-a, b, -c))
    return frozenset(f for start in (red, redn)
                     for f, _ in qf.cycle_of(start)[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 3, 10 ** 3), st.integers(-10 ** 3, 10 ** 3),
       st.integers(-10 ** 3, 10 ** 3))
def test_class_forms_match_transform_route(a, b, c):
    assume(b * b < 4 * a * c or _indefinite(a, b, c))
    assert qf.class_forms((a, b, c)) == class_forms_by_transforms((a, b, c))


def test_long_cycle_budget_trips_before_transforms():
    # a reduced form whose cycle is longer than the budget: the coefficient
    # walk raises before any transform is carried
    form = (1, 31622775, -25324853)
    assert is_reduced_indefinite(form)
    for route in (qf.class_label, qf.cycle_of):
        start = time.perf_counter()
        with pytest.raises(qf.SearchBudgetExceeded,
                           match=rf"longer than {qf._MAX_CYCLE} forms"):
            route(form)
        assert time.perf_counter() - start < 1.0


SRC = Path(__file__).resolve().parent.parent / "src" / "orderkit"


def test_cycle_step_and_budgets_stay_home():
    def users(pattern):
        names = re.compile(pattern)
        return sorted(path.name for path in SRC.glob("*.py")
                      if names.search(path.read_text()))

    assert users(r"\b(_rho|_MAX_CYCLE)\b") == ["quadforms.py"]
    # one copy of the reduction rules: the kernels' step guard and the
    # translation k = (a - b) // (2a) appear in quadforms alone
    assert users(r"\b_MAX_REDUCTION_STEPS\b|\(a - b\) // \(2 \* a\)") \
        == ["quadforms.py"]
    assert users(r"\b_POWER_BUDGET_FACTOR\b") == ["orders.py"]


# --- the bare-integer kernels against reduce_form --------------------------------

def kernel_of(form):
    """The kernel of the form's signature applied to it as the census
    calls it: (a, b, c, d, isqrt(d)) for d > 0, (a, b, c, d, 0) for d < 0."""
    a, b, c = form
    d = b * b - 4 * a * c
    if d < 0:
        return qf._reduce_definite(a, b, c, d, 0)
    return qf._reduce_indefinite(a, b, c, d, isqrt(d))


@settings(max_examples=400, deadline=None)
@given(COEFF, COEFF, COEFF, st.integers(1, 30))
def test_kernels_match_reduce_form(a, b, c, g):
    # a content g goes through the kernel unchanged: g*f reduces to
    # g*reduced(f), with the discriminant g^2 * disc(f)
    d = b * b - 4 * a * c
    assume(d < 0 or _indefinite(a, b, c))
    if d < 0 and a < 0:
        a, b, c = -a, -b, -c
    red = qf.reduce_form((a, b, c))[0]
    assert kernel_of((a, b, c)) == red
    assert kernel_of((g * a, g * b, g * c)) == tuple(g * x for x in red)
    assert qf.reduce_form((g * a, g * b, g * c))[0] == tuple(g * x
                                                             for x in red)


def test_indefinite_kernel_guard(monkeypatch):
    # (-39, -91, -42) is 2 rho steps from its reduced form (10, 33, -16)
    form = (-39, -91, -42)
    assert qf.reduced(form) == reduce_indefinite_by_matrices(form)[0] \
        == (10, 33, -16)
    monkeypatch.setattr(qf, "_MAX_REDUCTION_STEPS", 1)
    for route in (qf.reduced, qf.reduce_form, kernel_of):
        with pytest.raises(qf.MethodDisagreement,
                           match="failed to converge within 1 steps"):
            route(form)


SMALL = st.integers(-3000, 3000)


@settings(max_examples=300, deadline=None)
@given(SMALL, SMALL, SMALL, st.integers(1, 6))
def test_opposite_reduced_form(a, b, c, g):
    # the census takes the reduced form of the opposite class (a, -b, c)
    # from that of (a, b, c): definite, the reduced form itself; indefinite,
    # a reduced form of its rho-cycle; contents as the census meets them.
    # Coefficients up to 3,000 keep the cycles walked short
    d = b * b - 4 * a * c
    assume(d < 0 or _indefinite(a, b, c))
    if d < 0 and a < 0:
        a, b, c = -a, -b, -c
    red = kernel_of((g * a, g * b, g * c))
    opp = kernel_of((g * a, -g * b, g * c))
    if d < 0:
        assert qf._opposite_definite(*red) == opp
    else:
        got = qf._opposite_indefinite(*red)
        assert kernel_of(got) == got
        assert got in qf._cycle(opp)
