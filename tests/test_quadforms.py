import random
from collections import deque
from math import isqrt

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


def test_definite_reduction_properties():
    rng = random.Random(3)
    for _ in range(200):
        f = random_form(rng, definite=True)
        red, u = qf.reduce_definite(f)
        assert apply_baschange(f, u) == red
        assert u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1
        a, b, c = red
        assert -a < b <= a <= c
        if a == c:
            assert b >= 0
        # idempotent
        red2, _ = qf.reduce_definite(red)
        assert red2 == red


def test_indefinite_reduction_properties():
    rng = random.Random(7)
    for _ in range(200):
        f = random_form(rng, definite=False)
        red, u = qf.reduce_indefinite(f)
        assert apply_baschange(f, u) == red
        assert u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1
        assert qf.is_reduced_indefinite(red)
        cyc, aut = qf.cycle_of(red)
        for g, w in cyc:
            assert qf.is_reduced_indefinite(g)
            assert apply_baschange(red, w) == g
        # the period transform is an automorph
        assert apply_baschange(red, aut) == red


def sl2_class_count(d, cap=400):
    """Oracle: SL2 orbits of reduced forms by breadth-first generator search."""
    if d < 0:
        return len(qf.reduced_definite_forms(d))
    forms = qf.reduced_indefinite_forms(d)
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
            if qf.is_reduced_indefinite(f):
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
        return len(qf.reduced_definite_forms(d))
    forms = qf.reduced_indefinite_forms(d)
    gens = (((0, 1), (-1, 0)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)))

    def orbit(f0, cap=400):
        seen = {f0}
        hits = set()
        queue = deque([f0])
        while queue:
            f = queue.popleft()
            if qf.is_reduced_indefinite(f):
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
        forms = qf.reduced_indefinite_forms(d)
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
    assert [len(qf.reduced_definite_forms(d))
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
    f0, _ = qf.reduce_indefinite(qf.principal_form(d))
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
    f0, _ = qf.reduce_indefinite(qf.principal_form(409))
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
    forms = (qf.reduced_definite_forms(d) if d < 0
             else qf.reduced_indefinite_forms(d))
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
        qf.reduce_definite((1, 1, -1))
    with pytest.raises(ValueError):
        qf.reduce_indefinite((1, 0, -4))  # square discriminant 16
    with pytest.raises(ValueError):
        qf.reduced_definite_forms(5)
    with pytest.raises(ValueError):
        qf.reduced_indefinite_forms(-4)
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
    assert qf.reduce_definite((a, b, c)) \
        == reduce_definite_by_matrices((a, b, c))
    assert qf.reduce_form((a, b, c)) == qf.reduce_form((-a, -b, -c)) \
        == reduce_definite_by_matrices((a, b, c))


@settings(max_examples=300, deadline=None)
@given(COEFF, COEFF, COEFF)
def test_indefinite_reduction_matches_matrix_route(a, b, c):
    assume(_indefinite(a, b, c))
    assert qf.reduce_indefinite((a, b, c)) \
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
    red, _ = qf.reduce_indefinite(qf.principal_form(4 * 94))
    with pytest.raises(SearchBudgetExceeded, match="longer than 3 forms"):
        qf.cycle_of(red)
    assert main(["order-info", "--field=-94,0,1"]) == 3
