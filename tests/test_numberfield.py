import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orderkit.errors import DegreeMismatch, NotMonic, Reducible
from orderkit.numberfield import (
    RATIONAL_FIELD,
    embedding_count,
    integer_roots,
    is_irreducible,
    make_field,
    normal_closure_degree,
    poly_discriminant,
    poly_eval,
    real_root_count,
    roots_in_field,
    squarefree_part,
)


def is_totally_real(field):
    return field.signature[0] == field.degree


class TestConstruction:
    def test_gaussian(self):
        f = make_field([1, 0, 1])
        assert f.degree == 2
        assert f.signature == (0, 1)
        assert f.poly_disc == -4

    def test_real_quadratic(self):
        f = make_field([-2, 0, 1])
        assert f.signature == (2, 0)
        assert is_totally_real(f)

    def test_golden_disc(self):
        assert make_field([-1, -1, 1]).poly_disc == 5

    def test_reducible_rejected(self):
        with pytest.raises(Reducible):
            make_field([-1, 0, 1])
        with pytest.raises(Reducible):
            make_field([0, 1, 1])

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            make_field([1, 0, 2])
        with pytest.raises(NotMonic):
            make_field([5])

    def test_rational_field_convention(self):
        assert RATIONAL_FIELD.degree == 1
        assert RATIONAL_FIELD.signature == (1, 0)


class TestIrreducibility:
    def test_known_irreducible(self):
        for p in ([7, 0, 1], [-1, -1, 0, 1], [-1, -1, 0, 0, 0, 1],
                  [1, 1, 1, 1, 1], [1, 0, 0, 0, 1], [-2, 0, 0, 1]):
            assert is_irreducible(p), p

    def test_known_reducible(self):
        # x^5 + x - 1 = (x^2 - x + 1)(x^3 + x^2 - 1): no rational root
        assert not is_irreducible([-1, 1, 0, 0, 0, 1])
        assert not is_irreducible([1, 2, 1])
        assert not is_irreducible([-4, 0, 1])
        # degree-6 product of two cubics
        from orderkit.numberfield import poly_mul
        p = poly_mul([-1, -1, 0, 1], [1, 2, 0, 1])
        assert not is_irreducible(p)

    def test_random_products_detected(self):
        rng = random.Random(31)
        from orderkit.numberfield import poly_mul
        for _ in range(40):
            d1, d2 = rng.choice([(1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4)])
            a = [rng.randint(-4, 4) for _ in range(d1)] + [1]
            b = [rng.randint(-4, 4) for _ in range(d2)] + [1]
            assert not is_irreducible(poly_mul(a, b))


class TestQuadraticIrreducibility:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-3, 3))
    def test_square_discriminant_matches_root_route(self, r, s, delta):
        # (x - r)(x - s) + delta: reducible at delta = 0 and near it
        # otherwise.  A monic integer quadratic factors over Q iff it has an
        # integer root; integer_roots finds one from the divisors of b0
        p = [r * s + delta, -(r + s), 1]
        assert is_irreducible(p) == (p[0] != 0 and not integer_roots(p))

    def test_large_constant_term_is_fast(self):
        import time
        t0 = time.perf_counter()
        field = make_field([-(10 ** 15 + 37), 0, 1])
        assert time.perf_counter() - t0 < 1.0
        assert field.signature == (2, 0)
        with pytest.raises(Reducible):
            make_field([-(10 ** 15 + 37) ** 2, 0, 1])


class TestSturm:
    def bisection_root_count(self, p, lo=None, hi=None):
        # oracle: sign changes of p on a fine rational grid, plus exact roots;
        # the grid covers the Cauchy bound 1 + max|coeff|
        if lo is None:
            bound = 1 + max(abs(c) for c in p)
            lo, hi = -bound, bound
        count = 0
        step = Fraction(1, 8)
        x = Fraction(lo)
        prev = poly_eval(p, x)
        while x < hi:
            x += step
            cur = poly_eval(p, x)
            if cur == 0:
                count += 1
                prev = cur
                continue
            if prev == 0:
                prev = cur
                continue
            if (prev > 0) != (cur > 0):
                count += 1
            prev = cur
        return count

    @pytest.mark.parametrize("p,expected", [
        ([-2, 0, 1], 2),
        ([5, 0, 1], 0),
        ([-1, -1, 0, 1], 1),
        ([-1, -3, 0, 1], 3),
        ([1, 0, 0, 0, 1], 0),
        ([-1, -1, 0, 0, 0, 1], 1),
    ])
    def test_known_counts(self, p, expected):
        assert real_root_count(p) == expected
        assert self.bisection_root_count(p) == expected

    def test_random_against_bisection(self):
        rng = random.Random(17)
        for _ in range(40):
            deg = rng.randint(1, 5)
            p = [rng.randint(-5, 5) for _ in range(deg)] + [1]
            from orderkit.numberfield import resultant, poly_derivative
            if resultant(p, poly_derivative(p)) == 0:
                continue  # oracle assumes simple roots
            assert real_root_count(p) == self.bisection_root_count(p)


class TestSignature:
    """Degree 2 reads the signature off the sign of the discriminant; higher
    degrees count real roots by Sturm, which stays the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 8),
           st.sampled_from([1, -1]))
    def test_quadratic_matches_sturm(self, b1, m, sign):
        # disc = b1^2 - 4*b0 = (b1^2 mod 4) + 4*sign*m has the drawn sign
        b0 = b1 * b1 // 4 - sign * m
        disc = b1 * b1 - 4 * b0
        assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
        f = make_field([b0, b1, 1])
        r = real_root_count([b0, b1, 1])
        assert r == (2 if sign > 0 else 0)
        assert f.signature == (r, (2 - r) // 2)

    def test_quadratic_needs_no_sturm(self, monkeypatch):
        from orderkit import numberfield
        monkeypatch.setattr(numberfield, "real_root_count",
                            lambda p: pytest.fail("Sturm in degree 2"))
        assert make_field([5, 1, 1]).signature == (0, 1)
        assert make_field([-3, 1, 1]).signature == (2, 0)
        assert make_field([7, 1]).signature == (1, 0)

    @pytest.mark.parametrize("p,signature", [
        ([-2, 0, 0, 1], (1, 1)),
        ([-1, -3, 0, 1], (3, 0)),
        ([-2, 0, 0, 0, 1], (2, 1)),
        ([1, 0, 0, 0, 1], (0, 2)),
    ])
    def test_higher_degree_goes_through_sturm(self, monkeypatch, p,
                                              signature):
        from orderkit import numberfield
        calls = []

        def counted(q):
            calls.append(list(q))
            return real_root_count(q)

        monkeypatch.setattr(numberfield, "real_root_count", counted)
        assert make_field(p).signature == signature
        assert calls == [p]


class TestArithmetic:
    def test_norm_trace_examples(self, gaussian_field, field_sqrt2,
                                 field_minus5):
        one_plus_i = gaussian_field.one() + gaussian_field.gen()
        assert one_plus_i.norm() == 2
        assert field_sqrt2.gen().trace() == 0
        el = field_minus5.from_rational(2) + field_minus5.gen()
        assert el.norm() == 9

    def test_ring_laws_random(self):
        rng = random.Random(41)
        fields = [make_field([1, 0, 1]), make_field([-1, -1, 0, 1]),
                  make_field([1, 1, 0, 0, 1])]
        for f in fields:
            elems = [f.element([Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                                for _ in range(f.degree)]) for _ in range(5)]
            for a in elems:
                for b in elems:
                    assert a * b == b * a
                    assert a + b == b + a
                    for c in elems:
                        assert (a * b) * c == a * (b * c)
                        assert a * (b + c) == a * b + a * c

    def test_norm_multiplicative(self):
        rng = random.Random(43)
        f = make_field([-1, -3, 0, 1])
        for _ in range(25):
            a = f.element([rng.randint(-5, 5) for _ in range(3)])
            b = f.element([rng.randint(-5, 5) for _ in range(3)])
            assert (a * b).norm() == a.norm() * b.norm()

    def test_inverse_division(self, gaussian_field):
        rng = random.Random(47)
        for _ in range(20):
            a = gaussian_field.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            if a.is_zero():
                continue
            assert a * a.inverse() == gaussian_field.one()
            assert (a / a) == gaussian_field.one()

    def test_min_poly_annihilates(self):
        rng = random.Random(53)
        f = make_field([-1, -1, 0, 1])
        for _ in range(20):
            e = f.element([rng.randint(-4, 4) for _ in range(3)])
            mp = e.min_poly()
            assert mp[-1] == 1
            acc = f.zero()
            for k, c in enumerate(mp):
                acc = acc + (e ** k) * c
            assert acc.is_zero()

    def test_min_poly_of_generator(self, gaussian_field):
        assert gaussian_field.gen().min_poly() == [1, 0, 1]
        e = gaussian_field.one() + gaussian_field.gen()
        assert e.min_poly() == [2, -2, 1]


class TestEmbeddings:
    def coordinate_oracle(self, k, l):
        # solve k.min_poly(u + v*theta) = 0 directly for quadratics
        assert k.degree == 2 and l.degree == 2
        count = 0
        b1, b0 = k.coeffs[1], k.coeffs[0]
        delta = Fraction(b1 * b1 - 4 * b0)
        from orderkit.numberfield import _rational_sqrts_in_field
        roots = _rational_sqrts_in_field(delta, l)
        seen = set()
        for r in roots:
            y = (l.from_rational(-b1) + r) * Fraction(1, 2)
            seen.add(y.coords)
        return len(seen)

    def test_unique_from_rationals(self):
        for coeffs in ([1, 0, 1], [-2, 0, 1], [-1, -1, 0, 1]):
            assert embedding_count(RATIONAL_FIELD, make_field(coeffs)) == 1

    def test_quadratic_cases(self):
        qi = make_field([1, 0, 1])
        r2 = make_field([-2, 0, 1])
        f5 = make_field([5, 0, 1])
        for k, l, expected in ((qi, qi, 2), (r2, f5, 0), (r2, r2, 2),
                               (f5, qi, 0), (f5, f5, 2)):
            assert embedding_count(k, l) == expected
            assert self.coordinate_oracle(k, l) == expected

    def test_cubic_and_quartic(self):
        galois_cubic = make_field([-1, -3, 0, 1])   # disc 81
        plain_cubic = make_field([-1, -1, 0, 1])    # disc -23
        assert embedding_count(galois_cubic, galois_cubic) == 3
        assert embedding_count(plain_cubic, plain_cubic) == 1
        zeta8 = make_field([1, 0, 0, 0, 1])
        assert embedding_count(make_field([1, 0, 1]), zeta8) == 2
        assert embedding_count(make_field([-2, 0, 1]), zeta8) == 2
        assert embedding_count(make_field([5, 0, 1]), zeta8) == 0

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            embedding_count(make_field([1, 0, 1]), make_field([-1, -1, 0, 1]))

    def test_at_most_normal_closure_degree(self):
        fields = [make_field(c) for c in
                  ([1, 0, 1], [-2, 0, 1], [5, 0, 1], [-1, -1, 1], [3, 0, 1])]
        for k in fields:
            for l in fields:
                t = embedding_count(k, l)
                nc, _ = normal_closure_degree(l)
                assert t <= nc

    def test_roots_in_field(self, gaussian_field):
        roots = roots_in_field([1, 0, 1], gaussian_field)
        assert sorted(r.coords for r in roots) == [
            (Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1))]
        assert roots_in_field([-2, 0, 1], gaussian_field) == []


class TestNormalClosure:
    def test_cases(self):
        assert normal_closure_degree(make_field([-2, 0, 1])) == (2, True)
        assert normal_closure_degree(make_field([-1, -3, 0, 1])) == (3, True)
        assert normal_closure_degree(make_field([-1, -1, 0, 1])) == (6, True)
        assert normal_closure_degree(make_field([-1, -1, 0, 0, 0, 1])) == (120, False)
        assert normal_closure_degree(RATIONAL_FIELD) == (1, True)

    def test_cubic_disc_oracle(self):
        # for x^3 + px + q the discriminant is -4p^3 - 27q^2
        for p, q in ((-3, -1), (-1, -1), (-4, 2), (2, 2)):
            poly = [q, p, 0, 1]
            assert poly_discriminant(poly) == -4 * p ** 3 - 27 * q ** 2
            if is_irreducible(poly):
                m, _ = squarefree_part(poly_discriminant(poly))
                expected = (3, True) if m == 1 else (6, True)
                assert normal_closure_degree(make_field(poly)) == expected


signed_integer = st.one_of(
    st.integers(-10 ** 8, 10 ** 8),
    st.builds(lambda a, b: a * b * b, st.integers(-10 ** 4, 10 ** 4),
              st.integers(1, 100)),
).filter(bool)


@settings(max_examples=200, deadline=None)
@given(signed_integer)
def test_squarefree_part_property(n):
    m, s = squarefree_part(n)
    assert s >= 1 and s * s * m == n
    assert all(m % (p * p) for p in range(2, math.isqrt(abs(m)) + 1))


def test_squarefree_part_keeps_factor_table_small():
    # the discriminant of x^2 + 1000003 is below 2^22: factoring it must not
    # grow modular.factorize's sieve table to the size of the input
    from orderkit import modular
    assert squarefree_part(-4_000_012) == (-1_000_003, 2)
    assert len(modular._SPF) <= 1 << 19


def test_factor_table_capped_after_doubling(monkeypatch):
    # a table length that is not a power of two must not double past 2^18
    from orderkit import modular
    monkeypatch.setattr(modular, "_SPF", [0, 1])
    for n in (5000, 10002, 20004, 40008, 80016, 160032, 200000):
        assert modular.factorize(n)
    assert len(modular._SPF) <= 1 << 18


@settings(max_examples=300, deadline=None)
@given(st.integers(1 << 18, 1 << 62))
def test_factorize_above_table(n):
    from orderkit import modular
    f = modular.factorize(n)
    assert math.prod(p ** e for p, e in f.items()) == n
    assert all(modular.is_prime(p) for p in f)
    assert list(f) == sorted(f)


@pytest.mark.parametrize("n,expected", [
    ((2 ** 61 - 1) * (2 ** 31 - 1), {2 ** 31 - 1: 1, 2 ** 61 - 1: 1}),
    (2 ** 64 + 1, {274177: 1, 67280421310721: 1}),
    (7 * 999983 ** 2, {7: 1, 999983: 2}),
])
def test_factorize_splits_large_composites(n, expected):
    from orderkit import modular
    assert modular.factorize(n) == expected


def test_rho_budget_is_a_budget_error(monkeypatch):
    from orderkit import modular
    from orderkit.errors import SearchBudgetExceeded
    monkeypatch.setattr(modular, "_RHO_BUDGET", 4)
    with pytest.raises(SearchBudgetExceeded):
        modular.factorize(1000003 * 1000033)


def test_maximal_order_of_large_discriminant_is_fast():
    import time
    from orderkit.orders import maximal_order
    start = time.perf_counter()
    om = maximal_order(make_field([-(10 ** 15 + 37), 0, 1]))
    assert time.perf_counter() - start < 1.0
    assert om.disc() == 10 ** 15 + 37  # square-free and 1 mod 4


# --- degree-2 closed forms against the generic route -------------------------

def _quadratic_field(b0, b1):
    """x^2 + b1 x + b0 as a field, or None when it factors over Q."""
    d = b1 * b1 - 4 * b0
    if d >= 0 and math.isqrt(d) ** 2 == d:
        return None
    return make_field([b0, b1, 1])


coefficient = st.integers(min_value=-60, max_value=60)
coordinate = st.fractions(min_value=-50, max_value=50, max_denominator=40)


class TestQuadraticClosedForms:
    @settings(max_examples=200, deadline=None)
    @given(coefficient, coefficient, coordinate, coordinate, coordinate,
           coordinate)
    def test_against_generic_route(self, b0, b1, a0, a1, c0, c1):
        field = _quadratic_field(b0, b1)
        assume(field is not None)
        x, y = field.element([a0, a1]), field.element([c0, c1])
        prod = x * y
        assert prod == x._mul_generic(y)
        assert all(type(c) is Fraction for c in prod.coords)
        assert x.norm() == x._norm_generic()
        assert x.trace() == x._trace_generic()
        assert type(x.norm()) is Fraction and type(x.trace()) is Fraction
        if not x.is_zero():
            inv = x.inverse()
            assert inv == x._inverse_generic()
            assert x * inv == field.one()

    def test_zero_has_no_inverse(self, gaussian_field):
        with pytest.raises(ZeroDivisionError):
            gaussian_field.zero().inverse()

    def test_other_degrees_take_generic_route(self):
        cubic = make_field([-2, 0, 0, 1])
        x = cubic.element([1, Fraction(1, 2), 3])
        # N(a + b t + c t^2) = a^3 + 2 b^3 + 4 c^3 - 6abc when t^3 = 2
        assert x.norm() == Fraction(401, 4)
        assert x * x.inverse() == cubic.one()


# --- integer routes of the generic norm and the factor search ----------------

def norm_by_fraction_matrix(x):
    """Oracle: the determinant of the Fraction multiplication matrix, cleared
    of denominators and taken by Bareiss."""
    from orderkit.intmat import _det_bareiss
    rows = x.mult_matrix()
    den = 1
    for r in rows:
        for c in r:
            den = den * c.denominator // math.gcd(den, c.denominator)
    int_rows = [[int(c * den) for c in r] for r in rows]
    return Fraction(_det_bareiss(int_rows), den ** len(rows))


HIGHER_DEGREE_FIELDS = [
    make_field([-2, 0, 0, 1]),         # x^3 - 2
    make_field([-1, -3, 0, 1]),        # x^3 - 3x - 1
    make_field([5, -7, 2, 1]),         # x^3 + 2x^2 - 7x + 5
    make_field([1, 0, 0, 0, 1]),       # x^4 + 1
    make_field([3, -2, 0, 5, 1]),      # x^4 + 5x^3 - 2x + 3
]


class TestIntegerGenericRoutes:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(HIGHER_DEGREE_FIELDS),
           st.lists(coordinate, min_size=4, max_size=4))
    def test_norm_against_fraction_matrix(self, field, coords):
        x = field.element(coords[:field.degree])
        norm = x.norm()
        assert type(norm) is Fraction
        assert norm == x._norm_generic() == norm_by_fraction_matrix(x)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=4),
           st.lists(st.integers(-20, 20), min_size=0, max_size=5))
    def test_divides_monic_against_poly_divmod(self, q_low, p_low):
        from orderkit.numberfield import _divides_monic, poly_divmod, poly_mul
        q = q_low + [1]
        for p in (p_low + [1], poly_mul(q, p_low + [1])):
            _, rem = poly_divmod(p, q)
            assert _divides_monic(p, q) == (not rem)


@pytest.mark.parametrize("n", [1, 2, 12, 36, 97, 720, 2 ** 10 * 3 ** 4,
                               -360, 1000003 * 1000033])
def test_signed_divisors_from_factorization(n):
    from orderkit.modular import factorize
    from orderkit.numberfield import _signed_divisors
    small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
    divs = sorted(set(small) | {abs(n) // d for d in small})
    assert _signed_divisors(factorize(n)) == [x for d in divs for x in (d, -d)]


def test_cubic_with_large_constant_is_fast():
    import time
    start = time.perf_counter()
    field = make_field([-(10 ** 15 + 37), 0, 0, 1])
    assert time.perf_counter() - start < 1.0
    assert field.degree == 3


def test_unsplit_constant_is_a_budget_error(monkeypatch):
    from orderkit import modular
    from orderkit.errors import SearchBudgetExceeded
    monkeypatch.setattr(modular, "_RHO_BUDGET", 4)
    with pytest.raises(SearchBudgetExceeded):
        make_field([-1000003 * 1000033, 0, 0, 1])


def test_candidate_budget_checked_before_divisor_lists(monkeypatch):
    from orderkit import numberfield
    from orderkit.errors import SearchBudgetExceeded

    def no_lists(factors):
        raise AssertionError("a divisor list was built over budget")
    monkeypatch.setattr(numberfield, "_signed_divisors", no_lists)
    # x^4 + 720720: 240 divisors at 0 alone, 480 signed, past a budget of 100
    with pytest.raises(SearchBudgetExceeded, match="exceeds budget 100"):
        list(numberfield._monic_factor_candidates([720720, 0, 0, 0, 1], 2,
                                                   budget=100))
