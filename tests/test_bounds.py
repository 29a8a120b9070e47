import decimal
import json
import math
from decimal import Decimal

import pytest

from orderkit.errors import NotPrime
from orderkit.modular import factorize
from orderkit.bounds import (
    BigBound,
    SIntegerSpec,
    cor_p1n,
    e_exponent,
    es_gl2_bounds,
    forget_chain_bound,
    level_structure_bounds,
    pol_degree_bound,
    thm_a_height,
    thm_b,
    thm_endobound,
    thm_main_count,
    thm_main_height,
)

EMPTY = SIntegerSpec(())


def radical(n):
    """The product of the distinct primes dividing n >= 1."""
    return math.prod(factorize(n))


class TestSIntegerSpec:
    def test_empty_product(self):
        assert EMPTY.n_value() == 1

    def test_product(self):
        assert SIntegerSpec((2, 3, 7)).n_value() == 42

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            SIntegerSpec((6,))

    def test_radical_bridge(self):
        assert radical(12 * 10) == 30

    def test_from_string(self):
        assert SIntegerSpec.from_string("").n_value() == 1
        assert SIntegerSpec.from_string("2,3").n_value() == 6


class TestBigBound:
    def test_exact_small(self):
        b = BigBound([(3, 144)])
        assert b.exact_flag and b.exact_value == 3 ** 144
        assert b.digit_count == 69
        assert b.digit_count == len(str(b.exact_value))

    def test_log_agreement_12_places(self):
        import math
        for factors in ([(3, 144)], [(2, 100), (7, 31)], [(10, 12)],
                        [(6, 24), (3, 144)]):
            b = BigBound(factors)
            independent = Decimal(sum(e * math.log10(base)
                                      for base, e in factors))
            assert abs(b.log10 - independent) < Decimal("1e-9")
            assert b.digit_count == len(str(b.exact_value))

    def test_log_only_above_threshold(self):
        b = BigBound([(2, 10 ** 9)])
        assert not b.exact_flag and b.exact_value is None
        assert b.digit_count == 301029996

    def test_digit_certification_width(self):
        b = BigBound([(2, 16777216)])
        lo, hi = b.log10_interval()
        assert hi - lo < Decimal("1e-6")
        assert b.digit_count == 5050446

    def test_certified_le(self):
        small = BigBound([(2, 100)])
        big = BigBound([(2, 200)])
        assert small.certified_le(big)
        assert not big.certified_le(small)

    def test_trivial(self):
        one = BigBound([])
        assert one.exact_value == 1 and one.digit_count == 1

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            BigBound([(0, 5)])
        with pytest.raises(ValueError):
            BigBound([(2, -1)])

    def test_json_dict_shape(self):
        b = BigBound([(3, 144)])
        d = b.to_json_dict("thm-main-height", {"g": 1})
        assert set(d) == {"formula_id", "inputs", "log10", "digit_count",
                          "exact_flag", "exact_value"}
        json.dumps(d)  # serializable


class TestHeightBounds:
    def test_main_height_g1(self):
        b = thm_main_height(1, EMPTY)
        assert b.exact_value == 3 ** 144
        assert b.digit_count == 69

    def test_main_height_with_primes(self):
        b = thm_main_height(1, SIntegerSpec((2,)))
        assert b.exact_value == 3 ** 144 * 2 ** 24

    def test_main_height_g2(self):
        b = thm_main_height(2, EMPTY)
        assert b.exact_value == 6 ** 288
        assert b.digit_count == 225

    def test_a_height(self):
        b = thm_a_height(1, 6, EMPTY)
        assert b.exact_value == 3 ** 144 * 6 ** 24

    def test_convention_coherence(self):
        # nu, N_S squarefree coprime: N_U = rad(nu N_S) makes the two
        # conventions evaluate to the same number
        for g, nu, primes in ((1, 1, ()), (1, 6, ()), (2, 5, (2, 3)),
                              (1, 1, (7,)), (3, 10, (3, 7))):
            spec = SIntegerSpec(primes)
            n_u = radical(nu * spec.n_value())
            spec_u = SIntegerSpec(factorize(n_u))
            lhs = thm_a_height(g, nu, spec)
            rhs = thm_main_height(g, spec_u)
            assert lhs.exact_value == rhs.exact_value
            assert lhs.exact_value == \
                (3 * g) ** (144 * g) * (nu * spec.n_value()) ** 24


class TestCountBounds:
    def test_exponents(self):
        assert e_exponent(1) == 16777216
        assert e_exponent(2) == 4294967296

    def test_headline_g1(self):
        head, sharp = thm_main_count(1, EMPTY, 1, 1)
        assert head.digit_count == 5050446
        assert sharp.certified_le(head)

    def test_scaling_linear_in_pic(self):
        h1, _ = thm_main_count(1, EMPTY, 1, 1)
        h2, _ = thm_main_count(1, EMPTY, 2, 1)
        assert h2.exact_value == 2 * h1.exact_value

    def test_infinity_marker(self):
        assert thm_main_count(1, EMPTY, 1, None) == (None, None)
        # height still evaluates in that regime
        assert thm_main_height(1, EMPTY).digit_count == 69

    def test_g2_log_only(self):
        head, sharp = thm_main_count(2, EMPTY, 1, 1)
        assert not head.exact_flag
        assert sharp.certified_le(head)

    def test_thm_b(self):
        b = thm_b(1, EMPTY, 1)
        assert b.digit_count == 5050446
        assert thm_b(1, SIntegerSpec((3,)), 1).factors == ((6, 16777216),)
        assert thm_b(1, EMPTY, 5).exact_value == 5 * 2 ** 16777216


class TestEsBounds:
    def test_g1(self):
        h, c, i = es_gl2_bounds(1, EMPTY)
        assert h.exact_value == 3 ** 144
        assert c.factors == ((14, 531441),)
        assert i.factors == ((14, 248832),)

    def test_exponent_arithmetic(self):
        assert (9 * 1) ** 6 == 531441
        assert (12 * 1) ** 5 == 248832
        assert (18 * 1) ** 4 == 104976
        _, c2, _ = es_gl2_bounds(2, EMPTY)
        assert c2.factors == ((28, 18 ** 6),)
        assert 18 ** 6 == 34012224

    def test_isogeny_ns_exponent(self):
        _, _, i = es_gl2_bounds(1, SIntegerSpec((5,)))
        assert i.factors == ((14, 248832), (5, 50653))
        assert 37 ** 3 == 50653


class TestEndoBound:
    def test_uniform_d_g1(self):
        b = thm_endobound(1, EMPTY, 1, 1, 1)
        assert b.factors == ((14, 248832 * 3),)

    def test_override_unity(self):
        b = thm_endobound(1, EMPTY, 1, 1, 1, d_override=1)
        assert b.exact_value == 1

    def test_small_exact(self):
        b = thm_endobound(2, EMPTY, 4, 1, 2, d_override=1)
        assert b.exact_value == 4 ** 3 * 2 == 128

    def test_exponent_shape(self):
        b = thm_endobound(2, EMPTY, 3, 5, 6, d_override=7)
        assert b.exact_value == 7 ** 10 * 3 ** 3 * 5 * 6

    def test_log10_past_the_default_precision(self):
        # log10 >= 10^13 at g = 10: 14 integer and 15 decimal places pass the
        # 28 digits of the default decimal context.  log10 is the midpoint
        # of [lo, hi] to 15 places, so within half a unit of the 15th place
        b = thm_endobound(10, EMPTY, 1, 1, 1)
        lo, hi = b.log10_interval()
        ctx, half = decimal.Context(prec=60), Decimal("5e-16")
        assert ctx.subtract(lo, half) <= b.log10 <= ctx.add(hi, half)
        assert b.log10.as_tuple().exponent == -15
        assert b.digit_count == int(b.log10) + 1 == int(lo) + 1
        # below 10^13 the default precision suffices, and log10 reads as it did
        assert (str(thm_endobound(9, EMPTY, 1, 1, 1).log10)
                == "5277288137298.675318346156390")


class TestCorP1n:
    def test_reduces_to_thm_a(self):
        h, _ = cor_p1n(1, 1, EMPTY, 1)
        assert h.exact_value == thm_a_height(1, 1, EMPTY).exact_value

    def test_height_n5(self):
        h, _ = cor_p1n(1, 5, EMPTY, 1)
        assert h.exact_value == 3 ** 144 * 5 ** 24

    def test_count_factor(self):
        _, c = cor_p1n(1, 5, EMPTY, 1)
        assert c.factors == ((10, 16777216),)

    def test_level_bound_used_for_p1(self):
        assert level_structure_bounds("p1_n", 5, 2) == 625


class TestLevelAndDegreeBounds:
    def test_level_bounds(self):
        assert level_structure_bounds("principal_n", 3, 1) == 81
        assert level_structure_bounds("p1_n", 4, 1) == 16
        assert level_structure_bounds("mordell_a") == 24

    def test_pol_degree(self):
        assert pol_degree_bound(1) == 2
        assert pol_degree_bound(3) == 8

    def test_forget_chain(self):
        b = forget_chain_bound(16, 2, BigBound([(7, 1)]))
        assert b.exact_value == 16 * 4 * 7


class TestMonotonicity:
    def test_nondecreasing_grids(self):
        prev = None
        for g in (1, 2, 3):
            b = thm_main_height(g, EMPTY)
            if prev is not None:
                assert prev.certified_le(b)
            prev = b
        specs = [EMPTY, SIntegerSpec((2,)), SIntegerSpec((2, 3)),
                 SIntegerSpec((2, 3, 5))]
        for series in (lambda s: thm_main_height(1, s),
                       lambda s: thm_b(1, s, 1),
                       lambda s: es_gl2_bounds(2, s)[2],
                       lambda s: thm_endobound(1, s, 1, 1, 1)):
            prev = None
            for s in specs:
                b = series(s)
                if prev is not None:
                    lo_prev, _ = prev.log10_interval()
                    _, hi_cur = b.log10_interval()
                    assert lo_prev <= hi_cur
                    assert prev.certified_le(b) or prev.factors == b.factors
                prev = b
        vals = [thm_a_height(1, nu, EMPTY).exact_value for nu in (1, 2, 3, 4)]
        assert vals == sorted(vals)
        counts = [thm_main_count(1, EMPTY, pic, 1)[0] for pic in (1, 2, 3)]
        for a, b in zip(counts, counts[1:]):
            assert a.certified_le(b)
        lvls = [thm_main_count(1, EMPTY, 1, lvl)[0] for lvl in (1, 2, 4)]
        for a, b in zip(lvls, lvls[1:]):
            assert a.certified_le(b)
