import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orderkit import ideals, modular, orders, quadforms
from orderkit.errors import (
    FactorizationViolation,
    IndexTooLarge,
    OrderMismatch,
    SearchBudgetExceeded,
)
from orderkit.intmat import Lattice, enumerate_intermediate_lattices
from orderkit.numberfield import make_field
from orderkit.orders import (
    conductor,
    escaping_product,
    fundamental_unit,
    is_order,
    maximal_order,
)
from orderkit.ideals import (
    generated_ideal,
    FractionalIdeal,
    IdealClass,
    class_label,
    class_monoid,
    colon_ideal,
    ideal_form,
    ideal_product,
    intermediate_classes,
    is_equivalent,
    is_invertible,
    picard_group,
    principal_ideal,
    unit_ideal,
    verify_monoid_table,
    _stable_ideal_pairs,
    _standard_ideal,
)


def equivalence_bruteforce(i: FractionalIdeal, j: FractionalIdeal, radius=30):
    """Oracle: exhaustive small-element scaling search, no theory involved."""
    basis = colon_ideal(j, i).elements()
    g = i.order.degree
    for combo in itertools.product(range(-radius, radius + 1), repeat=g):
        if all(c == 0 for c in combo):
            continue
        x = i.order.field.zero()
        for c, b in zip(combo, basis):
            x = x + b * c
        if x.is_zero():
            continue
        if i.scale(x).lattice == j.lattice:
            return x
    return None


def stable_pairs_per_modulus(gamma, bound):
    """Oracle: the census of stable pairs by one sqrts_mod(disc, 4a) per a,
    keeping the first b that each root y of y^2 = disc mod 4a gives."""
    t, n = gamma.omega_data()
    d = t * t - 4 * n
    for a in range(1, bound + 1):
        seen = set()
        for y in modular.sqrts_mod(d, 4 * a):
            if (y - t) % 2:
                continue
            b = ((y - t) // 2) % a
            if b in seen:
                continue
            seen.add(b)
            yield a, b


def census_by_reduce_form(gamma, budget, form_to_class):
    """Oracle: the census audit with each primitive form reduced by
    reduce_form, its transform computed and dropped; returns (ideals
    checked, class indices hit, first (a, b) in no class or None)."""
    hit = set()
    checked = 0
    for a, b, form in ideals._census_forms(gamma, budget):
        checked += 1
        g = quadforms.content(form)
        red, _ = quadforms.reduce_form(tuple(x // g for x in form))
        idx = form_to_class.get(red)
        if idx is None:
            return checked, hit, (a, b)
        hit.add(idx)
    return checked, hit, None


def invertible_by_colon(i):
    """Oracle: I * (Gamma : I) = Gamma, by a colon ideal and a product."""
    inv = colon_ideal(unit_ideal(i.order), i)
    return ideal_product(i, inv).lattice == i.order.lattice


def search_by_field_elements(i, j):
    """Oracle: the box search of _search_equivalence with every candidate
    built as x = x + b * c over the colon basis' FieldElements."""
    ratio = j.norm_index() / i.norm_index()
    basis = colon_ideal(j, i).elements()
    g = i.order.degree
    for radius in (4, 8, 16, 32, 64):
        for combo in itertools.product(range(-radius, radius + 1), repeat=g):
            x = i.order.field.zero()
            for c, b in zip(combo, basis):
                x = x + b * c
            if x.is_zero() or abs(x.norm()) != ratio:
                continue
            if i.scale(x).lattice == j.lattice:
                return x
    return None


def product_labels_by_lattices(classes):
    """Oracle: every pair of class representatives multiplied as lattices."""
    return [[class_label(ideal_product(ci.representative, cj.representative))
             for cj in classes] for ci in classes]


def picard_by_lattices(gamma):
    """Oracle: the Picard classes with each census ideal built as a lattice,
    its form taken by ideal_form, and invertibility by the colon route."""
    d = gamma.disc()
    found = {}
    for a, b in _stable_ideal_pairs(gamma, math.isqrt(abs(d)) + 1):
        ideal = _standard_ideal(gamma, a, b)
        form = ideal_form(ideal)
        if quadforms.disc_of(form) != d:
            continue
        lab = quadforms.class_label(form)
        if lab not in found:
            rep = ideal.primitive()
            found[lab] = IdealClass(rep, invertible_by_colon(rep), lab)
    return tuple(sorted(found.values(), key=lambda c: c.label))


# imaginary and real, maximal and non-maximal quadratic orders
COMPOSE_ORDERS = [
    ([1, 0, 1], [[1, 0], [0, 2]]),      # Z[2i]
    ([5, 0, 1], [[1, 0], [0, 1]]),      # Z[sqrt(-5)]
    ([14, 0, 1], [[1, 0], [0, 1]]),     # Z[sqrt(-14)], Pic of order 4
    ([-2, 0, 1], [[1, 0], [0, 3]]),     # Z[3 sqrt(2)]
    ([-5, 0, 1], [[1, 0], [0, 1]]),     # Z[sqrt(5)]
    ([-1, -1, 1], [[1, 0], [0, 3]]),    # Z[3 (1 + sqrt(5)) / 2]
    ([-10, 0, 1], [[1, 0], [0, 1]]),    # Z[sqrt(10)], Pic of order 2
    ([-79, 0, 1], [[1, 0], [0, 1]]),    # Z[sqrt(79)], Pic of order 3
]
_INVERTIBLE_CENSUS = {}


def invertible_census(k):
    """The invertible census ideals of index up to 40 of COMPOSE_ORDERS[k]."""
    if k not in _INVERTIBLE_CENSUS:
        gamma = is_order(make_field(COMPOSE_ORDERS[k][0]), COMPOSE_ORDERS[k][1])
        ideals_k = [_standard_ideal(gamma, a, b)
                    for a, b in _stable_ideal_pairs(gamma, 40)]
        _INVERTIBLE_CENSUS[k] = [i for i in ideals_k if invertible_by_colon(i)]
    return _INVERTIBLE_CENSUS[k]


def ideal_from_rows(order, rows, den=1):
    return FractionalIdeal(order, Lattice.from_rows(
        [[Fraction(x, den) for x in row] for row in rows], order.degree))


class TestArithmetic:
    def test_product_identity(self, z_sqrt_minus5):
        gamma = unit_ideal(z_sqrt_minus5)
        i = ideal_from_rows(z_sqrt_minus5, [[2, 0], [1, 1]])
        assert ideal_product(gamma, i) == i

    def test_genus_example(self, field_minus5, z_sqrt_minus5):
        # (2, 1 + sqrt-5)^2 = (2)
        i = ideal_from_rows(z_sqrt_minus5, [[2, 0], [1, 1]])
        sq = ideal_product(i, i)
        two = principal_ideal(z_sqrt_minus5, field_minus5.from_rational(2))
        assert sq.lattice == two.lattice

    def test_principal_products(self, gaussian_field, z_i):
        x = gaussian_field.element([2, 1])
        y = gaussian_field.element([1, -3])
        px, py = principal_ideal(z_i, x), principal_ideal(z_i, y)
        assert ideal_product(px, py).lattice == \
            principal_ideal(z_i, x * y).lattice

    def test_order_mismatch(self, z_i, z_sqrt_minus5):
        with pytest.raises(OrderMismatch):
            ideal_product(unit_ideal(z_i), unit_ideal(z_sqrt_minus5))

    def test_colon_trivial(self, z_i):
        g = unit_ideal(z_i)
        assert colon_ideal(g, g).lattice == z_i.lattice

    def test_colon_scalar(self, gaussian_field, z_i):
        g = unit_ideal(z_i)
        two_g = principal_ideal(z_i, gaussian_field.from_rational(2))
        assert colon_ideal(g, two_g).lattice == z_i.lattice.scale(Fraction(1, 2))

    def test_colon_conductor_ideal(self, z_sqrt_minus3):
        # I = 2Z + (1 + sqrt-3)Z: (Gamma : I) contains I/2
        i = ideal_from_rows(z_sqrt_minus3, [[2, 0], [1, 1]])
        c = colon_ideal(unit_ideal(z_sqrt_minus3), i)
        for row in i.lattice.scale(Fraction(1, 2)).rows_q():
            assert c.lattice.contains(row)

    def test_colon_membership_oracle(self, z_sqrt_minus3):
        # (I : J) = {x : xJ <= I}, spot-verified on a small coordinate box
        i = ideal_from_rows(z_sqrt_minus3, [[2, 0], [1, 1]])
        g = unit_ideal(z_sqrt_minus3)
        c = colon_ideal(g, i)
        f = z_sqrt_minus3.field
        for u in range(-2, 3):
            for v in range(-2, 3):
                x = f.element([Fraction(u, 2), Fraction(v, 2)])
                maps_in = all(g.lattice.contains((x * e).coords)
                              for e in i.elements())
                assert maps_in == c.lattice.contains(x.coords)


class TestInvertibility:
    def test_unit_ideal(self, z_i):
        assert is_invertible(unit_ideal(z_i))

    def test_conductor_type_not_invertible(self, z_sqrt_minus3):
        i = ideal_from_rows(z_sqrt_minus3, [[2, 0], [1, 1]])
        assert not is_invertible(i)
        prod = ideal_product(i, colon_ideal(unit_ideal(z_sqrt_minus3), i))
        from orderkit.intmat import lattice_index
        assert lattice_index(z_sqrt_minus3.lattice, prod.lattice) == 2

    def test_maximal_order_all_invertible(self, z_sqrt_minus5):
        for a, b in _stable_ideal_pairs(z_sqrt_minus5, 10):
            assert is_invertible(_standard_ideal(z_sqrt_minus5, a, b))

    @pytest.mark.parametrize("coeffs,rows", [
        ([1, 0, 1], [[1, 0], [0, 2]]),      # Z[2i]
        ([1, 0, 1], [[1, 0], [0, 3]]),      # Z[3i]
        ([3, 0, 1], [[1, 0], [0, 1]]),      # Z[sqrt(-3)]
        ([7, 0, 1], [[1, 0], [0, 1]]),      # Z[sqrt(-7)]
        ([-2, 0, 1], [[1, 0], [0, 3]]),     # Z[3 sqrt(2)]
        ([-5, 0, 1], [[1, 0], [0, 1]]),     # Z[sqrt(5)]
        ([-1, -1, 1], [[1, 0], [0, 3]]),    # Z[3 (1 + sqrt(5)) / 2]
    ])
    def test_discriminant_route_matches_colon_route(self, coeffs, rows):
        gamma = is_order(make_field(coeffs), rows)
        budget = class_monoid(gamma).census_budget
        field = gamma.field
        scalar = field.element([Fraction(3, 2), Fraction(-1, 3)])
        seen = {True: 0, False: 0}
        for a, b in _stable_ideal_pairs(gamma, budget):
            ideal = _standard_ideal(gamma, a, b)
            expected = invertible_by_colon(ideal)
            assert is_invertible(ideal) == expected
            seen[expected] += 1
            if a % 7 == 0:
                assert is_invertible(ideal.scale(scalar)) == expected
        assert seen[True] and seen[False]


class TestEquivalence:
    def test_identity(self, z_sqrt_minus5):
        i = ideal_from_rows(z_sqrt_minus5, [[2, 0], [1, 1]])
        x = is_equivalent(i, i)
        assert x == z_sqrt_minus5.field.one()

    def test_principal_scaling(self, gaussian_field, z_i):
        g = unit_ideal(z_i)
        el = gaussian_field.element([3, 2])
        x = is_equivalent(g, principal_ideal(z_i, el))
        assert x is not None
        assert g.scale(x).lattice == principal_ideal(z_i, el).lattice

    def test_classical_pair(self, z_sqrt_minus5):
        # (2, 1+sqrt-5) ~ (3, 1+sqrt-5): both in the nontrivial class
        i = ideal_from_rows(z_sqrt_minus5, [[2, 0], [1, 1]])
        j = ideal_from_rows(z_sqrt_minus5, [[3, 0], [1, 1]])
        x = is_equivalent(i, j)
        assert x is not None and i.scale(x).lattice == j.lattice
        assert equivalence_bruteforce(i, j) is not None
        assert is_equivalent(i, unit_ideal(z_sqrt_minus5)) is None
        assert equivalence_bruteforce(i, unit_ideal(z_sqrt_minus5),
                                      radius=10) is None

    def test_real_pair(self, field_sqrt2):
        f10 = make_field([-10, 0, 1])
        om = maximal_order(f10)
        p2 = ideal_from_rows(om, [[2, 0], [0, 1]])
        p3 = ideal_from_rows(om, [[3, 0], [1, 1]])
        x = is_equivalent(p2, p3)
        assert x is not None and p2.scale(x).lattice == p3.lattice
        assert is_equivalent(p2, unit_ideal(om)) is None

    def test_negative_norm_scaling(self):
        f10 = make_field([-10, 0, 1])
        om = maximal_order(f10)
        g = unit_ideal(om)
        ps = principal_ideal(om, f10.gen())  # (sqrt 10), norm -10 generator
        assert class_label(ps) == class_label(g)
        x = is_equivalent(g, ps)
        assert x is not None and g.scale(x).lattice == ps.lattice

    def test_budget_vs_negative_distinct(self):
        # cubic field: inequivalence cannot be certified by the generic
        # search, and exhaustion is a budget error, never "not equivalent"
        f = make_field([-1, -1, 0, 1])
        om = maximal_order(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        g = unit_ideal(om)
        el = f.element([1, 1, 0])
        pr = principal_ideal(om, el)
        x = is_equivalent(g, pr)  # positive case still found by search
        assert x is not None and g.scale(x).lattice == pr.lattice
        p23 = generated_ideal(om, [f.from_rational(23),
                                   f.element([-3, 1, 0])])
        assert p23.norm_index() == 23
        # that prime turns out principal with a small generator; the search
        # finds and verifies it
        y = is_equivalent(g, p23)
        assert y is not None and g.scale(y).lattice == p23.lattice
        # the maximal order viewed as a module over Z[2 theta] has no scaling
        # witness; exhausting the box is a budget error, not a "no"
        from orderkit.orders import scaled_subring
        gp = scaled_subring(om, 2)
        i_o = FractionalIdeal(gp, om.lattice)
        with pytest.raises(SearchBudgetExceeded):
            is_equivalent(unit_ideal(gp), i_o)

    @pytest.mark.parametrize("coeffs", [[-1, -1, 0, 1], [-2, 0, 0, 1],
                                        [-3, 1, 0, 1]])
    def test_integer_search_matches_element_search(self, coeffs):
        f = make_field(coeffs)
        gamma = is_order(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        g = unit_ideal(gamma)
        for el in ([1, 1, 0], [2, -1, 1], [3, 0, 1]):
            pr = principal_ideal(gamma, f.element(el))
            for i, j in ((g, pr), (pr, g)):
                x = ideals._search_equivalence(i, j)
                assert x == search_by_field_elements(i, j)
                assert i.scale(x).lattice == j.lattice

    def test_principal_classes_scalars(self, z_sqrt_minus5, field_minus5):
        rng = random.Random(99)
        i = ideal_from_rows(z_sqrt_minus5, [[2, 0], [1, 1]])
        for _ in range(10):
            x = field_minus5.element([rng.randint(-5, 5), rng.randint(-5, 5)])
            if x.is_zero():
                continue
            xi = i.scale(x)
            y = is_equivalent(i, xi)
            assert y is not None and i.scale(y).lattice == xi.lattice


def oracle_equivalent(i, j):
    """Complete search oracle, independent of form reduction.

    A scaling witness x satisfies |N(x)| = covolume ratio; writing
    x = (u + v sqrt(m)) / den, each v gives at most four candidate u from
    u^2 - m v^2 = +- r den^2.  Imaginary fields bound v directly; real fields
    bound it after pushing x into one fundamental-unit window.  Candidates
    are verified exactly, so the float appears only in the range bound.
    """
    from math import isqrt
    field = i.order.field
    m = -field.coeffs[0]
    assert field.coeffs[1] == 0, "oracle assumes a pure sqrt field"
    ratio = j.norm_index() / i.norm_index()
    # any witness lies in (J : I), so its coordinate denominator divides den
    den = colon_ideal(j, i).lattice.den
    r_scaled = ratio * den * den
    if r_scaled.denominator != 1:
        return None  # a witness would force this to be an integer
    r_scaled = int(r_scaled)
    if m < 0:
        vmax = isqrt(r_scaled // (-m)) + 1
    else:
        # normalize x by units of the order itself: every multiplicator ring
        # contains them, so one window of size eps_Gamma suffices
        eps = fundamental_unit(i.order)
        eps_val = float(eps.coords[0]) + float(eps.coords[1]) * math.sqrt(m)
        vmax = int(2 * eps_val * math.sqrt(float(r_scaled) / m)) + 2
    for v in range(-vmax, vmax + 1):
        for sign in (1, -1):
            u2 = sign * r_scaled + m * v * v
            if u2 < 0:
                continue
            u = isqrt(u2)
            if u * u != u2:
                continue
            for su in ((u, -u) if u else (0,)):
                x = field.element([Fraction(su, den), Fraction(v, den)])
                if x.is_zero():
                    continue
                if i.scale(x).lattice == j.lattice:
                    return x
    return None


class TestLabelsAgainstOracle:
    @pytest.mark.parametrize("coeffs,conductor", [
        ([5, 0, 1], 1), ([3, 0, 1], 2), ([23, 0, 1], 1),
        ([-10, 0, 1], 1), ([-34, 0, 1], 1), ([-2, 0, 1], 3),
    ])
    def test_pairwise(self, coeffs, conductor):
        field = make_field(coeffs)
        om = maximal_order(field)
        if conductor == 1:
            gamma = om
        else:
            w = om.omega()
            gamma = is_order(field, [list(field.one().coords),
                                     list((w * conductor).coords)])
        ideals = [_standard_ideal(gamma, a, b)
                  for a, b in _stable_ideal_pairs(gamma, 12)]
        rng = random.Random(7)
        pairs = [(i, j) for i in range(len(ideals))
                 for j in range(i, len(ideals))]
        for i, j in rng.sample(pairs, min(40, len(pairs))):
            same = class_label(ideals[i]) == class_label(ideals[j])
            witness = oracle_equivalent(ideals[i], ideals[j])
            assert same == (witness is not None), (coeffs, conductor, i, j)
            if same:
                x = is_equivalent(ideals[i], ideals[j])
                assert ideals[i].scale(x).lattice == ideals[j].lattice


class TestIntermediateClasses:
    def test_maximal_is_singleton(self, z_i, z_sqrt_minus5):
        assert len(intermediate_classes(z_i)) == 1
        assert len(intermediate_classes(z_sqrt_minus5)) == 1

    def test_z_sqrt_minus3(self, z_sqrt_minus3):
        classes = intermediate_classes(z_sqrt_minus3)
        assert len(classes) == 2
        assert sorted(c.invertible for c in classes) == [False, True]

    def test_z2i_within_bound(self, z_2i):
        classes = intermediate_classes(z_2i)
        assert len(classes) <= 16  # N(f)^g = 4^2

    def test_rational_order(self):
        from orderkit.numberfield import RATIONAL_FIELD
        z = maximal_order(RATIONAL_FIELD)
        for lower in (None, z.lattice.scale(6)):
            classes = intermediate_classes(z, lower_ideal=lower)
            assert [(c.label, c.invertible) for c in classes] == [((1,), True)]

    def test_smaller_lower_ideal_only_grows(self, z_sqrt_minus3, o_minus3):
        base = intermediate_classes(z_sqrt_minus3)
        smaller = o_minus3.lattice.scale(4)  # 4 O_L inside f = 2 O_L
        wider = intermediate_classes(z_sqrt_minus3, lower_ideal=smaller)
        assert {c.label for c in base} <= {c.label for c in wider}


# squarefree m of both signs: Q(sqrt(m)) is imaginary or real
PAIR_FIELDS = [-23, -15, -14, -11, -7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 13,
               21]
_PAIR_CENSUS = {}


def order_with_census(m, f):
    """Z + f*O_L in Q(sqrt(m)), and its census pairs of index up to 40."""
    if (m, f) not in _PAIR_CENSUS:
        field = make_field([-m, 0, 1])
        w = maximal_order(field).omega() * f
        gamma = is_order(field, [list(field.one().coords), list(w.coords)])
        _PAIR_CENSUS[m, f] = gamma, list(_stable_ideal_pairs(gamma, 40))
    return _PAIR_CENSUS[m, f]


def intermediate_by_lattices(gamma, lower):
    """Oracle: the intermediate classes above ``lower`` with each lattice
    tested by escaping_product, labelled by class_label and represented by
    its primitive() scaling."""
    om = maximal_order(gamma.field)
    found = {}
    for lat in enumerate_intermediate_lattices(om.lattice, lower):
        if escaping_product(gamma.basis_elements(), lat,
                            gamma.field) is not None:
            continue
        ideal = FractionalIdeal(gamma, lat, check=False)
        lab = class_label(ideal)
        if lab not in found:
            rep = ideal.primitive()
            found[lab] = (lab, invertible_by_colon(rep), rep.lattice)
    return sorted(found.values())


class TestIntegerPairs:
    """The integer pair route of class_monoid against the lattice route."""

    def check_product(self, gamma, p, q):
        prod = ideal_product(_standard_ideal(gamma, *p),
                             _standard_ideal(gamma, *q))
        a, b, lab = ideals._pair_product(gamma, p, q)
        assert 0 <= b < a
        assert lab == class_label(prod)
        rep = _standard_ideal(gamma, a, b)
        assert rep.lattice == prod.primitive().lattice
        assert ideals._pair_label(gamma, a, b) == class_label(rep)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PAIR_FIELDS), st.integers(1, 6),
           st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    @example(-1, 6, 1, 2)   # Z[6i]: [2, w] * [3, w], neither invertible
    @example(2, 3, 2, 2)    # Z[3 sqrt(2)]: [3, w]^2, not invertible
    def test_product_matches_lattice_route(self, m, f, i, j):
        gamma, census = order_with_census(m, f)
        self.check_product(gamma, census[i % len(census)],
                           census[j % len(census)])

    @pytest.mark.parametrize("m,f", [(-1, 6), (2, 3), (5, 2)])
    def test_all_small_products(self, m, f):
        gamma, census = order_with_census(m, f)
        pairs = [(a, b) for a, b in census if a <= 12]
        flags = {is_invertible(_standard_ideal(gamma, a, b)) for a, b in pairs}
        assert flags == {True, False}
        for i, p in enumerate(pairs):
            for q in pairs[i:]:
                self.check_product(gamma, p, q)

    @pytest.mark.parametrize("m,f,k", [(-3, 2, 2), (-1, 3, 2), (2, 3, 2),
                                       (5, 2, 3), (-1, 6, 2), (3, 2, 4)])
    def test_reader_matches_escaping_product(self, m, f, k):
        gamma, _ = order_with_census(m, f)
        om = maximal_order(gamma.field)
        lower = conductor(gamma, om).lattice.scale(k)
        read = ideals._lattice_reader(gamma)
        seen = {True: 0, False: 0}
        for lat in enumerate_intermediate_lattices(om.lattice, lower):
            pair = read(lat)
            escapes = escaping_product(gamma.basis_elements(), lat,
                                       gamma.field) is not None
            assert (pair is None) == escapes
            seen[escapes] += 1
            if pair is not None:
                ideal = FractionalIdeal(gamma, lat, check=False)
                _, a, b = pair
                assert (_standard_ideal(gamma, a, b).lattice
                        == ideal.primitive().lattice)
                assert ideals._pair_label(gamma, a, b) == class_label(ideal)
        assert seen[True] and seen[False]
        classes = intermediate_classes(gamma, om, lower_ideal=lower)
        assert [(c.label, c.invertible, c.representative.lattice)
                for c in classes] == intermediate_by_lattices(gamma, lower)
        assert all(_standard_ideal(gamma, *c.pair) == c.representative
                   for c in classes)


class TestStablePairs:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(-30, 30), st.integers(-300, 300),
           st.integers(1, 2000))
    @example(0, 36, 2000)     # Z[6i]: many roots mod powers of 2 and 3
    @example(-1, -241, 2000)  # real, odd trace: disc 965
    def test_sieve_matches_per_modulus_route(self, t, n, bound):
        d = t * t - 4 * n
        assume(d < 0 or math.isqrt(d) ** 2 != d)
        gamma = is_order(make_field([n, -t, 1]), [[1, 0], [0, 1]])
        assert (list(_stable_ideal_pairs(gamma, bound))
                == list(stable_pairs_per_modulus(gamma, bound)))

    @pytest.mark.parametrize("t,n", [(0, 36), (-1, -241), (1, 5),
                                     (0, -79), (1, -19)])
    def test_sieve_crosses_small_factor_table(self, t, n, monkeypatch):
        # with a table of 64 entries, a bound of 2,000 sieves a <= 63 and
        # takes the per-a route above it
        monkeypatch.setattr(modular, "_SPF_CAP", 64)
        monkeypatch.setattr(modular, "_SPF", [0, 1])
        gamma = is_order(make_field([n, -t, 1]), [[1, 0], [0, 1]])
        assert (list(_stable_ideal_pairs(gamma, 2000))
                == list(stable_pairs_per_modulus(gamma, 2000)))
        assert len(modular._SPF) <= 64

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-30, 30), st.integers(-300, 300),
           st.integers(1, 3000), st.sampled_from((None, 64, 700)))
    @example(0, 36, 3000, None)   # Z[6i]: many roots mod powers of 2 and 3
    @example(-1, -241, 2000, 64)  # real, odd trace, across a 64-entry table
    @example(1, -19, 3000, 700)   # real, odd trace: disc 77
    @example(0, -79, 2500, None)  # real, even trace
    def test_walk_matches_per_modulus_route(self, t, n, bound, cap):
        # the census walk, as a multiset, against one sqrts_mod per a; with
        # a table cap, the walk takes its primes above it from is_prime
        d = t * t - 4 * n
        assume(d < 0 or math.isqrt(d) ** 2 != d)
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(modular, "_SPF_CAP", cap)
                mp.setattr(modular, "_SPF", [0, 1])
            walk = list(modular.quadratic_roots_upto(t, n, bound))
            assert cap is None or len(modular._SPF) <= cap
        assert all(bs for _, bs in walk)
        assert len({a for a, _ in walk}) == len(walk)
        gamma = is_order(make_field([n, -t, 1]), [[1, 0], [0, 1]])
        assert (Counter((a, b) for a, bs in walk for b in bs)
                == Counter(stable_pairs_per_modulus(gamma, bound)))

    def test_census_keeps_factor_table_small(self, gaussian_field,
                                             monkeypatch):
        # a census of bound 82,944 = 72^2 * 16 factors every a up to it and
        # solves roots mod 4 * 2^k: the sieve table must stay within 2^18
        monkeypatch.setattr(modular, "_SPF", [0, 1])
        z72i = is_order(gaussian_field, [[1, 0], [0, 72]])
        assert sum(1 for _ in _stable_ideal_pairs(z72i, 82_944)) > 0
        assert len(modular._SPF) <= 1 << 18


# (coefficients, basis rows, census budget or None for class_monoid's)
CENSUS_ORDERS = [
    ([5, 0, 1], [[1, 0], [0, 1]], None),     # Z[sqrt(-5)], maximal
    ([3, 0, 1], [[1, 0], [0, 1]], None),     # Z[sqrt(-3)], conductor 2
    ([1, 0, 1], [[1, 0], [0, 3]], None),     # Z[3i]
    ([-10, 0, 1], [[1, 0], [0, 1]], None),   # Z[sqrt(10)], real, maximal
    ([-2, 0, 1], [[1, 0], [0, 3]], None),    # Z[3 sqrt(2)], real
    ([-1, -1, 1], [[1, 0], [0, 3]], None),   # Z[3 (1 + sqrt(5)) / 2]
    ([1, 0, 1], [[1, 0], [0, 72]], 82_944),  # Z[72i] at 72^2 * 16
]


class TestCensusAudit:
    @pytest.mark.parametrize("coeffs,rows,budget", CENSUS_ORDERS)
    def test_matches_reduce_form_route(self, coeffs, rows, budget):
        gamma = is_order(make_field(coeffs), rows)
        if budget is None:
            m = class_monoid(gamma)
            budget, labels = m.census_budget, [c.label for c in m.classes]
        else:  # class_monoid of Z[72i] is out of reach: label the census
            labels = sorted({
                quadforms.class_label(tuple(x // quadforms.content(form)
                                            for x in form))
                for _, _, form in ideals._census_forms(gamma, budget)})
        form_to_class = {f: i for i, lab in enumerate(labels)
                         for f in quadforms.class_forms(lab)}
        checked, hit = ideals._census_audit(gamma, budget, form_to_class)
        assert (checked, hit, None) == census_by_reduce_form(
            gamma, budget, form_to_class)
        assert hit == set(range(len(labels)))
        if budget is None:
            assert checked == m.census_checked
        # drop one class: both routes stop at the same first ideal
        dropped = {f: i for f, i in form_to_class.items()
                   if i != len(labels) // 2}
        _, _, first = census_by_reduce_form(gamma, budget, dropped)
        with pytest.raises(FactorizationViolation,
                           match=rf"\[{first[0]}, {first[1]} \+ w\]"):
            ideals._census_audit(gamma, budget, dropped)


class TestPicard:
    def test_examples(self, z_i, z_2i, z_sqrt_minus5, gaussian_field):
        assert picard_group(z_i).order == 1
        assert picard_group(z_2i).order == 1
        assert picard_group(z_sqrt_minus5).order == 2
        z3i = is_order(gaussian_field, [[1, 0], [0, 3]])
        assert picard_group(z3i).order == 2

    def brute_class_count(self, gamma, bound):
        ideals = [_standard_ideal(gamma, a, b)
                  for a, b in _stable_ideal_pairs(gamma, bound)]
        ideals = [i for i in ideals if is_invertible(i)]
        reps = []
        for i in ideals:
            if any(oracle_equivalent(i, r) is not None for r in reps):
                continue
            reps.append(i)
        return len(reps)

    @pytest.mark.parametrize("coeffs,expected_h", [
        ([5, 0, 1], 2), ([-10, 0, 1], 2), ([-34, 0, 1], 2),
        ([14, 0, 1], 4), ([-79, 0, 1], 3), ([23, 0, 1], 3),
    ])
    def test_against_brute_oracle(self, coeffs, expected_h):
        field = make_field(coeffs)
        om = maximal_order(field)
        pg = picard_group(om)
        from math import isqrt
        brute = self.brute_class_count(om, isqrt(abs(om.disc())) + 1)
        assert pg.order == brute == expected_h

    # [O_L^x : Gamma^x] of the real orders of the verify corpus that is not
    # 1, by discriminant; every other real corpus order has index 1
    UNIT_INDEX = {20: 3, 32: 2, 45: 4, 48: 2, 52: 3, 72: 4, 80: 6, 84: 3,
                  108: 3, 112: 2, 116: 3, 117: 2, 125: 5, 128: 4, 153: 4,
                  160: 2, 176: 2, 180: 12, 189: 3, 192: 2, 200: 3}

    def test_unit_index_on_the_corpus(self):
        from orderkit.verify import build_corpus
        real = [e for e in build_corpus()
                if e.order.field.signature == (2, 0)]
        assert len(real) == 86
        for e in real:
            om = maximal_order(e.order.field)
            assert (ideals._unit_index(e.order, om)
                    == self.UNIT_INDEX.get(e.disc, 1)), e.disc

    @pytest.mark.parametrize("coeffs,rows", COMPOSE_ORDERS)
    def test_integer_census_matches_lattice_route(self, coeffs, rows):
        gamma = is_order(make_field(coeffs), rows)
        assert picard_group(gamma).classes == picard_by_lattices(gamma)


class TestClassMonoid:
    def test_sizes(self, z_i, z_sqrt_minus3, z_sqrt_minus5, gaussian_field):
        assert class_monoid(z_i).size == 1
        m3 = class_monoid(z_sqrt_minus3)
        assert m3.size == 2
        assert len(m3.picard_subset) * len(m3.intermediate_subset) >= m3.size
        z3i = is_order(gaussian_field, [[1, 0], [0, 3]])
        m = class_monoid(z3i)
        assert m.size == 3
        assert len(m.intermediate_subset) <= 81  # N(f)^g = 9^2

    def test_identity_and_laws(self, z_sqrt_minus3):
        m = class_monoid(z_sqrt_minus3)
        assert m.table[0] == tuple(range(m.size))
        verify_monoid_table(m)

    def test_picard_inverses_in_table(self, gaussian_field):
        z3i = is_order(gaussian_field, [[1, 0], [0, 3]])
        m = class_monoid(z3i)
        for i in m.picard_subset:
            assert any(m.table[i][j] == 0 for j in m.picard_subset)

    def test_determinism(self, z_sqrt_minus3):
        m1 = class_monoid(z_sqrt_minus3)
        m2 = class_monoid(z_sqrt_minus3)
        assert m1.table == m2.table
        assert [c.label for c in m1.classes] == [c.label for c in m2.classes]
        assert [c.representative.lattice for c in m1.classes] == \
            [c.representative.lattice for c in m2.classes]

    def test_census_catches_fault(self, z_sqrt_minus3):
        from dataclasses import replace
        m = class_monoid(z_sqrt_minus3)
        bad = replace(m, table=((0, 1), (1, 0)))
        with pytest.raises(FactorizationViolation):
            verify_monoid_table(bad)

    def test_locate(self, z_sqrt_minus3, eisenstein_field):
        m = class_monoid(z_sqrt_minus3)
        i = ideal_from_rows(z_sqrt_minus3, [[2, 0], [1, 1]])
        assert m.locate(i) == 1
        assert m.locate(unit_ideal(z_sqrt_minus3)) == 0
        scaled = i.scale(eisenstein_field.element([2, 1]))
        assert m.locate(scaled) == 1

    def test_eq_9_3_shape(self, gaussian_field):
        z3i = is_order(gaussian_field, [[1, 0], [0, 3]])
        m = class_monoid(z3i)
        nf, h = m.conductor_norm, m.maximal_class_number
        assert len(m.intermediate_subset) <= nf ** 2
        assert len(m.picard_subset) <= nf * h
        assert m.size <= nf ** 3 * h

    def test_index_budget_checked_before_picard(self, gaussian_field,
                                                monkeypatch):
        def fail(_gamma):
            raise AssertionError("picard_group ran past the index budget")

        monkeypatch.setattr(ideals, "picard_group", fail)
        z400i = is_order(gaussian_field, [[1, 0], [0, 400]])
        with pytest.raises(IndexTooLarge, match="quotient order 160000"):
            class_monoid(z400i)

    def test_census_budget_checked_before_picard(self, gaussian_field,
                                                 monkeypatch):
        def fail(*_args):
            raise AssertionError("work ran past the census budget")

        monkeypatch.setattr(ideals, "picard_group", fail)
        z40i = is_order(gaussian_field, [[1, 0], [0, 40]])
        with pytest.raises(IndexTooLarge,
                           match="census up to index 40960000 exceeds"):
            class_monoid(z40i)
        monkeypatch.undo()
        monkeypatch.setattr(ideals, "_census_forms", fail)
        big = maximal_order(make_field([10 ** 15 + 37, 0, 1]))
        with pytest.raises(IndexTooLarge,
                           match="census up to index 63245554 exceeds"):
            picard_group(big)

    def test_integer_route_calls_no_factoring_or_colon(self, monkeypatch):
        # a count, not a time: class_monoid of a fresh Z[6i] splits no
        # census modulus and intersects no lattices for its conductor
        calls = []

        def refuse(name):
            def fn(*_args):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return fn

        monkeypatch.setattr(modular, "prime_powers", refuse("prime_powers"))
        for module in (orders, ideals):
            monkeypatch.setattr(module, "colon_lattice",
                                refuse("colon_lattice"))
        z6i = is_order(make_field([1, 0, 1]), [[1, 0], [0, 6]])
        m = class_monoid(z6i)
        assert calls == []
        assert m.conductor_norm == 36 and m.census_checked > 0

    def test_picard_subset_must_be_closed(self):
        from dataclasses import replace
        # Z/4 with picard_subset (0, 1, 3): each element has an inverse in
        # the subset, but 1 * 1 = 2 leaves it
        table = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
        z4 = ideals.ClassMonoid(None, (None,) * 4, table, (0, 1, 3), (0,),
                                1, 1, 1, 1)
        with pytest.raises(FactorizationViolation, match="not a group"):
            ideals._check_monoid_laws(z4)
        ideals._check_monoid_laws(replace(z4, picard_subset=(0, 2)))

    @pytest.mark.parametrize("b0", [935, 987])
    def test_census_budget_reaches_reduced_forms(self, b0):
        # the reduced forms of some classes of these maximal orders all lead
        # with a coefficient above N(f)^2 * 16 = 16
        om = maximal_order(make_field([b0, 0, 1]))
        d0 = om.disc()
        m = class_monoid(om)
        assert m.census_budget == math.isqrt(-d0) + 1
        assert len(m.picard_subset) == m.size == quadforms.form_class_count(d0)


class TestComposition:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, len(COMPOSE_ORDERS) - 1), st.integers(0, 10 ** 6),
           st.integers(0, 10 ** 6))
    def test_compose_matches_lattice_product(self, k, i, j):
        census = invertible_census(k)
        a, b = census[i % len(census)], census[j % len(census)]
        expected = class_label(ideal_product(a, b))
        for fa, fb in ((ideal_form(a), ideal_form(b)),
                       (class_label(a), class_label(b))):
            assert quadforms.class_label(quadforms.compose(fa, fb)) == expected

    @pytest.mark.parametrize("coeffs,rows", COMPOSE_ORDERS + [
        ([1, 0, 1], [[1, 0], [0, 6]]),      # Z[6i]
        ([71, 0, 1], [[1, 0], [0, 1]]),     # Z[sqrt(-71)], Pic of order 7
        ([-2, 0, 1], [[1, 0], [0, 6]]),     # Z[6 sqrt(2)], real, conductor 6
    ])
    def test_table_matches_lattice_products(self, coeffs, rows):
        m = class_monoid(is_order(make_field(coeffs), rows))
        expected = product_labels_by_lattices(m.classes)
        assert ideals._product_labels(m.classes) == expected
        assert ideals._product_labels(m.classes, pairs=True) == expected
        for i, row in enumerate(m.table):
            assert [m.classes[idx].label for idx in row] == expected[i]
        for c in m.classes:
            assert c.invertible == invertible_by_colon(c.representative)
        assert any(not c.invertible for c in m.classes) == (
            m.conductor_norm > 1)
