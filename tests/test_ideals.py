import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orderkit import ideals, modular, orders, quadforms
from orderkit.errors import (
    FactorizationViolation,
    IndexTooLarge,
    OrderMismatch,
    UnsupportedDegree,
)
from orderkit.intmat import (
    Lattice,
    enumerate_intermediate_lattices,
    solve_square,
)
from orderkit.numberfield import make_field
from orderkit.orders import (
    conductor,
    escaping_product,
    fundamental_unit,
    is_order,
    least_unit_power,
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


def stable_ideal_pairs(gamma, bound):
    """The sorted census: (a, b) with 0 <= b < a <= bound and a | N(b + omega),
    a ascending, the b of each a ordered by (t + 2b) mod 2a, the least root y
    of y^2 = disc mod 4a that gives b (the order of stable_pairs_per_modulus).
    """
    t, n = gamma.omega_data()
    for a, bs in sorted(modular.quadratic_roots_upto(t, n, bound)):
        for b in sorted(bs, key=lambda b: (t + 2 * b) % (2 * a)):
            yield a, b


def census_forms(gamma, bound):
    """(a, b, form) for each pair of stable_ideal_pairs: form = (a, s*(2b + t),
    (b^2 + t*b + n) / a) is the oriented form of [a, b + omega] times its
    content, with s = -1 for real fields, else 1."""
    t, n = gamma.omega_data()
    s = -1 if gamma.field.signature[0] == 2 else 1
    for a, b in stable_ideal_pairs(gamma, bound):
        yield a, b, (a, s * (2 * b + t), (b * b + t * b + n) // a)


def picard_by_first_ideal(gamma, bound):
    """Oracle: the Picard classes in the order the sorted census meets them,
    each represented by its first invertible (content 1) ideal, whose
    reduced form is in no class found before, and labelled by the least
    canonical form of its class."""
    found, seen = [], set()
    for a, b, form in census_forms(gamma, bound):
        if quadforms.content(form) != 1 or quadforms.reduced(form) in seen:
            continue
        forms = quadforms.class_forms(form)
        seen |= forms
        found.append(ideals._pair_class(gamma, a, b, min(forms)))
    return sorted(found, key=lambda c: c.label)


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
    checked, {class index hit: its first (a, b)}, first (a, b) in no class
    or None)."""
    hit = {}
    checked = 0
    for a, b, form in census_forms(gamma, budget):
        checked += 1
        g = quadforms.content(form)
        red, _ = quadforms.reduce_form(tuple(x // g for x in form))
        idx = form_to_class.get(red)
        if idx is None:
            return checked, hit, (a, b)
        hit.setdefault(idx, (a, b))
    return checked, hit, None


def monoid_laws_by_triples(monoid):
    """Oracle for ideals._check_monoid_laws: identity, commutativity and
    associativity over all n^3 triples, in that interleaved loop order, then
    the Picard group laws."""
    n = monoid.size
    t = monoid.table
    for i in range(n):
        if t[0][i] != i or t[i][0] != i:
            raise FactorizationViolation("identity row/column corrupt",
                                         operation="class_monoid")
        for j in range(n):
            if t[i][j] != t[j][i]:
                raise FactorizationViolation("table not commutative",
                                             operation="class_monoid")
            for k in range(n):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    raise FactorizationViolation("table not associative",
                                                 operation="class_monoid")
    pic = set(monoid.picard_subset)
    for idx in monoid.picard_subset:
        products = [t[idx][j] for j in monoid.picard_subset]
        if 0 not in products or not pic.issuperset(products):
            raise FactorizationViolation("picard subset is not a group",
                                         operation="class_monoid")


def laws_verdict(check, monoid):
    """None if ``check`` passes the monoid, else the text it raised."""
    try:
        check(monoid)
    except FactorizationViolation as exc:
        return str(exc)
    return None


def table_monoid(table, picard_subset=(0,)):
    n = len(table)
    return ideals.ClassMonoid(None, (None,) * n,
                              tuple(tuple(row) for row in table),
                              tuple(picard_subset), (0,), 1, 1, 1, 1)


def with_pair(table, i, j, value):
    """The table with entries (i, j) and (j, i) both set to ``value``."""
    rows = [list(row) for row in table]
    rows[i][j] = rows[j][i] = value
    return rows


@st.composite
def commutative_tables(draw):
    """Commutative tables with identity 0 on n <= 7 classes: random ones,
    and Z/n under + or under * (1 relabelled as 0), at times with one
    symmetric pair of entries off the identity row changed."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("random", "add", "mul")))
    if kind == "random":
        rows = [[i if j == 0 else j if i == 0 else None for j in range(n)]
                for i in range(n)]
        for i in range(1, n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(st.integers(0, n - 1))
    elif kind == "add":
        rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    else:
        residue = [1 % n, 0] + list(range(2, n)) if n > 1 else [0]
        index = {r: i for i, r in enumerate(residue)}
        rows = [[index[residue[i] * residue[j] % n] for j in range(n)]
                for i in range(n)]
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(i, n - 1))
        rows = with_pair(rows, i, j, draw(st.integers(0, n - 1)))
    pic = [0] + [i for i in range(1, n) if draw(st.booleans())]
    return table_monoid(rows, pic)


class TestMonoidLaws:
    """ideals._check_monoid_laws (Light's associativity test) against the
    triple loop.  Where several laws fail at once the triple loop names the
    one its loop order meets first, so the messages are compared on tables
    whose identity row and commutativity hold, and only the verdict
    elsewhere."""

    def test_corpus_tables_pass(self, corpus_monoids):
        assert len(corpus_monoids) == 183
        for _e, m in corpus_monoids:
            ideals._check_monoid_laws(m)
            monoid_laws_by_triples(m)

    @settings(max_examples=400, deadline=None)
    @given(commutative_tables())
    @example(table_monoid([[0, 1, 2], [1, 2, 1], [2, 1, 0]]))
    @example(table_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]], (0, 1, 2)))
    def test_random_tables_match_triples(self, monoid):
        assert (laws_verdict(ideals._check_monoid_laws, monoid)
                == laws_verdict(monoid_laws_by_triples, monoid))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_corpus_tables_with_one_pair_changed(self, corpus_monoids, data):
        nontrivial = [m for _e, m in corpus_monoids if m.size > 1]
        m = data.draw(st.sampled_from(nontrivial))
        n = m.size
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(i, n - 1))
        value = data.draw(st.integers(0, n - 1).filter(
            lambda v: v != m.table[i][j]))
        bad = replace(m, table=tuple(map(tuple, with_pair(m.table, i, j,
                                                          value))))
        got = laws_verdict(ideals._check_monoid_laws, bad)
        want = laws_verdict(monoid_laws_by_triples, bad)
        assert (got is None) == (want is None)
        if i > 0:
            assert got == want

    def test_not_commutative(self):
        z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        z3[1][2] = 1
        with pytest.raises(FactorizationViolation, match="not commutative"):
            ideals._check_monoid_laws(table_monoid(z3))

    def test_not_associative(self):
        # commutative with identity, but (1 * 1) * 2 = 0 and 1 * (1 * 2) = 2
        table = [[0, 1, 2], [1, 2, 1], [2, 1, 0]]
        with pytest.raises(FactorizationViolation, match="not associative"):
            ideals._check_monoid_laws(table_monoid(table))
        with pytest.raises(FactorizationViolation, match="not associative"):
            monoid_laws_by_triples(table_monoid(table))

    def test_identity_corrupt(self):
        z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(FactorizationViolation, match="identity"):
            ideals._check_monoid_laws(table_monoid(with_pair(z3, 0, 2, 1)))


def invertible_by_colon(i):
    """Oracle: I * (Gamma : I) = Gamma, by a colon ideal and a product."""
    inv = colon_ideal(unit_ideal(i.order), i)
    return ideal_product(i, inv).lattice == i.order.lattice


def primitive(ideal):
    """The scaling of an ideal that is integral with coordinate content 1:
    its coordinates over the order's basis, cleared of their common
    denominator and divided by their content."""
    c = solve_square(ideal.order.lattice.rows_q(), ideal.lattice.rows_q())
    den = 1
    for row in c:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    g = 0
    for row in c:
        for x in row:
            g = math.gcd(g, int(x * den))
    return ideal.scale(Fraction(den, g))


def product_labels_by_lattices(classes):
    """Oracle: every pair of class representatives multiplied as lattices."""
    return [[class_label(ideal_product(ci.representative, cj.representative))
             for cj in classes] for ci in classes]


def picard_by_lattices(gamma):
    """Oracle: the Picard classes with each census ideal built as a lattice,
    its form taken by ideal_form, and invertibility by the colon route."""
    d = gamma.disc()
    found = {}
    for a, b in stable_ideal_pairs(gamma, math.isqrt(abs(d)) + 1):
        ideal = _standard_ideal(gamma, a, b)
        form = ideal_form(ideal)
        if quadforms.disc_of(form) != d:
            continue
        lab = quadforms.class_label(form)
        if lab not in found:
            rep = primitive(ideal)
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
                    for a, b in stable_ideal_pairs(gamma, 40)]
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
        for a, b in stable_ideal_pairs(z_sqrt_minus5, 10):
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
        for a, b in stable_ideal_pairs(gamma, budget):
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

    def test_cubic_is_unsupported(self):
        f = make_field([-1, -1, 0, 1])
        om = maximal_order(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        g = unit_ideal(om)
        p23 = generated_ideal(om, [f.from_rational(23),
                                   f.element([-3, 1, 0])])
        assert p23.norm_index() == 23
        for j in (g, principal_ideal(om, f.element([1, 1, 0])), p23):
            with pytest.raises(UnsupportedDegree):
                is_equivalent(g, j)

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
                  for a, b in stable_ideal_pairs(gamma, 12)]
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
        _PAIR_CENSUS[m, f] = gamma, list(stable_ideal_pairs(gamma, 40))
    return _PAIR_CENSUS[m, f]


def intermediate_by_lattices(gamma, lower):
    """Oracle: the intermediate classes above ``lower`` with each lattice
    tested by escaping_product, labelled by class_label and represented by
    its primitive scaling."""
    om = maximal_order(gamma.field)
    found = {}
    for lat in enumerate_intermediate_lattices(om.lattice, lower):
        if escaping_product(gamma.basis_elements(), lat,
                            gamma.field) is not None:
            continue
        ideal = FractionalIdeal(gamma, lat, check=False)
        lab = class_label(ideal)
        if lab not in found:
            rep = primitive(ideal)
            found[lab] = (lab, invertible_by_colon(rep), rep.lattice)
    return sorted(found.values())


class TestIntegerPairs:
    """The integer pair route of class_monoid against the lattice route."""

    def check_product(self, gamma, p, q):
        prod = ideal_product(_standard_ideal(gamma, *p),
                             _standard_ideal(gamma, *q))
        a, b, lab = ideals._pair_product(gamma, p, q, quadforms.LabelMap())
        assert 0 <= b < a
        assert lab == class_label(prod)
        rep = _standard_ideal(gamma, a, b)
        assert rep.lattice == primitive(prod).lattice
        assert (ideals._pair_label(gamma, a, b, quadforms.LabelMap())
                == class_label(rep))

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
                        == primitive(ideal).lattice)
                assert (ideals._pair_label(gamma, a, b, quadforms.LabelMap())
                        == class_label(ideal))
        assert seen[True] and seen[False]
        classes = intermediate_classes(gamma, om, lower_ideal=lower)
        assert [(c.label, c.invertible, c.representative.lattice)
                for c in classes] == intermediate_by_lattices(gamma, lower)
        assert all(_standard_ideal(gamma, *c.pair) == c.representative
                   for c in classes)


def form_of_basis(x, y):
    """Oracle: the primitive norm form of the basis (x, y), as ideal_form
    reads it off an oriented basis: (N(x), N(x + y) - N(x) - N(y), N(y))
    cleared of denominators and divided by its content."""
    fa, fc = x.norm(), y.norm()
    fb = (x + y).norm() - fa - fc
    den = math.lcm(fa.denominator, fb.denominator, fc.denominator)
    form = [int(v * den) for v in (fa, fb, fc)]
    g = math.gcd(*form)
    return tuple(v // g for v in form)


sl2_words = st.lists(st.integers(-6, 6), min_size=1, max_size=6)


class TestLabelUnderBasisChange:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PAIR_FIELDS), st.integers(1, 6),
           st.integers(0, 10 ** 6), sl2_words)
    def test_label_unchanged_under_sl2(self, m, f, i, word):
        # U = T^k1 S T^k2 S ... in SL2(Z) (S: (x, y) -> (y, -x), T^k:
        # y -> y + k x) keeps the lattice and its orientation, so the form
        # read off the new basis has the label of the census ideal
        gamma, census = order_with_census(m, f)
        ideal = _standard_ideal(gamma, *census[i % len(census)])
        x, y = ideals.oriented_basis(ideal)
        for j, k in enumerate(word):
            if j:
                x, y = y, -x
            y = y + x * k
        rows = [list(x.coords), list(y.coords)]
        assert Lattice.from_rows(rows, 2) == ideal.lattice
        assert quadforms.class_label(form_of_basis(x, y)) == class_label(ideal)


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
        assert (list(stable_ideal_pairs(gamma, bound))
                == list(stable_pairs_per_modulus(gamma, bound)))

    @pytest.mark.parametrize("t,n", [(0, 36), (-1, -241), (1, 5),
                                     (0, -79), (1, -19)])
    def test_sieve_crosses_small_factor_table(self, t, n, monkeypatch):
        # with a table of 64 entries, a bound of 2,000 sieves a <= 63 and
        # takes the per-a route above it
        monkeypatch.setattr(modular, "_SPF_CAP", 64)
        monkeypatch.setattr(modular, "_SPF", [0, 1])
        gamma = is_order(make_field([n, -t, 1]), [[1, 0], [0, 1]])
        assert (list(stable_ideal_pairs(gamma, 2000))
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
        assert sum(1 for _ in stable_ideal_pairs(z72i, 82_944)) > 0
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
    ([6, -1, 1], [[1, 0], [0, 1]], None),    # Q(sqrt(-23)), h = 3
    ([-57, -1, 1], [[1, 0], [0, 1]], None),  # Q(sqrt(229)), real, h = 3
]


def check_census(gamma, budget, labels, drop):
    """_census against census_by_reduce_form with the classes of ``labels``:
    the same ideal count, and each class hit with its first ideal as the
    least key among its forms; then, with the class of index ``drop`` left
    out, the least key of a census form in no class is the first ideal the
    oracle finds in none.  Returns the number of ideals."""
    form_to_class = {f: i for i, lab in enumerate(labels)
                     for f in quadforms.class_forms(lab)}
    checked, forms = ideals._census(gamma, budget)
    first = {}
    for f, key in sorted(forms.items(), key=lambda item: item[1]):
        first.setdefault(form_to_class.get(f), key[::2])
    assert (checked, first, None) == census_by_reduce_form(
        gamma, budget, form_to_class)
    assert set(first) == set(range(len(labels)))
    dropped = {f: i for f, i in form_to_class.items() if i != drop}
    _, _, first = census_by_reduce_form(gamma, budget, dropped)
    a, _, b = min(key for f, key in forms.items() if f not in dropped)
    assert (a, b) == first
    return checked


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
                for _, _, form in census_forms(gamma, budget)})
        checked = check_census(gamma, budget, labels, len(labels) // 2)
        if budget is None:
            assert checked == m.census_checked

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-3, 3), st.integers(-25, 25), st.integers(1, 2),
           st.integers(0, 10 ** 6))
    @example(0, 1, 2, 3)     # Z[2i]
    @example(1, -1, 2, 0)    # Z[2 (1 + sqrt(5)) / 2], real
    @example(0, -18, 1, 5)   # Z[sqrt(18)] = Z[3 sqrt(2)], real
    @example(1, -57, 1, 1)   # Q(sqrt(229)), h = 3: orientation shows
    def test_random_orders_match_reduce_form_route(self, t, n, f, drop):
        # Z[f*w], w^2 = t*w - n, of either signature, its whole census
        d = t * t - 4 * n
        assume(d < 0 or math.isqrt(d) ** 2 != d)
        gamma = is_order(make_field([n, -t, 1]), [[1, 0], [0, f]])
        # conductor index up to 6: a census of at most 20,736 ideals
        assume(conductor(gamma, maximal_order(gamma.field)).norm <= 36)
        m = class_monoid(gamma)
        labels = [c.label for c in m.classes]
        assert m.census_checked == check_census(
            gamma, m.census_budget, labels, drop % len(labels))

    @pytest.mark.parametrize("coeffs", [[6, -1, 1], [-57, -1, 1]])
    def test_partner_root_names_the_first_miss(self, coeffs):
        # h = 3: the two classes other than the principal one are opposite.
        # Left out, one of them is first met at a root b whose partner
        # b' = (-t - b) mod a is less than b, so the audit took its form
        # from that of b' and must still name [a, b + w] itself
        gamma = is_order(make_field(coeffs), [[1, 0], [0, 1]])
        m = class_monoid(gamma)
        t, _ = gamma.omega_data()
        labels = [c.label for c in m.classes]
        assert len(labels) == 3
        form_to_class = {f: i for i, lab in enumerate(labels)
                         for f in quadforms.class_forms(lab)}
        partners = 0
        for drop in (1, 2):
            check_census(gamma, m.census_budget, labels, drop)
            dropped = {f: i for f, i in form_to_class.items() if i != drop}
            _, _, (a, b) = census_by_reduce_form(gamma, m.census_budget,
                                                 dropped)
            partners += (-t - b) % a < b
        assert partners == 1

    def test_audit_reduces_once_per_pair_of_roots(self, monkeypatch):
        # a count, not a time: the 24,754 census ideals of Z[6i] are 12
        # self-paired roots (a | 2b + t) and 12,371 pairs b, b', so the
        # audit runs the reduction kernel 12,383 times
        gamma = is_order(make_field([1, 0, 1]), [[1, 0], [0, 6]])
        m = class_monoid(gamma)
        form_to_class = {f: i for i, c in enumerate(m.classes)
                         for f in quadforms.class_forms(c.label)}
        calls = [0]
        kernel = quadforms._reduce_definite

        def counting(*args):
            calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(quadforms, "_reduce_definite", counting)
        checked, forms = ideals._census(gamma, m.census_budget)
        assert (checked, calls[0]) == (24_754, 12_383)
        # one entry per distinct reduced form, not per ideal
        assert len(forms) == 8
        assert {form_to_class[f] for f in forms} == set(range(m.size))

    def test_memory_stays_flat(self):
        # the census is streamed: its tracemalloc peak on Z[6i] at budget
        # 20,736 (24,754 ideals) was 241,392 bytes before the one-loop audit
        # (CPython 3.11); a memo or a materialised census would pass 2x that,
        # and so would a form dict with an entry per ideal
        gamma = is_order(make_field([1, 0, 1]), [[1, 0], [0, 6]])
        m = class_monoid(gamma)
        assert m.census_budget == 20_736
        tracemalloc.start()
        try:
            checked, _ = ideals._census(gamma, 20_736)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checked == m.census_checked == 24_754
        assert peak <= 2 * 241_392

    @pytest.mark.parametrize("coeffs,rows,budget", CENSUS_ORDERS[:6])
    def test_one_walk_per_order(self, coeffs, rows, budget, monkeypatch):
        # a count: class_monoid reads Pic, the audit and census_checked off
        # one census walk, and picard_group walks once at its own bound
        gamma = is_order(make_field(coeffs), rows)
        walks = []
        walk = ideals.quadratic_roots_upto

        def counting(t, n, bound):
            walks.append(bound)
            return walk(t, n, bound)

        monkeypatch.setattr(ideals, "quadratic_roots_upto", counting)
        m = class_monoid(gamma)
        assert walks == [m.census_budget]
        walks.clear()
        picard_group(gamma)
        assert walks == [math.isqrt(abs(gamma.disc())) + 1]

    def test_class_monoid_names_the_least_missed_key(self, monkeypatch):
        # forms in no assembled class: the audit names the ideal of the
        # least key among them; a class that no census form reaches (here
        # the one non-invertible class of Z[3i]) is reported too
        gamma = is_order(make_field([1, 0, 1]), [[1, 0], [0, 3]])
        d = gamma.disc()
        census = ideals._census
        strays = {(1, 1, 10 ** 6): (7, 1, 3), (1, 1, 10 ** 7): (5, 9, 4),
                  (1, 1, 10 ** 8): (5, 3, 1)}

        def with_strays(g, bound):
            checked, forms = census(g, bound)
            return checked, {**forms, **strays}

        def invertible_only(g, bound):
            checked, forms = census(g, bound)
            return checked, {f: key for f, key in forms.items()
                             if quadforms.disc_of(f) == d}

        monkeypatch.setattr(ideals, "_census", with_strays)
        with pytest.raises(FactorizationViolation,
                           match=r"census ideal \[5, 1 \+ w\] is in no"):
            class_monoid(gamma)
        monkeypatch.setattr(ideals, "_census", invertible_only)
        with pytest.raises(FactorizationViolation,
                           match=r"assembled classes \[1\] were never found"):
            class_monoid(gamma)


class TestPicard:
    def test_examples(self, z_i, z_2i, z_sqrt_minus5, gaussian_field):
        assert picard_group(z_i).order == 1
        assert picard_group(z_2i).order == 1
        assert picard_group(z_sqrt_minus5).order == 2
        z3i = is_order(gaussian_field, [[1, 0], [0, 3]])
        assert picard_group(z3i).order == 2

    def brute_class_count(self, gamma, bound):
        ideals = [_standard_ideal(gamma, a, b)
                  for a, b in stable_ideal_pairs(gamma, bound)]
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
            f = math.isqrt(conductor(e.order, om).norm)
            assert (least_unit_power(om.disc(), f)[0]
                    == self.UNIT_INDEX.get(e.disc, 1)), e.disc

    @pytest.mark.parametrize("coeffs,rows", COMPOSE_ORDERS)
    def test_integer_census_matches_lattice_route(self, coeffs, rows):
        gamma = is_order(make_field(coeffs), rows)
        assert picard_group(gamma).classes == picard_by_lattices(gamma)

    def check_first_ideals(self, gamma, budget=None):
        """picard_group, and Pic read off the census at class_monoid's
        budget (or ``budget``), against the sorted first-ideal loop."""
        def seen(classes):
            return [(c.label, c.pair, c.invertible, c.representative)
                    for c in classes]

        om = maximal_order(gamma.field)
        expected = seen(picard_by_first_ideal(
            gamma, math.isqrt(abs(gamma.disc())) + 1))
        assert seen(picard_group(gamma).classes) == expected
        if budget is None:
            budget = class_monoid(gamma).census_budget
        pairs, _ = ideals._picard_pairs(
            gamma, om.disc(), math.isqrt(conductor(gamma, om).norm),
            ideals._census(gamma, budget)[1], quadforms.LabelMap())
        assert list(pairs.items()) == [(lab, pair)
                                       for lab, pair, _, _ in expected]

    @pytest.mark.parametrize("coeffs,rows,budget", CENSUS_ORDERS)
    def test_representatives_match_first_ideal_loop(self, coeffs, rows,
                                                    budget):
        self.check_first_ideals(is_order(make_field(coeffs), rows), budget)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-3, 3), st.integers(-25, 25), st.integers(1, 3))
    @example(0, 1, 3)      # Z[3i]
    @example(1, -57, 1)    # Q(sqrt(229)), h = 3
    @example(0, -2, 3)     # Z[3 sqrt(2)], real
    @example(-1, 4, 1)     # disc -15: [2, w] and [2, 1 + w] share a form,
    #                        and the walk meets the later key first
    @example(-12, 21, 3)   # Z[3 sqrt(15)]: so do two roots of a = 27 that
    #                        are not partners
    def test_random_orders_match_first_ideal_loop(self, t, n, f):
        # Z[f*w], w^2 = t*w - n, of either signature
        d = t * t - 4 * n
        assume(d < 0 or math.isqrt(d) ** 2 != d)
        gamma = is_order(make_field([n, -t, 1]), [[1, 0], [0, f]])
        assume(conductor(gamma, maximal_order(gamma.field)).norm <= 36)
        self.check_first_ideals(gamma)


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
        def fail(*_args):
            raise AssertionError("the census ran past the index budget")

        monkeypatch.setattr(ideals, "_census", fail)
        z400i = is_order(gaussian_field, [[1, 0], [0, 400]])
        with pytest.raises(IndexTooLarge, match="quotient order 160000"):
            class_monoid(z400i)

    def test_census_budget_checked_before_picard(self, gaussian_field,
                                                 monkeypatch):
        def fail(*_args):
            raise AssertionError("work ran past the census budget")

        monkeypatch.setattr(ideals, "_census", fail)
        z40i = is_order(gaussian_field, [[1, 0], [0, 40]])
        with pytest.raises(IndexTooLarge,
                           match="census up to index 40960000 exceeds"):
            class_monoid(z40i)
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

        monkeypatch.setattr(modular, "sqrts_mod", refuse("sqrts_mod"))
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
        # class_monoid's table matches the lattice products, and so does
        # verify_monoid_table's fill, which checks every entry of it
        m = class_monoid(is_order(make_field(coeffs), rows))
        expected = product_labels_by_lattices(m.classes)
        for i, row in enumerate(m.table):
            assert [m.classes[idx].label for idx in row] == expected[i]
        ideals.verify_monoid_table(m)
        for c in m.classes:
            assert c.invertible == invertible_by_colon(c.representative)
        assert any(not c.invertible for c in m.classes) == (
            m.conductor_norm > 1)


def picard_generators(m):
    """The generators of Pic picked greedily off the table, each outside
    the closure of those before it (identity first, as class_monoid lists
    it)."""
    t = m.table
    closure, gens = {0}, []
    for g in m.picard_subset:
        if g in closure:
            continue
        gens.append(g)
        todo = [g]
        while todo:
            a = todo.pop()
            if a not in closure:
                closure.add(a)
                todo.extend(t[a][b] for b in closure)
    return gens


_LATTICE_LABELS = {}


def first_mismatch_by_lattices(k, m, table):
    """Oracle: the first (i, j), row by row, where ``table`` differs from
    the lattice products of the classes of m, the k-th corpus monoid."""
    if k not in _LATTICE_LABELS:
        _LATTICE_LABELS[k] = product_labels_by_lattices(m.classes)
    expected = _LATTICE_LABELS[k]
    return next((i, j) for i, row in enumerate(table)
                for j, idx in enumerate(row)
                if m.classes[idx].label != expected[i][j])


class TestPicardRows:
    """class_monoid reads the Picard block of its table off one composed
    row per generator; verify_monoid_table's fill, every Picard pair
    composed and every other pair multiplied as lattices, is the oracle."""

    def test_corpus_matches_pairwise(self, corpus_monoids):
        for _e, m in corpus_monoids:
            ideals.verify_monoid_table(m)

    def test_class_number_350_matches_pairwise(self):
        m = class_monoid(maximal_order(make_field([1000003, 12, 1])))
        assert len(m.picard_subset) == m.size == 350
        ideals.verify_monoid_table(m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
           st.integers(0, 10 ** 6), st.integers(1, 10 ** 6))
    @example(0, 0, 1, 1)        # upper triangle
    @example(0, 1, 0, 1)        # lower triangle
    def test_moved_entry_is_named(self, corpus_monoids, pick, i, j, shift):
        # one table entry moved to another class: verify_monoid_table names
        # the first entry, row by row, that the lattice products disown
        big = [(k, m) for k, (_e, m) in enumerate(corpus_monoids)
               if m.size > 1]
        k, m = big[pick % len(big)]
        n = m.size
        i, j = i % n, j % n
        table = [list(row) for row in m.table]
        table[i][j] = (table[i][j] + 1 + shift % (n - 1)) % n
        faulty = replace(m, table=tuple(map(tuple, table)))
        assert first_mismatch_by_lattices(k, m, faulty.table) == (i, j)
        with pytest.raises(FactorizationViolation,
                           match=rf"^table entry \({i},{j}\) does not match "
                                 r"its recomputed product$"):
            ideals.verify_monoid_table(faulty)

    @pytest.mark.parametrize("coeffs,rows", [
        ([105, 0, 1], [[1, 0], [0, 1]]),    # Pic = (Z/2)^3
        ([71, 0, 1], [[1, 0], [0, 1]]),     # Pic = Z/7
        ([14, 0, 1], [[1, 0], [0, 1]]),     # Pic = Z/4
        ([1, 0, 1], [[1, 0], [0, 6]]),      # Z[6i], non-maximal
        ([-79, 0, 1], [[1, 0], [0, 1]]),    # real, Pic = Z/3
        ([-2, 0, 1], [[1, 0], [0, 6]]),     # real, conductor 6
    ])
    def test_compositions_counted(self, monkeypatch, coeffs, rows):
        m = class_monoid(is_order(make_field(coeffs), rows))
        composed = []
        compose = quadforms.compose

        def counted(f1, f2):
            composed.append((f1, f2))
            return compose(f1, f2)

        monkeypatch.setattr(quadforms, "compose", counted)
        p, g = len(m.picard_subset), len(picard_generators(m))
        assert 2 ** g <= p
        class_monoid(m.order)
        assert len(composed) == g * p
        composed.clear()
        ideals.verify_monoid_table(m)
        assert len(composed) == p * (p + 1) // 2

    @pytest.mark.parametrize("coeffs,rows", [
        ([71, 0, 1], [[1, 0], [0, 1]]),
        ([1, 0, 1], [[1, 0], [0, 6]]),
        ([-2, 0, 1], [[1, 0], [0, 6]]),
    ])
    def test_label_outside_pic_is_a_violation(self, monkeypatch, coeffs,
                                              rows):
        gamma = is_order(make_field(coeffs), rows)
        outside = [c.label for c in class_monoid(gamma).classes
                   if not c.invertible] or [(1, 1, 1)]
        monkeypatch.setattr(quadforms, "compose",
                            lambda f1, f2: outside[0])
        with pytest.raises(FactorizationViolation,
                           match="left the assembled monoid"):
            class_monoid(gamma)


def intermediate_by_first_lattice(gamma):
    """Oracle: the intermediate classes as intermediate_classes built them
    before the label map: every stable lattice between f and O_L read as a
    pair, labelled by class_label of the lattice (quadforms.class_label of
    its form), the first lattice of each label built as its class, sorted
    by label."""
    om = maximal_order(gamma.field)
    read = ideals._lattice_reader(gamma)
    found = {}
    for lat in enumerate_intermediate_lattices(
            om.lattice, conductor(gamma, om).lattice):
        pair = read(lat)
        if pair is None:
            continue
        _, a, b = pair
        lab = class_label(FractionalIdeal(gamma, lat, check=False))
        if lab not in found:
            found[lab] = ideals._pair_class(gamma, a, b, lab)
    return sorted(found.values(), key=lambda c: c.label)


class TestBuildOnce:
    """class_monoid walks each class once (one LabelMap per call) and builds
    a representative for the classes it keeps only."""

    def test_map_labels_match_class_label(self, corpus_monoids):
        for e, m in corpus_monoids:
            labels = quadforms.LabelMap()
            _, forms = ideals._census(e.order, m.census_budget)
            for form in forms:
                want = quadforms.class_label(form)
                assert labels.label(form) == labels[form][0] == want, form
                assert labels[form][1] == quadforms.class_forms(form)

    def test_one_class_forms_per_class(self, monkeypatch):
        from orderkit.verify import build_corpus
        walked = []
        class_forms = quadforms.class_forms

        def counted(form):
            walked.append(class_forms(form))
            return walked[-1]

        monkeypatch.setattr(quadforms, "class_forms", counted)
        calls = classes = 0
        for e in build_corpus():
            walked.clear()
            m = class_monoid(e.order)
            # no class is walked twice in one call
            assert len(set(walked)) == len(walked), e.disc
            assert {c.label for c in m.classes} <= {min(w) for w in walked}
            calls += len(walked)
            classes += m.size
        # one walk per class: 4,896 class_forms calls before the map
        assert calls == classes == 583

    def test_one_representative_per_kept_class(self, monkeypatch):
        from orderkit.verify import build_corpus
        built = []
        standard = ideals._standard_ideal

        def counted(gamma, a, b):
            built.append((a, b))
            return standard(gamma, a, b)

        monkeypatch.setattr(ideals, "_standard_ideal", counted)
        total = 0
        for e in build_corpus():
            built.clear()
            m = class_monoid(e.order)
            assert len(built) == m.size
            assert sorted(built) == sorted(c.pair for c in m.classes)
            total += len(built)
        assert total == 583  # 988 before, with the classes not kept

    def test_intermediate_classes_match_first_lattice_route(self,
                                                            corpus_monoids):
        def seen(classes):
            return [(c.label, c.pair, c.invertible, c.representative)
                    for c in classes]

        for e, m in corpus_monoids:
            gamma = e.order
            classes = intermediate_classes(gamma)
            assert seen(classes) == seen(intermediate_by_first_lattice(gamma))
            pairs = intermediate_classes(gamma, labels=quadforms.LabelMap())
            assert pairs == {c.label: c.pair for c in classes}
            assert sorted(m.classes[i].label
                          for i in m.intermediate_subset) == list(pairs)

    # x^2 - m, and three polynomials whose maximal orders have denominator
    # 3, 3 and 5 over the power basis (discriminants 9*(-3), 9*5, 25*(-7))
    HNF_FIELDS = [[-m, 0, 1] for m in PAIR_FIELDS] + [[7, 1, 1], [-11, 1, 1],
                                                     [44, 1, 1]]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(HNF_FIELDS), st.integers(1, 6),
           st.integers(1, 500), st.integers(-500, 500))
    @example([3, 0, 1], 1, 4, 0)   # omega = (1 + sqrt(-3)) / 2: q = 2
    @example([1, 0, 1], 1, 3, 0)   # b*q + p0 = 0: the rows are in HNF
    @example([7, 1, 1], 2, 6, 1)
    def test_standard_ideal_hnf_matches_lattice_route(self, coeffs, f, a, b):
        # the closed-form HNF of (a*q, 0), (b*q + p0, p1) over q against
        # Lattice's HNF pass on the same rows, in Z + f*O_L
        from orderkit.intmat import IntMatrix
        field = make_field(coeffs)
        w = maximal_order(field).omega() * f
        gamma = is_order(field, [list(field.one().coords), list(w.coords)])
        p0, p1, q = gamma.omega_coords()
        want = Lattice(2, IntMatrix([[a * q, 0], [b * q + p0, p1]]), q)
        assert _standard_ideal(gamma, a, b).lattice == want
