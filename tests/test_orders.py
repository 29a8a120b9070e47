import itertools
from fractions import Fraction
from math import floor, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orderkit import ideals, quadforms
from orderkit.errors import (
    NeedsUserInput,
    NotClosed,
    NotContained,
    NotFullRank,
    NotUnital,
    UnsupportedDegree,
)
from orderkit.intmat import lattice_index
from orderkit.modular import factorize, kronecker
from orderkit.orders import colon_lattice
from orderkit.numberfield import RATIONAL_FIELD, make_field
from orderkit.orders import (
    Order,
    conductor,
    conductor_comparison_check,
    fundamental_unit,
    is_order,
    least_power_in,
    maximal_order,
    scaled_subring,
    torsion_units,
    unit_square_quotient,
)


class TestIsOrder:
    def test_gaussian_maximal(self, gaussian_field):
        order = is_order(gaussian_field, [[1, 0], [0, 1]])
        assert order.disc() == -4

    def test_z2i(self, gaussian_field, z_2i):
        assert is_order(gaussian_field, [[1, 0], [0, 2]]) == z_2i
        assert z_2i.disc() == -16

    def test_not_closed(self):
        f = make_field([-5, 0, 1])
        with pytest.raises(NotClosed):
            is_order(f, [[1, 0], [0, Fraction(1, 3)]])

    def test_not_unital(self, gaussian_field):
        with pytest.raises(NotUnital):
            is_order(gaussian_field, [[2, 0], [0, 2]])

    def test_not_full_rank(self, gaussian_field):
        with pytest.raises(NotFullRank):
            is_order(gaussian_field, [[1, 0], [2, 0]])

    def test_unital_basis_starts_with_one(self, o_minus3):
        basis = o_minus3.unital_basis_elements()
        assert basis[0] == o_minus3.field.one()
        assert o_minus3.omega().coords == (Fraction(1, 2), Fraction(1, 2))


class TestMaximalOrder:
    def test_eisenstein(self, eisenstein_field):
        om = maximal_order(eisenstein_field)
        assert om.disc() == -3
        assert om.omega_data() == (1, 1)

    def test_gaussian(self, z_i):
        assert z_i.disc() == -4

    def test_sqrt_minus5(self, z_sqrt_minus5):
        assert z_sqrt_minus5.disc() == -20
        assert z_sqrt_minus5.omega_data() == (0, 5)

    def test_rational(self):
        om = maximal_order(RATIONAL_FIELD)
        assert om.degree == 1

    def test_nonminimal_polynomial(self):
        # x^2 + 4 generates Q(i); the maximal order is still Z[i]-shaped
        f = make_field([4, 0, 1])
        om = maximal_order(f)
        assert om.disc() == -4

    def test_degree3_needs_candidate(self):
        f = make_field([-1, -1, 0, 1])
        with pytest.raises(NeedsUserInput):
            maximal_order(f)
        # Z[theta] is maximal here (disc -23 squarefree): verify-only path
        om = maximal_order(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert om.assumed_maximal


class TestConductor:
    def brute_conductor_norm(self, gamma, om, modulus):
        # oracle: test every residue x of O/(modulus O): x in f iff x*O <= Gamma
        basis = om.basis_elements()
        members = 0
        for c0, c1 in itertools.product(range(modulus), repeat=2):
            x = basis[0] * c0 + basis[1] * c1
            if all(gamma.contains(x * b) for b in basis):
                members += 1
        total = modulus ** 2
        return total // members  # index of f in O restricted to the box

    def test_trivial(self, z_i):
        assert conductor(z_i, z_i).norm == 1

    def test_z2i(self, gaussian_field, z_i, z_2i):
        c = conductor(z_2i, z_i)
        assert c.norm == 4
        assert c.lattice == z_i.lattice.scale(2)
        assert self.brute_conductor_norm(z_2i, z_i, 4) == 4

    def test_z_sqrt_minus3(self, o_minus3, z_sqrt_minus3):
        c = conductor(z_sqrt_minus3, o_minus3)
        assert c.norm == 4
        assert self.brute_conductor_norm(z_sqrt_minus3, o_minus3, 4) == 4

    def test_maximality_of_conductor(self, o_minus3, z_sqrt_minus3):
        # largest O-ideal inside Gamma: every x outside f fails x*O <= Gamma
        c = conductor(z_sqrt_minus3, o_minus3)
        basis = o_minus3.basis_elements()
        for c0, c1 in itertools.product(range(4), repeat=2):
            x = basis[0] * c0 + basis[1] * c1
            inside = all(z_sqrt_minus3.contains(x * b) for b in basis)
            assert inside == c.lattice.contains(x.coords)

    def test_not_contained(self, z_i, z_2i):
        with pytest.raises(NotContained):
            conductor(z_i, z_2i)


class TestScaledSubring:
    def test_identity(self, z_i):
        assert scaled_subring(z_i, 1) == z_i

    def test_z2i(self, z_i, z_2i):
        assert scaled_subring(z_i, 2) == z_2i

    def test_sqrt2(self, field_sqrt2):
        om = maximal_order(field_sqrt2)
        assert scaled_subring(om, 3) == is_order(field_sqrt2, [[1, 0], [0, 3]])

    def test_contains_scaled(self, o_minus3):
        for d in (2, 3, 4):
            sub = scaled_subring(o_minus3, d)
            assert o_minus3.contains_order(sub)
            assert sub.lattice.contains_lattice(o_minus3.lattice.scale(d))

    def test_minimality(self, o_minus3):
        # index is maximal among closed unital lattices containing Z + d*Gamma:
        # any strictly larger sublattice of Gamma containing the scaled copy
        # and closed under products must contain Z[d Gamma]
        d = 2
        sub = scaled_subring(o_minus3, d)
        idx = lattice_index(o_minus3.lattice, sub.lattice)
        from orderkit.intmat import enumerate_intermediate_lattices
        for lat in enumerate_intermediate_lattices(o_minus3.lattice,
                                                   sub.lattice):
            if lat == sub.lattice:
                continue
            elems = [o_minus3.field.element(r) for r in lat.rows_q()]
            closed = all(lat.contains((a * b).coords)
                         for a in elems for b in elems)
            unital = lat.contains(o_minus3.field.one().coords)
            if closed and unital and lattice_index(o_minus3.lattice, lat) > idx:
                pytest.fail("smaller closed lattice found: not minimal")


class TestConductorComparison:
    def test_gaussian_d2(self, z_i):
        rep = conductor_comparison_check(z_i, 2)
        assert rep.norm_f == 1 and rep.norm_f_prime == 4
        assert rep.scaling_contained and rep.norm_bound_holds

    def test_d1_trivial(self, z_sqrt_minus3):
        rep = conductor_comparison_check(z_sqrt_minus3, 1)
        assert rep.norm_f == rep.norm_f_prime == 4
        assert rep.ok

    def test_eisenstein_suborder(self, z_sqrt_minus3):
        assert conductor_comparison_check(z_sqrt_minus3, 2).ok


class TestUnits:
    def test_rational(self):
        data = unit_square_quotient(maximal_order(RATIONAL_FIELD))
        assert data.torsion_order == 2 and data.square_class_count == 2

    def test_gaussian(self, z_i):
        data = unit_square_quotient(z_i)
        assert data.torsion_order == 4 and data.square_class_count == 2
        units = torsion_units(z_i)
        assert len(units) == 4
        for u in units:
            assert u.norm() == 1

    def test_eisenstein(self, o_minus3):
        data = unit_square_quotient(o_minus3)
        assert data.torsion_order == 6 and data.square_class_count == 2

    def test_generic_imaginary(self, z_sqrt_minus5, z_sqrt_minus3):
        assert unit_square_quotient(z_sqrt_minus5).torsion_order == 2
        assert unit_square_quotient(z_sqrt_minus3).torsion_order == 2

    def test_real_fundamental(self, field_sqrt2):
        om = maximal_order(field_sqrt2)
        data = unit_square_quotient(om)
        eps = data.fundamental_unit
        assert eps.coords == (Fraction(1), Fraction(1))  # 1 + sqrt(2)
        assert eps.norm() == -1
        assert data.square_class_count == 4
        inv = field_sqrt2.from_rational(-1) + field_sqrt2.gen()
        assert eps * inv == field_sqrt2.one()

    def test_real_suborder_power(self, field_sqrt2):
        gamma = is_order(field_sqrt2, [[1, 0], [0, 3]])
        eps = fundamental_unit(gamma)
        assert gamma.contains(eps)
        assert abs(eps.norm()) == 1
        # 17 + 12 sqrt2 = (1 + sqrt2)^4 is the smallest power landing in Z[3 sqrt2]
        assert eps.coords == (Fraction(17), Fraction(12))

    def test_degree_cap(self):
        f = make_field([-1, -1, 0, 1])
        gamma = maximal_order(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(UnsupportedDegree):
            unit_square_quotient(gamma)

    def test_bound_two_pow_g(self, z_i, o_minus3, z_sqrt_minus5, field_sqrt2):
        for gamma in (z_i, o_minus3, z_sqrt_minus5, maximal_order(field_sqrt2)):
            assert unit_square_quotient(gamma).square_class_count <= 4


class TestDerivedDataCache:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 6))
    def test_cached_equals_fresh(self, b0, b1, f):
        d = b1 * b1 - 4 * b0
        assume(d < 0 or isqrt(d) ** 2 != d)
        gamma = scaled_subring(maximal_order(make_field([b0, b1, 1])), f)
        basis, data = gamma.unital_basis_elements(), gamma.omega_data()
        assert gamma.unital_basis_elements() is basis
        assert gamma.omega_data() is data
        fresh = Order(make_field([b0, b1, 1]), gamma.lattice)
        assert fresh == gamma
        assert fresh.unital_basis_elements() == basis
        assert fresh.omega_data() == data
        t, n = data
        assert t * t - 4 * n == gamma.disc()


class TestMaximalOrderAndConductorCache:
    def test_maximal_order_built_once_per_field(self):
        field = make_field([-7, 0, 1])
        om = maximal_order(field)
        assert maximal_order(field) is om
        assert om.disc() is om.disc() and om.disc() == 28
        # an equal field made apart gets its own, equal, maximal order
        other = maximal_order(make_field([-7, 0, 1]))
        assert other is not om and other == om

    @pytest.mark.parametrize("coeffs,f", [([1, 0, 1], 6), ([3, 0, 1], 4),
                                          ([-5, 0, 1], 3), ([-2, 0, 1], 5)])
    def test_cached_conductor_equals_fresh(self, coeffs, f):
        om = maximal_order(make_field(coeffs))
        gamma = scaled_subring(om, f)
        data = conductor(gamma, om)
        assert conductor(gamma, om) is data
        fresh = colon_lattice(gamma.lattice, om.basis_elements(), gamma.field)
        assert data.lattice == fresh
        assert data.norm == lattice_index(om.lattice, fresh) == f * f
        # an equal maximal order made apart reads the same data
        om2 = maximal_order(make_field(coeffs))
        assert conductor(gamma, om2) == data


# fundamental discriminants 1 mod 4: their fields take an odd b1
ODD_D0 = (-3, -7, -11, -15, -19, -23, -31, 5, 13, 17, 21, 29, 33, 37, 41)


class TestIntegerInvariants:
    """The integer omega, omega_data, disc, conductor, index formula and
    unit index of quadratic orders against the Fraction routes."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(ODD_D0), st.sampled_from((3, 5, 7, 9)),
           st.integers(-15, 15), st.integers(1, 12))
    @example(-4, 3, 0, 6)   # Z[i]-type units, b1 even
    @example(-3, 3, 1, 1)   # the six units of the maximal order
    @example(-3, 5, 1, 2)
    @example(8, 3, 2, 12)   # real, even discriminant
    @example(12, 1, 0, 5)
    def test_match_fraction_routes(self, d0, s, k, f):
        # x^2 + b1*x + b0 of discriminant s^2 * d0: O_L has denominator s
        # over the power basis, and Gamma = Z + f*O_L
        b1 = 2 * k + (s * s * d0) % 2
        field = make_field([(b1 * b1 - s * s * d0) // 4, b1, 1])
        om = maximal_order(field)
        gamma = is_order(field, [[1, 0], [f * x for x in om.omega().coords]])
        assert om.lattice.den == s
        for order in (om, gamma):
            basis = order.unital_basis_elements()
            w = basis[1] if basis[1].coords[1] > 0 else -basis[1]
            w = w - field.from_rational(floor(w.coords[0]))
            assert order.omega() == w
            p0, p1, q = order.omega_coords()
            assert w.coords == (Fraction(p0, q), Fraction(p1, q))
            assert order.omega_data() == (w.trace(), w.norm())
            tr = [[(x * y).trace() for y in basis] for x in basis]
            assert order.disc() == tr[0][0] * tr[1][1] - tr[0][1] * tr[1][0]
        assert om.disc() == d0 and gamma.disc() == f * f * d0
        cond = conductor(gamma, om)
        colon = colon_lattice(gamma.lattice, om.basis_elements(), field)
        assert cond.lattice == colon
        assert cond.norm == lattice_index(om.lattice, colon) == f * f
        assert lattice_index(om.lattice, gamma.lattice) == f
        if d0 > 0:
            unit_index = least_power_in(gamma, fundamental_unit(om))[0]
        else:
            unit_index = len(torsion_units(om)) // len(torsion_units(gamma))
        assert ideals._unit_index(gamma, om) == unit_index
        h0 = quadforms.form_class_count(d0)
        num = h0
        for p, e in factorize(f).items():
            num *= p ** (e - 1) * (p - kronecker(d0, p))
        assert ideals._index_formula(gamma, om, h0) == num // unit_index
