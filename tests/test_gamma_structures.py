import random
from fractions import Fraction

import pytest

from orderkit.errors import DegreeMismatch, HypothesisViolated
from orderkit.intmat import IntMatrix, inverse_unimodular
from orderkit.numberfield import RATIONAL_FIELD, make_field
from orderkit.orders import is_order, maximal_order, scaled_subring
from orderkit.ideals import class_monoid
from orderkit import gamma_structures, verify
from orderkit.gamma_structures import (
    MatrixOrder,
    RingMorphism,
    centralizer_dimension,
    compatibility_of,
    conjugating_unimodular,
    count_conjugacy_classes_bruteforce,
    count_morphisms_commutative,
    count_structures,
    embeddings_into,
    integer_matrix_roots,
    structure_to_ideal_class,
    structures_from_ideal_classes,
    transfer_inequality_check,
)


@pytest.fixture(scope="module")
def m2z():
    return MatrixOrder(RATIONAL_FIELD, 2)


@pytest.fixture(scope="module")
def monoid_minus5(z_sqrt_minus5):
    return class_monoid(z_sqrt_minus5)


def _random_unimodular(rng, n=2, steps=8):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMatrix(m)


def are_conjugate(rho1, rho2, monoid=None):
    """Conjugacy under GL_n(O_K): equal embeddings and equal ideal classes."""
    if rho1.source != rho2.source or rho1.target != rho2.target:
        raise ValueError("morphisms must share source and target")
    if compatibility_of(rho1)[0] != compatibility_of(rho2)[0]:
        return False
    if monoid is None:
        monoid = class_monoid(rho1.source)
    return (structure_to_ideal_class(rho1, monoid)[0]
            == structure_to_ideal_class(rho2, monoid)[0])


def _conjugate(rho, u):
    ui = inverse_unimodular(u)
    k = rho.target.base_field
    out = []
    for m in rho.images:
        mm = IntMatrix([[int(x.coords[0]) for x in row] for row in m])
        prod = (u * mm) * ui
        out.append(tuple(tuple(k.from_rational(prod[i, j])
                               for j in range(u.rows)) for i in range(u.rows)))
    return RingMorphism(rho.source, rho.target, tuple(out))


class TestMorphismValidation:
    def test_companion_is_valid(self, z_i, m2z):
        k = RATIONAL_FIELD
        ident = m2z.identity_matrix()
        comp = tuple(tuple(k.from_rational(x) for x in row)
                     for row in ((0, 1), (-1, 0)))
        rho = RingMorphism(z_i, m2z, (ident, comp))
        assert rho.images[0] == ident

    def test_bad_multiplication_rejected(self, z_i, m2z):
        k = RATIONAL_FIELD
        ident = m2z.identity_matrix()
        bad = tuple(tuple(k.from_rational(x) for x in row)
                    for row in ((0, 1), (1, 0)))  # squares to +1, not -1
        with pytest.raises(ValueError):
            RingMorphism(z_i, m2z, (ident, bad))

    def test_unit_must_map_to_identity(self, z_i, m2z):
        k = RATIONAL_FIELD
        two = tuple(tuple(k.from_rational(2 if i == j else 0)
                          for j in range(2)) for i in range(2))
        comp = tuple(tuple(k.from_rational(x) for x in row)
                     for row in ((0, 2), (-2, 0)))
        with pytest.raises(ValueError):
            RingMorphism(z_i, m2z, (two, comp))


def validate_by_field_elements(rho):
    """Oracle for RingMorphism._validate: the multiplication table checked
    on matrices of FieldElements of K, products summed from K's zero."""
    field = rho.target.base_field
    n = rho.target.n
    basis = rho.source.unital_basis_elements()
    if len(rho.images) != len(basis):
        raise ValueError("one image per basis element required")
    for m in rho.images:
        if len(m) != n or any(len(r) != n for r in m):
            raise ValueError("image matrices must be n x n")
        if not rho.target.contains_matrix(m):
            raise ValueError("image entries must be integral")
    if rho.images[0] != rho.target.identity_matrix():
        raise ValueError("unit must map to the identity matrix")
    for i, a in enumerate(basis):
        for j, b in enumerate(basis[i:], start=i):
            coords = gamma_structures._unital_coords(rho.source, a * b)
            assert all(c.denominator == 1 for c in coords), (a, b, coords)
            want = None
            for c, m in zip(coords, rho.images):
                term = gamma_structures._mat_scale(m, c)
                want = (term if want is None
                        else gamma_structures._mat_add(want, term))
            x, y = rho.images[i], rho.images[j]
            got = tuple(tuple(sum((x[r][k] * y[k][s] for k in range(n)),
                                  field.zero())
                              for s in range(n)) for r in range(n))
            if got != want:
                raise ValueError("images violate the multiplication table")


def validation_verdicts(source, target, images):
    """(_validate's text, the oracle's text), None where one passes."""
    rho = RingMorphism(source, target, images, check=False)
    out = []
    for check in (RingMorphism._validate, validate_by_field_elements):
        try:
            check(rho)
            out.append(None)
        except ValueError as exc:
            out.append(str(exc))
    return tuple(out)


def mutated_images(images, field):
    """Images with one entry moved by +-1, the images swapped, a unit image
    other than I, and one entry made non-integral."""
    half = field.from_rational(Fraction(1, 2))
    def with_entry(k, r, s, e):
        m = [list(row) for row in images[k]]
        m[r][s] = e
        return images[:k] + (tuple(map(tuple, m)),) + images[k + 1:]
    n = len(images[0])
    for k in range(len(images)):
        for r in range(n):
            for s in range(n):
                e = images[k][r][s]
                yield with_entry(k, r, s, e + 1)
                yield with_entry(k, r, s, e - 1)
                yield with_entry(k, r, s, e + half)
    yield images[::-1]
    yield (tuple(tuple(e * 2 for e in row) for row in images[0]),) + images[1:]
    yield (tuple(tuple(-e for e in row) for row in images[0]),) + images[1:]


class TestIntegerValidation:
    """RingMorphism._validate checks the table on ints when K = Q; the
    FieldElement route stays here as its oracle."""

    def test_corpus_structures_and_conjugates(self, corpus_monoids, m2z):
        rng = random.Random(20261019)
        checked = 0
        for e, monoid in corpus_monoids:
            for s in structures_from_ideal_classes(e.order, m2z, 0, monoid):
                rho = s.representative
                validate_by_field_elements(rho)
                for _ in range(2):
                    conj = verify._conjugate(rho, verify._random_unimodular(rng))
                    again = RingMorphism(rho.source, m2z, conj.images)
                    validate_by_field_elements(again)
                checked += 1
        assert checked == 583

    def test_mutations_rejected_alike(self, corpus_monoids, m2z):
        seen = set()
        for e, monoid in corpus_monoids[::8]:
            for s in structures_from_ideal_classes(e.order, m2z, 0, monoid):
                images = s.representative.images
                for bad in mutated_images(images, RATIONAL_FIELD):
                    got, want = validation_verdicts(e.order, m2z, bad)
                    assert got == want and got is not None, (e.disc, bad)
                    seen.add(got)
        assert seen == {"image entries must be integral",
                        "unit must map to the identity matrix",
                        "images violate the multiplication table"}

    def test_real_base_field(self, field_sqrt2):
        # K = Q(sqrt 2), n = 1: the FieldElement route, from K's zero
        gamma = is_order(field_sqrt2, [[1, 0], [0, 2]])
        target = MatrixOrder(field_sqrt2, 1)
        mon = class_monoid(gamma)
        for idx in range(2):
            (s,) = structures_from_ideal_classes(gamma, target, idx, mon)
            images = s.representative.images
            validate_by_field_elements(s.representative)
            for bad in mutated_images(images, field_sqrt2):
                got, want = validation_verdicts(gamma, target, bad)
                assert got == want and got is not None

    def test_count_returns_the_structures(self, gaussian_field, z_i):
        target = MatrixOrder(gaussian_field, 1)
        mon = class_monoid(z_i)
        res = count_structures(z_i, target, mon)
        per = [structures_from_ideal_classes(z_i, target, idx, mon)
               for idx in range(res.embedding_count)]
        assert res.structures == tuple(s for found in per for s in found)
        assert res.per_embedding == tuple(len(found) for found in per)


class TestEmbeddings:
    def test_rational_unique(self, gaussian_field):
        assert len(embeddings_into(RATIONAL_FIELD, gaussian_field)) == 1

    def test_gaussian_pair(self, gaussian_field):
        embs = embeddings_into(gaussian_field, gaussian_field)
        assert len(embs) == 2
        assert embs[0] == -embs[1]

    def test_degree_mismatch(self, gaussian_field):
        with pytest.raises(DegreeMismatch):
            embeddings_into(gaussian_field, make_field([-1, -1, 0, 1]))


class TestCompatibility:
    def test_rational_base(self, z_sqrt_minus5, m2z, monoid_minus5):
        for s in structures_from_ideal_classes(z_sqrt_minus5, m2z, 0,
                                               monoid_minus5):
            idx, emb = compatibility_of(s.representative)
            assert idx == 0

    def test_conjugation_embedding(self, gaussian_field, z_i):
        # n = 1, K = L: the two structures correspond to the two embeddings
        t1 = MatrixOrder(gaussian_field, 1)
        mon = class_monoid(z_i)
        s0 = structures_from_ideal_classes(z_i, t1, 0, mon)[0]
        s1 = structures_from_ideal_classes(z_i, t1, 1, mon)[0]
        assert compatibility_of(s0.representative)[0] == 0
        assert compatibility_of(s1.representative)[0] == 1
        img0 = s0.representative.images[1][0][0]
        img1 = s1.representative.images[1][0][0]
        assert img0 == -img1  # i maps to +-i across the two structures

    def test_uniqueness_under_conjugation(self, z_sqrt_minus5, m2z,
                                          monoid_minus5):
        rng = random.Random(13)
        s = structures_from_ideal_classes(z_sqrt_minus5, m2z, 0,
                                          monoid_minus5)[1]
        for _ in range(20):
            u = _random_unimodular(rng)
            assert compatibility_of(_conjugate(s.representative, u))[0] == 0


class TestStructuresAndClasses:
    def test_sqrt_minus5_count(self, z_sqrt_minus5, m2z, monoid_minus5):
        res = count_structures(z_sqrt_minus5, m2z, monoid_minus5)
        assert res.count == 2 and res.bound == 2
        assert res.per_embedding == (2,)

    def test_gaussian_count(self, z_i, m2z):
        res = count_structures(z_i, m2z)
        assert res.count == 1 and res.bound == 1

    def test_gaussian_into_own_ring(self, gaussian_field, z_i):
        res = count_structures(z_i, MatrixOrder(gaussian_field, 1))
        assert res.count == 2 and res.bound == 2
        assert res.per_embedding == (1, 1)

    def test_companion_matrix_appears(self, z_sqrt_minus5, m2z, monoid_minus5):
        structs = structures_from_ideal_classes(z_sqrt_minus5, m2z, 0,
                                                monoid_minus5)
        principal = next(s for s in structs if s.ideal_class_index == 0)
        m = [[int(x.coords[0]) for x in row]
             for row in principal.representative.images[1]]
        # multiplication by sqrt(-5) on the trivial class: trace 0, det 5
        assert m[0][0] + m[1][1] == 0
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 5

    def test_round_trip_identity(self, z_sqrt_minus5, m2z, monoid_minus5):
        for s in structures_from_ideal_classes(z_sqrt_minus5, m2z, 0,
                                               monoid_minus5):
            idx, _ = structure_to_ideal_class(s.representative, monoid_minus5)
            assert idx == s.ideal_class_index

    def test_round_trip_nontrivial_class_group(self):
        # disc -23 has a class group of order 3: catches transposition bugs
        field = make_field([23, 0, 1])
        om = maximal_order(field)
        mon = class_monoid(om)
        assert mon.size == 3
        target = MatrixOrder(RATIONAL_FIELD, 2)
        for s in structures_from_ideal_classes(om, target, 0, mon):
            idx, _ = structure_to_ideal_class(s.representative, mon)
            assert idx == s.ideal_class_index

    def test_conjugation_invariance(self, z_sqrt_minus5, m2z, monoid_minus5):
        rng = random.Random(29)
        for s in structures_from_ideal_classes(z_sqrt_minus5, m2z, 0,
                                               monoid_minus5):
            for _ in range(20):
                u = _random_unimodular(rng)
                conj = _conjugate(s.representative, u)
                idx, _ = structure_to_ideal_class(conj, monoid_minus5)
                assert idx == s.ideal_class_index

    def test_are_conjugate(self, z_sqrt_minus5, m2z, monoid_minus5):
        rng = random.Random(31)
        s = structures_from_ideal_classes(z_sqrt_minus5, m2z, 0,
                                          monoid_minus5)
        assert are_conjugate(s[0].representative, s[0].representative,
                             monoid_minus5)
        u = _random_unimodular(rng)
        assert are_conjugate(s[0].representative,
                             _conjugate(s[0].representative, u),
                             monoid_minus5)
        assert not are_conjugate(s[0].representative, s[1].representative,
                                 monoid_minus5)

    def test_centralizer_is_the_field(self, z_sqrt_minus5, m2z,
                                      monoid_minus5, z_i):
        for s in structures_from_ideal_classes(z_sqrt_minus5, m2z, 0,
                                               monoid_minus5):
            assert centralizer_dimension(s.representative) == 2
        for s in structures_from_ideal_classes(z_i, m2z, 0):
            assert centralizer_dimension(s.representative) == 2

    def test_suborder_structures(self, gaussian_field, z_2i, m2z):
        # Z[2i] has |C| classes; every class is a structure on M_2(Z)
        mon = class_monoid(z_2i)
        res = count_structures(z_2i, m2z, mon)
        assert res.count == mon.size
        assert res.count <= res.bound


class TestBruteForceOracle:
    def test_matrix_roots_bounded(self):
        mats = integer_matrix_roots(0, 5, 10)
        for (a, b), (c, d) in mats:
            assert a + d == 0 and a * d - b * c == 5

    def test_conjugacy_partition_x2_plus_5(self):
        n, reps = count_conjugacy_classes_bruteforce(0, 5, 10)
        assert n == 2

    def test_conjugacy_partition_x2_plus_1(self):
        n, _ = count_conjugacy_classes_bruteforce(0, 1, 10)
        assert n == 1

    def test_conjugacy_partition_disc_minus23(self):
        # x^2 + x + 6: disc -23, three classes
        n, _ = count_conjugacy_classes_bruteforce(-1, 6, 8)
        assert n == 3

    def test_witness_is_exact(self):
        m1 = ((0, 1), (-5, 0))
        m2 = ((1, 2), (-3, -1))  # trace 0, det -1+6 = 5
        u = conjugating_unimodular(m1, m2)
        if u is not None:
            (p, q), (r, s) = u
            assert p * s - q * r in (1, -1)
            lhs = (p * m1[0][0] + q * m1[1][0], p * m1[0][1] + q * m1[1][1],
                   r * m1[0][0] + s * m1[1][0], r * m1[0][1] + s * m1[1][1])
            rhs = (m2[0][0] * p + m2[0][1] * r, m2[0][0] * q + m2[0][1] * s,
                   m2[1][0] * p + m2[1][1] * r, m2[1][0] * q + m2[1][1] * s)
            assert lhs == rhs


class TestTransfer:
    def test_acceptance_instance(self, gaussian_field, z_i, z_2i):
        rep = transfer_inequality_check(z_i, z_i, z_2i, 2)
        assert rep.count_r == 2
        assert rep.count_r_prime == 2
        assert rep.quotient_size == 4
        assert rep.inequality_holds
        assert rep.unit_index == 2 and rep.unit_quotient_bound == 4
        assert rep.unit_inequality_holds

    def test_trivial_d1(self, z_i):
        rep = transfer_inequality_check(z_i, z_i, z_i, 1)
        assert rep.count_r == rep.count_r_prime
        assert rep.inequality_holds

    def test_hypothesis_violated(self, gaussian_field, z_i, z_2i):
        with pytest.raises(HypothesisViolated):
            transfer_inequality_check(z_i, z_2i, z_i, 1)  # R' not inside d R

    def test_morphism_counts_by_root_finding(self, gaussian_field, z_i, z_2i):
        assert count_morphisms_commutative(z_i, z_i) == 2
        assert count_morphisms_commutative(z_i, z_2i) == 0  # i not in Z[2i]
        gp = scaled_subring(z_i, 2)
        assert count_morphisms_commutative(gp, z_2i) == 2

    def test_cross_field_targets(self, z_i):
        # morphisms from Z[i] into an order of another field: zero
        f5 = make_field([5, 0, 1])
        target = maximal_order(f5)
        assert count_morphisms_commutative(z_i, target) == 0


class TestErrors:
    def test_degree_cap_for_nonmatching(self, z_sqrt_minus5, gaussian_field):
        with pytest.raises(DegreeMismatch):
            count_structures(z_sqrt_minus5, MatrixOrder(RATIONAL_FIELD, 3))
