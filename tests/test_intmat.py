import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderkit import intmat
from orderkit.errors import IndexTooLarge, NotSublattice, RankDeficient
from orderkit.intmat import (
    IntMatrix,
    Lattice,
    _subgroup_lattices_of_quotient,
    complete_unimodular,
    enumerate_intermediate_lattices,
    hnf,
    hnf_basis,
    inverse_unimodular,
    lattice_index,
    left_kernel,
    snf,
    solve_square,
)


def det_cofactor(m):
    # oracle: cofactor expansion, independent of the Bareiss routine
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        minor = IntMatrix([[m[i, k] for k in range(n) if k != j]
                           for i in range(1, n)])
        total += (-1) ** j * m[0, j] * det_cofactor(minor)
    return total


def random_matrix(rng, n, m, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(m)]
                      for _ in range(n)])


def test_hnf_identity_and_zero():
    i3 = IntMatrix.identity(3)
    h, u = hnf(i3)
    assert h == i3 and u == i3
    z = IntMatrix.zero(2, 2)
    h, u = hnf(z)
    assert h == z and u == IntMatrix.identity(2)


def test_hnf_det_preserved():
    m = IntMatrix([[1, 2], [3, 4]])
    h, u = hnf(m)
    assert abs(h.det()) == 2 == abs(det_cofactor(m))
    assert u * m == h and u.det() in (1, -1)


def test_hnf_random_properties():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, rng.randint(1, 4))
        h, u = hnf(m)
        assert u * m == h
        assert u.det() in (1, -1)
        # idempotence of normalization
        h2, _ = hnf(h)
        assert h2 == h
        # echelon with positive pivots, entries above pivots reduced
        last_pivot = -1
        for row in h.entries:
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            p = nz[0]
            assert p > last_pivot
            last_pivot = p
            assert row[p] > 0
            for other in h.entries:
                if other is row:
                    break
                assert 0 <= other[p] < row[p]


def test_snf_examples():
    d, u, v = snf(IntMatrix([[2, 0], [0, 3]]))
    assert d.entries == ((1, 0), (0, 6))
    d, _, _ = snf(IntMatrix.identity(4))
    assert d == IntMatrix.identity(4)
    d, _, _ = snf(IntMatrix([[2, 0], [0, 2]]))
    assert d.entries == ((2, 0), (0, 2))


def test_snf_random_properties():
    rng = random.Random(23)
    for _ in range(120):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, n, m)
        d, u, v = snf(a)
        assert u * a * v == d
        assert u.det() in (1, -1) and v.det() in (1, -1)
        diag = [d[i, i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert d[i, j] == 0
        for x, y in zip(diag, diag[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0
        assert all(x >= 0 for x in diag)


def test_det_snf_index_consistency():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if m.det() == 0:
            continue
        d, _, _ = snf(m)
        prod = 1
        for i in range(n):
            prod *= d[i, i]
        assert prod == abs(m.det()) == abs(det_cofactor(m))
        zn = Lattice.from_rows([[1 if i == j else 0 for j in range(n)]
                                for i in range(n)])
        assert lattice_index(zn, Lattice(n, m)) == prod


def test_lattice_index_examples():
    z2 = Lattice.from_rows([[1, 0], [0, 1]])
    assert lattice_index(z2, z2) == 1
    assert lattice_index(z2, z2.scale(2)) == 4


def test_lattice_index_coset_oracle():
    # oracle: count distinct coset representatives over a covering box
    z2 = Lattice.from_rows([[1, 0], [0, 1]])
    sub = Lattice.from_rows([[2, 1], [0, 3]])
    got = lattice_index(z2, sub)
    cosets = {_reduce_mod(sub, (x, y)) for x in range(12) for y in range(12)}
    assert got == len(cosets) == 6


def _reduce_mod(lat, v):
    v = list(v)
    rows = [list(r) for r in lat.basis.entries]
    for row in rows:
        p = next(j for j, x in enumerate(row) if x)
        q = v[p] // row[p]
        v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def test_lattice_index_errors():
    z2 = Lattice.from_rows([[1, 0], [0, 1]])
    with pytest.raises(NotSublattice):
        lattice_index(z2.scale(2), z2)
    rank1 = Lattice.from_rows([[1, 0]])
    with pytest.raises(RankDeficient):
        lattice_index(z2, rank1)


def subgroup_count_exhaustive(diag):
    # oracle: all subsets of the abelian group closed under addition
    elems = list(itertools.product(*[range(d) for d in diag]))
    n = len(elems)
    assert n <= 16, "oracle only for tiny groups"
    index = {e: i for i, e in enumerate(elems)}

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, diag))

    count = 0
    for mask in range(1 << n):
        if not mask & 1:  # must contain 0
            continue
        members = [elems[i] for i in range(n) if mask >> i & 1]
        ok = True
        for a in members:
            for b in members:
                if not mask >> index[add(a, b)] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("diag,expected", [
    ((2, 2), 5),
    ((4,), 3),
    ((2, 2, 2), 16),
    ((6,), 4),
    ((3, 3), 6),
    ((2, 4), 8),
])
def test_intermediate_lattice_counts(diag, expected):
    assert subgroup_count_exhaustive(diag) == expected
    n = len(diag)
    outer = Lattice.from_rows([[1 if i == j else 0 for j in range(n)]
                               for i in range(n)])
    inner = Lattice.from_rows([[diag[i] if i == j else 0 for j in range(n)]
                               for i in range(n)])
    found = enumerate_intermediate_lattices(outer, inner)
    assert len(found) == expected
    # every returned lattice actually sits between the two
    for lat in found:
        assert outer.contains_lattice(lat)
        assert lat.contains_lattice(inner)
    # exactly once: Lattice equality is normal-form equality
    assert len(set(found)) == len(found)


def subgroups_by_closure(diag):
    """Oracle: every lattice between diag(d_i) Z^g and Z^g, by BFS closure:
    extend each known subgroup by each quotient element, dedup by HNF."""
    g = len(diag)
    base = hnf_basis(IntMatrix([[diag[i] if i == j else 0 for j in range(g)]
                                for i in range(g)]))
    elems = [list(v) for v in itertools.product(*map(range, diag)) if any(v)]
    seen, frontier = {base}, [base]
    while frontier:
        nxt = []
        for h in frontier:
            for v in elems:
                h2 = hnf_basis(h.stack(IntMatrix([v])))
                if h2 not in seen:
                    seen.add(h2)
                    nxt.append(h2)
        frontier = nxt
    return seen


@pytest.mark.parametrize("diag", [
    (2, 4), (1, 6), (6, 6), (12, 12), (1, 1), (4, 8),  # g = 2
    (1,), (12,), (30,),                                 # g = 1
    (2, 2, 4), (1, 2, 6), (3, 3, 3), (1, 1, 1),         # g = 3
])
def test_direct_subgroups_match_closure(diag):
    found = _subgroup_lattices_of_quotient(list(diag), 10 ** 6)
    assert len(set(found)) == len(found)
    assert set(found) == subgroups_by_closure(diag)
    assert all(h == hnf_basis(h) for h in found)


def test_direct_subgroups_budget():
    # (Z/12)^2 has 90 subgroups: a budget of 89 is exceeded, 90 is not
    assert len(_subgroup_lattices_of_quotient([12, 12], 90)) == 90
    with pytest.raises(IndexTooLarge, match="more than 89 subgroups"):
        _subgroup_lattices_of_quotient([12, 12], 89)


def test_intermediate_lattices_one_hnf_per_subgroup(monkeypatch):
    # a count, not a time: the enumeration itself runs no HNF, so each of
    # the 90 lattices between 12 Z^2 and Z^2 costs one, in its Lattice
    calls = []

    def counting(m):
        calls.append(m)
        return hnf_basis(m)

    outer = Lattice.from_rows([[2, 1], [1, 3]])
    inner = outer.scale(12)
    monkeypatch.setattr(intmat, "hnf_basis", counting)
    found = enumerate_intermediate_lattices(outer, inner)
    assert len(found) == 90
    assert len(calls) <= len(found) + 5


def test_intermediate_lattices_trivial_and_chain():
    l = Lattice.from_rows([[1, 0], [0, 1]])
    assert enumerate_intermediate_lattices(l, l) == [l]
    z = Lattice.from_rows([[1]])
    four = Lattice.from_rows([[4]])
    chain = enumerate_intermediate_lattices(z, four)
    assert len(chain) == 3


def test_intermediate_lattices_nontrivial_basis():
    # the same count must come out relative to a skew outer basis
    outer = Lattice.from_rows([[2, 1], [1, 3]])
    inner = outer.scale(2)
    assert len(enumerate_intermediate_lattices(outer, inner)) == 5


def test_intermediate_budget():
    z = Lattice.from_rows([[1]])
    big = Lattice.from_rows([[10 ** 7]])
    with pytest.raises(IndexTooLarge):
        enumerate_intermediate_lattices(z, big)


def multiple_route_and_snf_route(monkeypatch, outer, inner, **kw):
    """enumerate_intermediate_lattices for inner = k * outer twice: by the
    (Z/k)^g route, with the SNF route's steps refused, and by the SNF route,
    with the multiple left undetected."""
    def refuse(*_args):
        raise AssertionError("the (Z/k)^g route ran an SNF-route step")

    with monkeypatch.context() as mp:
        for name in ("lattice_index", "coords_in", "snf",
                     "inverse_unimodular"):
            mp.setattr(intmat, name, refuse)
        fast = enumerate_intermediate_lattices(outer, inner, **kw)
    with monkeypatch.context() as mp:
        mp.setattr(intmat, "_multiplier", lambda *_args: None)
        slow = enumerate_intermediate_lattices(outer, inner, **kw)
    return fast, slow


def test_multiple_route_matches_snf_route_on_verify_conductors(monkeypatch):
    # the conductor f*O_L of each of the 183 verify-corpus orders
    from orderkit.orders import conductor, maximal_order
    from orderkit.verify import build_corpus
    corpus = build_corpus()
    assert len(corpus) == 183
    for entry in corpus:
        om = maximal_order(entry.order.field)
        outer, inner = om.lattice, conductor(entry.order, om).lattice
        assert intmat._multiplier(outer, inner) == entry.conductor_index
        fast, slow = multiple_route_and_snf_route(monkeypatch, outer, inner)
        assert fast == slow


@pytest.mark.parametrize("outer,k", [
    *((Lattice.from_rows([[1, 0], [0, 1]]), k) for k in range(1, 13)),
    (Lattice.from_rows([[2, 1], [1, 3]]), 6),
    (Lattice.from_rows([[Fraction(1, 2), 0], [Fraction(1, 3), 1]]), 4),
    (Lattice.from_rows([[1, 2, 0], [0, 3, 1], [1, 0, 2]]), 4),  # degree 3
])
def test_multiple_route_matches_snf_route(monkeypatch, outer, k):
    inner = outer.scale(k)
    assert intmat._multiplier(outer, inner) == k
    fast, slow = multiple_route_and_snf_route(monkeypatch, outer, inner)
    assert fast == slow
    assert len(set(fast)) == len(fast)
    assert outer in fast and inner in fast


def test_multiple_route_keeps_the_index_budget(monkeypatch):
    # the same IndexTooLarge, message and numbers, on either route
    for outer, k, max_index in (
            (Lattice.from_rows([[1, 0], [0, 1]]), 12, 100),
            (Lattice.from_rows([[1, 2, 0], [0, 3, 1], [1, 0, 2]]), 5, 124),
            (Lattice.from_rows([[1]]), 10 ** 7, 100_000)):
        errors = []
        for route in (lambda: None, None):
            with monkeypatch.context() as mp:
                if route is not None:
                    mp.setattr(intmat, "_multiplier", lambda *_args: None)
                with pytest.raises(IndexTooLarge) as err:
                    enumerate_intermediate_lattices(
                        outer, outer.scale(k), max_index=max_index)
            errors.append((str(err.value), err.value.limit,
                           err.value.consumed))
        idx = k ** outer.dim
        assert errors == [(f"quotient order {idx} exceeds budget "
                           f"{max_index}", max_index, idx)] * 2


def test_multiplier_needs_a_multiple():
    outer = Lattice.from_rows([[2, 1], [1, 3]])
    assert intmat._multiplier(outer, outer) == 1
    # k = 1/2; 3 * outer plus (0, 5), leading with the same 3; diag(2, 4)
    for inner in (outer.scale(Fraction(1, 2)),
                  outer.scale(3).sum(Lattice.from_rows([[0, 5]])),
                  Lattice(2, IntMatrix([[2, 0], [0, 4]]))):
        assert intmat._multiplier(outer, inner) is None
    assert intmat._multiplier(Lattice.from_rows([[1, 0]], dim=2),
                              Lattice.from_rows([[2, 0]], dim=2)) is None


def test_left_kernel():
    m = IntMatrix([[1, 2], [2, 4], [0, 1]])
    k = left_kernel(m)
    assert k.rows == 1
    assert (k * m).is_zero()


def test_intersection_sum():
    a = Lattice.from_rows([[2, 0], [0, 3]])
    b = Lattice.from_rows([[3, 0], [0, 2]])
    z2 = Lattice.from_rows([[1, 0], [0, 1]])
    assert a.intersect(b) == z2.scale(6)
    assert a.sum(b) == z2
    half = Lattice.from_rows([[Fraction(1, 2), 0], [0, 1]])
    assert half.intersect(z2) == z2
    assert half.sum(z2) == half


def test_complete_unimodular():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 4)
        from math import gcd
        while True:
            c = [rng.randint(-9, 9) for _ in range(n)]
            g = 0
            for x in c:
                g = gcd(g, x)
            if g == 1:
                break
        u = complete_unimodular(c)
        assert u.row(0) == tuple(c)
        assert u.det() in (1, -1)
        assert inverse_unimodular(u) * u == IntMatrix.identity(n)


def test_determinism():
    rng = random.Random(77)
    m = random_matrix(rng, 3, 3)
    assert hnf(m) == hnf(m)
    assert snf(m)[0] == snf(m)[0]
    assert hnf_basis(m) == hnf_basis(m)


# --- the exact solver and unimodular inverses ---------------------------------

small_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def _rational_rank(rows):
    """Rank over Q, read from the HNF of the denominator-cleared rows."""
    den = 1
    for r in rows:
        for x in r:
            den = den * x.denominator // math.gcd(den, x.denominator)
    return hnf_basis(IntMatrix([[int(x * den) for x in r] for r in rows])).rows


@st.composite
def linear_system(draw):
    """(A, B): a k x n matrix A, k <= n <= 4, whose later rows may be
    combinations of earlier ones, and rows of B that lie in the row space of A
    or are arbitrary."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    vec = st.lists(small_fraction, min_size=n, max_size=n)
    a = []
    for i in range(k):
        if i and draw(st.booleans()):
            cs = draw(st.lists(small_fraction, min_size=i, max_size=i))
            a.append([sum(c * r[j] for c, r in zip(cs, a)) for j in range(n)])
        else:
            a.append(draw(vec))
    b = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            cs = draw(st.lists(small_fraction, min_size=k, max_size=k))
            b.append([sum(c * r[j] for c, r in zip(cs, a)) for j in range(n)])
        else:
            b.append(draw(vec))
    return a, b


@settings(max_examples=300, deadline=None)
@given(linear_system())
def test_solve_square_against_rank_oracle(system):
    a, b = system
    sol = solve_square(a, b)
    outside = _rational_rank(a + b) > _rational_rank(a)
    assert (sol is None) == outside
    if sol is not None:
        assert len(sol) == len(b) and all(len(x) == len(a) for x in sol)
        for x, brow in zip(sol, b):
            assert all(type(c) is Fraction for c in x)
            assert [sum(c * r[j] for c, r in zip(x, a))
                    for j in range(len(brow))] == brow


def test_solve_square_examples():
    assert solve_square([[2, 0], [0, 3]], [[1, 1]]) == [[Fraction(1, 2),
                                                        Fraction(1, 3)]]
    assert solve_square([[1, 2], [2, 4]], [[1, 0]]) is None
    assert solve_square([[1, 2], [2, 4]], [[3, 6]]) == [[3, 0]]
    assert solve_square([[1, 0, 0]], [[0, 1, 0]]) is None


@st.composite
def unimodular_matrix(draw, n=None):
    n = draw(st.integers(1, 4)) if n is None else n
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        elif draw(st.booleans()):
            m[i], m[j] = m[j], m[i]
        else:
            c = draw(st.integers(-4, 4))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return IntMatrix(m)


@settings(max_examples=200, deadline=None)
@given(unimodular_matrix())
def test_inverse_unimodular_two_sided(u):
    ui = inverse_unimodular(u)
    ident = IntMatrix.identity(u.rows)
    assert u * ui == ident
    assert ui * u == ident


def test_inverse_unimodular_rejects():
    with pytest.raises(ValueError):
        inverse_unimodular(IntMatrix([[2, 1], [0, 1]]))
    with pytest.raises(ValueError):
        inverse_unimodular(IntMatrix([[1, 0, 0], [0, 1, 0]]))


# --- HNF and SNF invariants against cofactor determinants ------------------------

def minors_gcd(m, k):
    """Oracle: the gcd of all k x k minors of m, each by cofactor expansion."""
    g = 0
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            g = math.gcd(g, det_cofactor(IntMatrix([[m[i, j] for j in cols]
                                                    for i in rows])))
    return g


@st.composite
def matrix_and_unimodular(draw):
    """(m, w): an n x c matrix with entries in [-9, 9] and an n x n
    unimodular w, n, c <= 4."""
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                         min_size=n, max_size=n))
    return IntMatrix(rows), draw(unimodular_matrix(n))


@settings(max_examples=200, deadline=None)
@given(matrix_and_unimodular())
def test_hnf_invariants_against_cofactor_oracle(case):
    # the HNF is a function of the row lattice, keeps every determinantal
    # divisor, and a square one has |det| as the product of its diagonal
    m, w = case
    h, u = hnf(m)
    assert hnf(w * m)[0] == h
    for k in range(1, min(m.rows, m.cols) + 1):
        assert minors_gcd(h, k) == minors_gcd(m, k)
    if m.rows == m.cols:
        assert math.prod(h[i, i] for i in range(m.rows)) \
            == abs(det_cofactor(m)) == abs(det_cofactor(h))


@settings(max_examples=200, deadline=None)
@given(matrix_and_unimodular())
def test_snf_invariants_against_cofactor_oracle(case):
    # d_1 * ... * d_k is the gcd of the k x k minors, for every k, and the
    # diagonal does not change under a unimodular change of rows
    m, w = case
    d, _, _ = snf(m)
    assert snf(w * m)[0] == d
    prod = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        prod *= d[k - 1, k - 1]
        assert prod == minors_gcd(m, k)


# --- lattice containment on integers -----------------------------------------------

def contains_lattice_by_fractions(outer, inner):
    """Oracle for Lattice.contains_lattice: every basis row of inner, as a
    vector of Fractions, tested by Lattice.contains."""
    return all(outer.contains(r) for r in inner.rows_q())


@st.composite
def lattice_pair(draw):
    """(outer, inner) in Q^n, n <= 3: rows of small Fractions, inner often
    built from integer combinations of outer's rows (so often contained),
    sometimes with a row halved or arbitrary."""
    n = draw(st.integers(1, 3))
    vec = st.lists(small_fraction, min_size=n, max_size=n)
    outer = Lattice.from_rows(draw(st.lists(vec, min_size=1, max_size=n)), n)
    rows = outer.rows_q()
    inner = []
    for _ in range(draw(st.integers(0, 3))):
        cs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                           max_size=len(rows)))
        row = [sum((c * r[j] for c, r in zip(cs, rows)), Fraction(0))
               for j in range(n)]
        kind = draw(st.sampled_from(["combination", "halved", "arbitrary"]))
        if kind == "halved":
            row = [x / 2 for x in row]
        elif kind == "arbitrary":
            row = draw(vec)
        inner.append(row)
    return outer, Lattice.from_rows(inner, n)


@settings(max_examples=300, deadline=None)
@given(lattice_pair())
def test_contains_lattice_matches_fraction_route(pair):
    outer, inner = pair
    assert outer.contains_lattice(inner) == contains_lattice_by_fractions(
        outer, inner)
    assert inner.contains_lattice(outer) == contains_lattice_by_fractions(
        inner, outer)
