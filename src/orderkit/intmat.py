"""Exact integer and rational lattice linear algebra.

Everything here works over Python ints / Fractions: Hermite and Smith normal
forms with transformation matrices, determinants, kernels, lattice sums,
intersections, indices, and enumeration of all lattices between two nested
ones (via subgroup enumeration of the finite abelian quotient).

``solve_square`` is the package's one solver over Q: it eliminates
fraction-free on integer rows and makes Fractions only for the answer.
Unimodular inverses need no solve at all; they are the transform of the HNF.

The HNF convention, used repo-wide so that lattice equality is normal-form
equality: row-style upper echelon, positive pivots, entries above each pivot
reduced into [0, pivot).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    IndexTooLarge,
    MethodDisagreement,
    NotSublattice,
    RankDeficient,
)


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n, m):
        return cls([[0] * m for _ in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix([
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __neg__(self):
        return IntMatrix([[-a for a in r] for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[a * other for a in r] for r in self.entries])
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries))
        return IntMatrix([
            [sum(a * b for a, b in zip(row, col)) for col in ot]
            for row in self.entries
        ])

    __rmul__ = __mul__

    def transpose(self):
        return IntMatrix(list(zip(*self.entries))) if self.rows else IntMatrix([])

    def stack(self, other):
        if other.rows and self.rows and self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix(list(self.entries) + list(other.entries))

    def det(self):
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        return _det_bareiss([list(r) for r in self.entries])

    def is_zero(self):
        return all(a == 0 for r in self.entries for a in r)


def _det_bareiss(a):
    # Fraction-free Gaussian elimination; exact over the integers.
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _hnf_inplace(a, u=None):
    """Row-reduce ``a`` to HNF in place; mirror row ops on ``u`` if given."""
    n = len(a)
    m = len(a[0]) if n else 0
    r = 0
    for j in range(m):
        if r == n:
            break
        # Gather the column below r into a single positive pivot.
        while True:
            piv, best = 0, None
            for i in range(r, n):
                v = a[i][j]
                if v and (best is None or abs(v) < piv):
                    piv, best = abs(v), i
            if best is None:
                break
            if best != r:
                a[r], a[best] = a[best], a[r]
                if u is not None:
                    u[r], u[best] = u[best], u[r]
            done = True
            p = a[r][j]
            for i in range(r + 1, n):
                v = a[i][j]
                if v:
                    q = v // p
                    _row_sub(a, i, r, q)
                    if u is not None:
                        _row_sub(u, i, r, q)
                    if a[i][j]:
                        done = False
            if done:
                break
        if a[r][j] == 0:
            continue
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        p = a[r][j]
        for i in range(r):
            q = a[i][j] // p
            if q:
                _row_sub(a, i, r, q)
                if u is not None:
                    _row_sub(u, i, r, q)
        r += 1
    return r


def _row_sub(a, i, k, q):
    ai, ak = a[i], a[k]
    a[i] = [x - q * y for x, y in zip(ai, ak)]


def hnf(m: IntMatrix):
    """Hermite normal form: returns (h, u) with h = u*m and u unimodular."""
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    _hnf_inplace(a, u)
    return IntMatrix(a), IntMatrix(u)


def hnf_basis(m: IntMatrix) -> IntMatrix:
    """HNF without the transformation, zero rows dropped."""
    a = [list(r) for r in m.entries]
    _hnf_inplace(a)
    return IntMatrix([row for row in a if any(row)])


def snf(m: IntMatrix):
    """Smith normal form: (d, u, v) with d = u*m*v diagonal, d1 | d2 | ..."""
    a = [list(r) for r in m.entries]
    n, c = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def col_sub(j, k, q):
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    for s in range(min(n, c)):
        while True:
            # Pick the smallest nonzero entry of the trailing block as pivot.
            piv, pos = 0, None
            for i in range(s, n):
                for j in range(s, c):
                    val = a[i][j]
                    if val and (pos is None or abs(val) < piv):
                        piv, pos = abs(val), (i, j)
            if pos is None:
                break
            i0, j0 = pos
            if i0 != s:
                a[s], a[i0] = a[i0], a[s]
                u[s], u[i0] = u[i0], u[s]
            if j0 != s:
                col_swap(s, j0)
            p = a[s][s]
            clean = True
            for i in range(s + 1, n):
                if a[i][s]:
                    q = a[i][s] // p
                    _row_sub(a, i, s, q)
                    _row_sub(u, i, s, q)
                    if a[i][s]:
                        clean = False
            for j in range(s + 1, c):
                if a[s][j]:
                    q = a[s][j] // p
                    col_sub(j, s, q)
                    if a[s][j]:
                        clean = False
            if not clean:
                continue
            # Divisibility fix: fold any entry the pivot misses back in.
            bad = None
            for i in range(s + 1, n):
                for j in range(s + 1, c):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _row_sub(a, s, bad, -1)
            _row_sub(u, s, bad, -1)
        if s < min(n, c) and a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]
    return IntMatrix(a), IntMatrix(u), IntMatrix(v)


def left_kernel(m: IntMatrix) -> IntMatrix:
    """Basis of {x : x*m = 0} as rows; may have zero rows (empty kernel)."""
    h, u = hnf(m)
    rows = [u.row(i) for i in range(m.rows) if not any(h.row(i))]
    return IntMatrix(rows) if rows else IntMatrix([])


def solve_square(a_rows, b_rows):
    """Solve x * A = B over the rationals for a k x n matrix A of any shape.

    Entries may be ints or Fractions; ``b_rows`` is an m x n matrix.  Returns
    an m x k matrix of Fractions (zero on the free variables when the rows of
    A are dependent), or None exactly when some row of B lies outside the
    row space of A.  Elimination runs fraction-free on the integer system
    [A^T | B^T]: each equation is cleared of denominators and kept primitive,
    and Fractions are made only for the answer.
    """
    k, m = len(a_rows), len(b_rows)
    n = len(b_rows[0]) if m else (len(a_rows[0]) if k else 0)
    eqs = []
    for j in range(n):
        row = [r[j] for r in a_rows] + [r[j] for r in b_rows]
        den = lcm(*[x.denominator for x in row])
        eqs.append(_primitive([x.numerator * (den // x.denominator)
                               for x in row]))
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, n) if eqs[i][col]), None)
        if piv is None:
            continue
        eqs[r], eqs[piv] = eqs[piv], eqs[r]
        prow = eqs[r]
        p = prow[col]
        for i in range(n):
            v = eqs[i][col]
            if i != r and v:
                g = gcd(p, v)
                a, b = p // g, v // g
                eqs[i] = _primitive([a * x - b * y
                                     for x, y in zip(eqs[i], prow)])
        pivots.append(col)
        r += 1
    if any(any(row[k:]) for row in eqs[r:]):
        return None
    out = [[Fraction(0)] * k for _ in range(m)]
    for row, col in zip(eqs, pivots):
        p = row[col]
        for t in range(m):
            if row[k + t]:
                out[t][col] = Fraction(row[k + t], p)
    return out


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce_int_vector(vec, hrows, pivots):
    """Reduce an integer vector against HNF rows; return remainder."""
    v = list(vec)
    for (prow, pcol) in pivots:
        if v[pcol]:
            q, r = divmod(v[pcol], hrows[prow][pcol])
            if q:
                v = [x - q * y for x, y in zip(v, hrows[prow])]
            if r:
                return v
    return v


def _pivots_of(hrows):
    out = []
    for i, row in enumerate(hrows):
        for j, x in enumerate(row):
            if x:
                out.append((i, j))
                break
    return out


class Lattice:
    """A finitely generated subgroup of Q^n: integer row basis / denominator.

    Stored normalized: basis in HNF with zero rows dropped, denominator
    positive and coprime to the content of the basis.  Two Lattice values are
    equal iff they are the same subgroup.
    """

    __slots__ = ("dim", "basis", "den")

    def __init__(self, dim, basis: IntMatrix, den=1):
        den = int(den)
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            den, basis = -den, -basis
        b = hnf_basis(basis)
        g = den
        for row in b.entries:
            for x in row:
                g = gcd(g, x)
                if g == 1:
                    break
            if g == 1:
                break
        if g > 1:
            b = IntMatrix([[x // g for x in row] for row in b.entries])
            den //= g
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    @classmethod
    def from_rows(cls, rows, dim=None):
        """Build from rows of ints/Fractions, clearing denominators."""
        rows = [list(r) for r in rows]
        if dim is None:
            dim = len(rows[0]) if rows else 0
        den = 1
        for r in rows:
            for x in r:
                if isinstance(x, Fraction):
                    den = den * x.denominator // gcd(den, x.denominator)
        mat = IntMatrix([[int(x * den) for x in r] for r in rows]) if rows \
            else IntMatrix([])
        return cls(dim, mat, den)

    @classmethod
    def _from_hnf(cls, dim, rows, den):
        """The lattice of integer rows over den that are already stored the
        way __init__ stores them (HNF with positive pivots, each entry above
        a pivot reduced mod it, no zero rows; den > 0 and coprime to the
        entries), for callers that build that form in closed form."""
        lat = object.__new__(cls)
        object.__setattr__(lat, "dim", dim)
        object.__setattr__(lat, "basis", IntMatrix(rows))
        object.__setattr__(lat, "den", den)
        return lat

    @property
    def rank(self):
        return self.basis.rows

    def is_full_rank(self):
        return self.rank == self.dim

    def rows_q(self):
        """Basis rows as tuples of Fractions."""
        d = self.den
        return [tuple(Fraction(x, d) for x in row) for row in self.basis.entries]

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self.dim == other.dim
                and self.den == other.den and self.basis == other.basis)

    def __hash__(self):
        return hash((self.dim, self.den, self.basis))

    def __repr__(self):
        return f"Lattice(dim={self.dim}, den={self.den}, basis={self.basis!r})"

    def contains(self, vec) -> bool:
        """Membership of a vector of ints/Fractions."""
        w = [Fraction(x) * self.den for x in vec]
        if any(x.denominator != 1 for x in w):
            return False
        w = [int(x) for x in w]
        hrows = [list(r) for r in self.basis.entries]
        rem = _reduce_int_vector(w, hrows, _pivots_of(hrows))
        return not any(rem)

    def contains_lattice(self, other) -> bool:
        """other <= self, on integers: a basis row r / other.den of other
        lies in self iff other.den divides r * self.den and the quotient
        reduces to zero against self's HNF rows (the test of contains)."""
        hrows = [list(r) for r in self.basis.entries]
        pivots = _pivots_of(hrows)
        sd, od = self.den, other.den
        for row in other.basis.entries:
            w = []
            for x in row:
                q, r = divmod(x * sd, od)
                if r:
                    return False
                w.append(q)
            if any(_reduce_int_vector(w, hrows, pivots)):
                return False
        return True

    def scale(self, c):
        """The lattice c * L for a nonzero rational c."""
        c = Fraction(c)
        if c == 0:
            raise ValueError("scaling by zero")
        num, d = c.numerator, c.denominator
        return Lattice(self.dim, self.basis * num, self.den * d)

    def sum(self, other):
        if self.dim != other.dim:
            raise ValueError("ambient dimension mismatch")
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        lc = d1 // g * d2
        m = (self.basis * (lc // d1)).stack(other.basis * (lc // d2))
        return Lattice(self.dim, m, lc)

    def intersect(self, other):
        if self.dim != other.dim:
            raise ValueError("ambient dimension mismatch")
        b1 = self.basis * other.den
        b2 = other.basis * self.den
        stacked = b1.stack(-b2)
        kern = left_kernel(stacked)
        r1 = self.basis.rows
        rows = []
        for krow in kern.entries:
            x = krow[:r1]
            rows.append([sum(x[i] * self.basis[i, j] for i in range(r1))
                         for j in range(self.dim)])
        if not rows:
            return Lattice(self.dim, IntMatrix([]), 1)
        return Lattice(self.dim, IntMatrix(rows), self.den)


def lattice_index(outer: Lattice, inner: Lattice) -> int:
    """[outer : inner] for full-rank inner <= outer in the same ambient space."""
    if outer.dim != inner.dim:
        raise RankDeficient("ambient dimension mismatch", operation="lattice_index")
    if not (outer.is_full_rank() and inner.is_full_rank()):
        raise RankDeficient("both lattices must have full rank",
                            operation="lattice_index")
    if not outer.contains_lattice(inner):
        raise NotSublattice("inner is not contained in outer",
                            operation="lattice_index")
    c = coords_in(outer, inner)
    d = _det_bareiss([list(r) for r in c.entries])
    return abs(d)


def coords_in(outer: Lattice, inner: Lattice) -> IntMatrix:
    """Integer coordinates of inner's basis in terms of outer's basis.

    Requires inner <= outer with outer full rank; rows of the result express
    inner's basis rows as combinations of outer's.
    """
    sol = solve_square([list(r) for r in outer.basis.entries],
                       [list(r) for r in inner.basis.entries])
    if sol is None:
        raise RankDeficient("outer basis is singular", operation="coords_in")
    scale = Fraction(outer.den, inner.den)
    rows = []
    for r in sol:
        out = []
        for x in r:
            y = x * scale
            if y.denominator != 1:
                raise NotSublattice("inner is not contained in outer",
                                    operation="coords_in")
            out.append(int(y))
        rows.append(out)
    return IntMatrix(rows)


def complete_unimodular(c) -> IntMatrix:
    """A unimodular matrix whose first row is the primitive vector c."""
    c = [int(x) for x in c]
    g = 0
    for x in c:
        g = gcd(g, x)
    if g != 1:
        raise ValueError("vector is not primitive")
    col = IntMatrix([[x] for x in c])
    h, w = hnf(col)
    if h[0, 0] != 1:
        raise MethodDisagreement("HNF of a primitive column is not e1",
                                 operation="complete_unimodular")
    winv_t = inverse_unimodular(w).transpose()
    if winv_t.row(0) != tuple(c):
        raise MethodDisagreement("completed matrix does not start with c",
                                 operation="complete_unimodular")
    return winv_t


def inverse_unimodular(u: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with det +-1: the transform of its HNF.

    The HNF of a unimodular matrix is the identity, so h = w * u gives
    w = u^-1; any other normal form means u is not unimodular.
    """
    if u.rows != u.cols:
        raise ValueError("matrix is not unimodular")
    h, w = hnf(u)
    if h != IntMatrix.identity(u.rows):
        raise ValueError("matrix is not unimodular")
    return w


def _subgroup_lattices_of_quotient(diag, max_subgroups):
    """All lattices M with diag(d_i) Z^g <= M <= Z^g, as HNF row matrices.

    Such an M is full rank, so its HNF h is upper triangular, and d_i e_i in
    M makes h_ii divide d_i; above each pivot, h_ij lies in [0, h_jj).  The
    candidates are enumerated directly, bottom row first: a row i is kept
    when d_i e_i lies in the span of rows i.., the only rows it can use.
    """
    g = len(diag)
    tails = [[]]  # the HNF rows i.. of the subgroups found so far
    for i in range(g - 1, -1, -1):
        d, grown = diag[i], []
        for rows in tails:
            pivots = [r[j] for j, r in enumerate(rows, i + 1)]
            for h in (h for h in range(1, d + 1) if d % h == 0):
                for above in itertools.product(*map(range, pivots)):
                    w = [-(d // h) * x for x in above]  # d e_i - (d/h) row_i
                    for j, r in enumerate(rows):
                        q, rem = divmod(w[j], r[i + 1 + j])
                        if rem:
                            break
                        w = [x - q * y for x, y in zip(w, r[i + 1:])]
                    else:
                        grown.append([[0] * i + [h, *above]] + rows)
        if len(grown) > max_subgroups:
            raise IndexTooLarge(f"more than {max_subgroups} subgroups",
                                operation="enumerate_intermediate_lattices",
                                limit=max_subgroups, consumed=len(grown))
        tails = grown
    return [IntMatrix(rows) for rows in tails]


def _multiplier(outer: Lattice, inner: Lattice):
    """The integer k >= 1 with inner = k * outer for a full-rank outer, or
    None: both bases are in HNF, which k * outer's basis is too, so the
    lattices agree iff the bases agree over a common denominator."""
    g = outer.dim
    if inner.dim != g or outer.rank != g or inner.rank != g:
        return None
    num, den = inner.basis[0, 0] * outer.den, inner.den * outer.basis[0, 0]
    if num % den:
        return None
    k = num // den
    scale = k * inner.den
    for r_in, r_out in zip(inner.basis.entries, outer.basis.entries):
        if any(x * outer.den != y * scale for x, y in zip(r_in, r_out)):
            return None
    return k


# Largest quotient [outer : inner] whose intermediate lattices are listed.
_MAX_INDEX = 100_000


def enumerate_intermediate_lattices(outer: Lattice, inner: Lattice,
                                    max_index=_MAX_INDEX,
                                    max_subgroups=100_000):
    """Every lattice M with inner <= M <= outer, each exactly once, sorted.

    When inner = k * outer, as the conductor f*O_L of a quadratic order is,
    the quotient is (Z/k)^g in outer's own coordinates: its subgroups are
    listed there, with no index, solve or SNF.  Any other pair goes through
    the SNF of inner's coordinates in outer; the tests keep that route as
    the oracle of the first.
    """
    g = outer.dim
    k = _multiplier(outer, inner)
    idx = lattice_index(outer, inner) if k is None else k ** g
    if idx > max_index:
        raise IndexTooLarge(f"quotient order {idx} exceeds budget {max_index}",
                            operation="enumerate_intermediate_lattices",
                            limit=max_index, consumed=idx)
    if k == 1:  # inner = outer
        return [outer]
    if k is None:
        d, _, v = snf(coords_in(outer, inner))
        diag, back = [d[i, i] for i in range(g)], inverse_unimodular(v)
    else:
        diag, back = (k,) * g, None
    # Subgroups live in w-coordinates (w = x * v, or x itself when k is
    # known); map their bases back, then into the ambient space through
    # outer's basis.
    out = []
    for sub in _subgroup_lattices_of_quotient(diag, max_subgroups):
        xrows = (sub if back is None else sub * back).entries
        amb = [[sum(x[i] * outer.basis[i, j] for i in range(g))
                for j in range(g)] for x in xrows]
        out.append(Lattice(g, IntMatrix(amb), outer.den))
    out.sort(key=lambda lat: (lat.den, lat.basis.entries))
    return out
