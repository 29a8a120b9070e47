"""Congruences and prime powers in orderkit.modular, each against a brute
scan of the residues; and the source check that the factor table and
Tonelli-Shanks stay private to modular."""

import re
import time
from collections import Counter
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orderkit import modular

SRC = Path(__file__).resolve().parent.parent / "src" / "orderkit"
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 31)


@st.composite
def quadratic_cases(draw):
    """(t, n, p, pk): b^2 + t*b + n mod p^k <= 4096, with d = t^2 - 4n of
    either sign, divisible by p^j for j up to 12, and t of either parity."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    k = draw(st.integers(1, max(k for k in range(1, 13) if p ** k <= 4096)))
    t = draw(st.integers(-60, 60))
    j = draw(st.integers(0, 12 if (p != 2 or t % 2 == 0) else 0))
    u = draw(st.integers(0, 500))
    d = draw(st.sampled_from((1, -1))) * p ** j
    if t % 2 == 0:
        d *= 4 * u
    else:  # d = t^2 = 1 mod 4, with p odd when j > 0
        d *= 2 * u + 1
        if d % 4 == 3:
            d = -d
    return t, (t * t - d) // 4, p, p ** k


@settings(max_examples=400, deadline=None)
@given(quadratic_cases())
@example((0, 0, 2, 4096))          # b^2 mod 2^12: 64 roots
@example((0, -3 ** 6, 3, 3 ** 7))  # b^2 = 3^6 mod 3^7
@example((1, 1, 2, 1024))          # odd t, no root mod 2
@example((0, -5 * 31, 31, 31 ** 2))  # p | d, f(r) not 0 mod p^2
def test_quadratic_roots_match_scan(case):
    t, n, p, pk = case
    known = {}
    rs = modular.quadratic_roots(t, n, p, pk, known)
    assert sorted(rs) == [b for b in range(pk) if (b * b + t * b + n) % pk == 0]
    assert known[pk] is rs
    q = pk
    while q > 1:  # every lower power was lifted through and kept
        assert sorted(known[q]) == [b for b in range(q)
                                    if (b * b + t * b + n) % q == 0]
        q //= p


high_powers = st.builds(lambda q, j, u, s: s * q ** j * u,
                        st.sampled_from(SMALL_PRIMES), st.integers(1, 14),
                        st.integers(1, 50), st.sampled_from((1, -1)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10 ** 6, 10 ** 6), high_powers),
       st.integers(1, 4096))
@example(0, 4096)
@example(2 ** 10, 4096)
@example(3 ** 6 * 5, 3 ** 7)
@example(-1, 4050)
def test_sqrts_mod_matches_scan(a, m):
    assert modular.sqrts_mod(a, m) == [y for y in range(m)
                                       if (y * y - a) % m == 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-400, 400), st.integers(1, 400))
@example(0, 36, 400)   # d = -144: Z[6i]
@example(1, 6, 400)    # d = -23 = 1 mod 8: 2 splits
@example(1, 2, 400)    # d = -7 = 1 mod 8
@example(1, 1, 400)    # d = -3 = 5 mod 8: 2 is inert
@example(1, -57, 400)  # d = 229 = 5 mod 8
@example(1, -4, 400)   # d = 17 = 1 mod 8
@example(0, -79, 400)  # d = 316, even
@example(2, 1, 400)    # d = 0
def test_walk_matches_scan(t, n, bound):
    # the census walk, with its split primes filtered by Euler's criterion
    # and its roots mod p from Tonelli-Shanks, against a scan of every
    # residue of every modulus, for d = t^2 - 4n of either sign
    walk = Counter((a, b) for a, bs
                   in modular.quadratic_roots_upto(t, n, bound) for b in bs)
    assert walk == Counter((a, b) for a in range(1, bound + 1)
                           for b in range(a) if (b * b + t * b + n) % a == 0)


def test_tonelli_shanks_matches_scan():
    # p = 3 mod 4 and p = 1 mod 4 up to high powers of 2 in p - 1 (p = 257,
    # 641 = 5 * 2^7 + 1): a root exactly for the nonzero squares
    for p in (3, 5, 7, 13, 17, 41, 97, 257, 641):
        squares = {y * y % p for y in range(1, p)}
        for a in range(1, p):
            y = modular._tonelli_shanks(a, p)
            if a in squares:
                assert y * y % p == a
            else:
                assert y is None


def test_ramified_lift_is_not_a_scan():
    # roots mod p of y^2 = 5p: {0}; 5p is not 0 mod p^2, so no lift is a
    # root, and none may be tried one by one
    p = 1_000_003
    start = time.perf_counter()
    assert modular.sqrts_mod(5 * p, p * p) == []
    assert time.perf_counter() - start < 0.1


def test_factor_table_and_tonelli_shanks_stay_in_modular():
    names = re.compile(r"\b(_SPF|_tonelli_shanks)\b")
    users = sorted(path.name for path in SRC.glob("*.py")
                   if names.search(path.read_text()))
    assert users == ["modular.py"]


def test_table_primes_match_scan_as_the_table_grows(monkeypatch):
    # the prime list is read off the table once per growth and sliced; a
    # table replaced from outside is read again
    monkeypatch.setattr(modular, "_SPF", [0, 1])
    for n in (1, 2, 3, 100, 5000, 4096, 9000, 70_000, 50, 1 << 19):
        top, primes = modular.table_primes(n)
        spf = modular._SPF
        assert top == min(n, modular._SPF_CAP - 1) < len(spf)
        assert primes == [p for p in range(2, top + 1) if spf[p] == p]
    assert len(modular._SPF) <= 1 << 18
    primes.append(0)  # a caller's list is its own
    assert modular.table_primes(50)[1][-1] == 47
    assert modular.table_primes(1 << 19)[1][-1] == 262_139
