"""Factoring and congruences, for every other module.

factorize splits integers (a smallest-prime-factor table below 2^18,
Pollard-Brent rho above); quadratic_roots Hensel-lifts the roots of
b^2 + t*b + n mod p^k, sqrts_mod joins those of y^2 - a by CRT for one
modulus (its prime powers from factorize), and quadratic_root_walk yields
those of b^2 + t*b + n for every modulus up to one bound and counts them up
to a second, in one walk.  It enters only the primes with a root, found by
one Euler test per residue class mod |d| (_entered_primes).  Other modules
call these and read none of the tables.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate
from math import gcd, isqrt

from .errors import MethodDisagreement, SearchBudgetExceeded

_SPF = [0, 1]  # smallest prime factor table, grown on demand
_SPF_CAP = 1 << 18  # factorize leaves the table from here on
_PRIMES = (_SPF, [])  # (the table, its primes ascending), read off once


def _grow_spf(n):
    # a C int array; writing m from m^2 on in steps of m, m descending,
    # leaves at each composite its least prime factor
    global _SPF
    if len(_SPF) > n:
        return
    size = min(max(n + 1, 2 * len(_SPF), 1 << 12), _SPF_CAP)
    spf = array("i", range(size))
    for m in range(isqrt(size - 1), 1, -1):
        spf[m * m::m] = array("i", [m]) * len(range(m * m, size, m))
    _SPF = spf


def factorize(n: int) -> dict:
    """Prime factorization of n >= 1 as {p: e}, keys ascending.

    Below 2^18 the smallest-prime-factor table splits n.  Above it, the
    primes below 2^10 are divided out, and each cofactor is either prime
    (is_prime) or split by Pollard-Brent rho (Cohen, GTM 138, Alg. 8.5.2).
    A rho search that has not split a composite after _RHO_BUDGET steps
    raises SearchBudgetExceeded.
    """
    n = abs(int(n))
    if n <= 1:
        return {}
    out = {}
    # The table costs 4 bytes per entry and grows to n; above 2^18 trial
    # division by the small primes and rho are cheaper.
    if n < _SPF_CAP:
        _grow_spf(n)
        while n > 1:
            p = _SPF[n]
            out[p] = out.get(p, 0) + 1
            n //= p
        return out
    for p in table_primes(_TRIAL_TOP)[1]:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    budget = [_RHO_BUDGET]
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_TOP * _TRIAL_TOP or is_prime(m):
            # no prime below _TRIAL_TOP is left, so m < _TRIAL_TOP^2 is prime
            out[m] = out.get(m, 0) + 1
        else:
            f = _brent_factor(m, budget)
            stack += (f, m // f)
    return dict(sorted(out.items()))


# factorize trial-divides by the primes below this before rho
_TRIAL_TOP = 1 << 10
# rho steps one factorize call may take in all
_RHO_BUDGET = 1 << 21


def _brent_factor(n, budget):
    """A proper factor of the odd composite n, by Brent's cycle search on
    x -> x^2 + c mod n, with products of 128 differences per gcd; budget[0]
    counts down the steps left."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            budget[0] -= 2 * r
            if budget[0] < 0:
                raise SearchBudgetExceeded(
                    f"no factor of {n} within {_RHO_BUDGET} rho steps",
                    operation="factorize", limit=_RHO_BUDGET,
                    consumed=_RHO_BUDGET - budget[0])
            r *= 2
        if g == n:  # the batch overshot: step back one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise MethodDisagreement(f"rho found no factor of {n}",
                             operation="factorize")


def table_primes(n: int):
    """(top, primes): top = min(n, the largest entry the smallest-prime-
    factor table may hold), and the primes p <= top, a new list sliced from
    those read off the table once after each time it grows."""
    global _PRIMES
    top = min(n, _SPF_CAP - 1)
    _grow_spf(top)
    spf, primes = _PRIMES
    if spf is not _SPF:  # the table was grown (or replaced) since
        spf = _SPF
        primes = [q for p, q in enumerate(spf) if p == q and p > 1]
        _PRIMES = spf, primes
    return top, primes[:bisect_right(primes, top)]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    n = int(n)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a / n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out twos of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol loop
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _tonelli_shanks(a, p):
    """A square root of a mod the odd prime p not dividing a, or None."""
    a %= p
    half = p >> 1  # Euler's criterion: a^((p-1)/2) = (a / p) mod p
    if pow(a, half, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q 2^s
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def quadratic_roots(t, n, p, pk, known):
    """The roots b in [0, p^k) of f(b) = b^2 + t*b + n mod pk = p^k, p prime.

    known is the caller's memo {p^k: roots} for this f.  The roots mod p^k
    are lifted from those mod p^(k-1) (Hensel; Cohen, GTM 138, 1.5).  With
    d = t^2 - 4n, mod p they are (-t +- y) / 2 for y^2 = d (Tonelli-Shanks)
    if p is odd and prime to d, -t/2 if p | d, and tested if p = 2.  Above p,
    a p prime to d makes f'(r) = 2r + t a unit: r lifts to r - f(r) / f'(r).
    A p dividing d divides f'(r) too, so f(r + j*p^(k-1)) = f(r) mod p^k:
    all p lifts of r are roots if p^k | f(r), none otherwise.
    """
    rs = known.get(pk)
    if rs is not None:
        return rs
    d = t * t - 4 * n
    if pk == p:
        half = (p + 1) // 2  # the inverse of 2 mod an odd p
        if p == 2:
            rs = [b for b in (0, 1) if (b * b + t * b + n) % 2 == 0]
        elif d % p:
            y = _tonelli_shanks(d, p)
            rs = [] if y is None else [(y - t) * half % p, (-y - t) * half % p]
        else:
            rs = [-t * half % p]
    else:
        q = pk // p
        below = quadratic_roots(t, n, p, q, known)
        if d % p:
            rs = [(r - (r * r + t * r + n) * pow(2 * r + t, -1, pk)) % pk
                  for r in below]
        else:
            rs = [r + j * q for r in below if (r * r + t * r + n) % pk == 0
                  for j in range(p)]
    known[pk] = rs
    return rs


def sqrts_mod(a: int, m: int):
    """All y in [0, m) with y^2 = a (mod m), ascending.

    The roots of y^2 - a mod each prime power p^k of m (quadratic_roots)
    are joined by CRT; a p^k with no root ends the work at once.
    """
    ys, m0, known = [0], 1, {}
    for p, k in factorize(m).items():
        pk = p ** k
        rs = quadratic_roots(0, -a, p, pk, known)
        if not rs:
            return []
        if m0 == 1:  # the first prime power: its roots need no CRT
            ys = rs
        else:
            inv = pow(m0, -1, pk)
            ys = [y + m0 * ((r - y) * inv % pk) for y in ys for r in rs]
        m0 *= pk
    return sorted(ys)


def _entered_primes(t, n, bound):
    """The primes p <= bound mod which b^2 + t*b + n has a root, ascending:
    (d / p) != -1 for d = t^2 - 4n, that is d^((p-1)/2) != -1 mod an odd p
    (Euler), d != 5 mod 8 for p = 2.  They come from the smallest-prime-
    factor table, above it from is_prime.  As d = 0 or 1 mod 4, the
    Kronecker symbol (d / .) has period |d|, and a p | d is the only prime
    of its class mod |d|, so the test runs once per class met."""
    top, primes = table_primes(bound)
    primes += filter(is_prime, range(top + 1, bound + 1))
    d = t * t - 4 * n
    m, known = abs(d) or 1, {}  # class p mod |d| -> verdict; d = 0: 1 class
    return [p for p in primes if (e := known.get(r := p % m)) or e is None
            and known.setdefault(r, pow(d, p >> 1, p) != p - 1
                                 or p == 2 and d % 8 == 1)]


def quadratic_root_walk(t, n, roots_to, count_to):
    """(a, the roots b in [0, a) of b^2 + t*b + n mod a) for every
    1 <= a <= roots_to with a root, unordered and with no a factored; the
    generator's return value is the number of roots summed over every
    1 <= a <= count_to, for count_to >= roots_to.

    One depth-first walk over products of prime powers, primes ascending,
    with one prime filter (_entered_primes, up to count_to) and one memo of
    the roots mod p^k (quadratic_roots): a prime with no root is never
    entered, a p^k with no root ends the powers of p.  A child a * p^k up
    to roots_to takes its roots from a's by one CRT step and is yielded;
    above it, it carries rho(a * p^k) alone, the root count, which is
    multiplicative, with no CRT step.  Once the next prime p of a node a is
    past both roots_to // a and sqrt(lim), lim = count_to // a, every
    entered q in [p, lim] is a leaf a * q, added at once by a running sum
    of rho(q) over the entered primes: 1 if q | d, d = t^2 - 4n, else 2
    (d = 1 mod 8 if q = 2)."""
    primes = _entered_primes(t, n, count_to)
    d = t * t - 4 * n
    rho_sum = list(accumulate((1 + (d % q > 0) for q in primes), initial=0))
    primes.append(count_to + 1)
    known = {}  # p^k -> roots mod p^k
    total = 1  # a = 1, b = 0
    yield 1, [0]
    # (a, roots mod a or None above roots_to, rho(a), index of a's least
    # new prime)
    stack = [(1, [0], 1, 0)]
    while stack:
        a, bs, r, i = stack.pop()
        lim = count_to // a
        rlim = 0 if bs is None else roots_to // a
        p = primes[i]
        while p <= rlim or p * p <= lim:  # the sentinel ends every walk
            i += 1
            pk = p
            while pk <= lim:
                rs = quadratic_roots(t, n, p, pk, known)
                if not rs:
                    break
                k = r * len(rs)
                total += k
                if pk <= rlim:
                    inv = pow(a, -1, pk)
                    rs = [b + a * ((c - b) * inv % pk) for b in bs for c in rs]
                    yield a * pk, rs
                else:
                    rs = None
                if primes[i] <= lim // pk:  # a * p^k has children
                    stack.append((a * pk, rs, k, i))
                pk *= p
            p = primes[i]
        if p <= lim:
            total += r * (rho_sum[bisect_right(primes, lim, i)] - rho_sum[i])
    return total
