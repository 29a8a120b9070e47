"""Modular arithmetic utilities: factorization, square roots mod m, symbols."""

from __future__ import annotations

from math import gcd, isqrt

from .errors import MethodDisagreement, SearchBudgetExceeded

_SPF = [0, 1]  # smallest prime factor table, grown on demand
_SPF_CAP = 1 << 18  # factorize leaves the table from here on


def _grow_spf(n):
    global _SPF
    if len(_SPF) > n:
        return
    size = min(max(n + 1, 2 * len(_SPF), 1 << 12), _SPF_CAP)
    spf = list(range(size))
    for p in range(2, isqrt(size - 1) + 1):
        if spf[p] == p:
            for q in range(p * p, size, p):
                if spf[q] == q:
                    spf[q] = p
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
    # The table costs about 40 bytes per entry and grows to n; above 2^18
    # trial division by the small primes and rho are cheaper.
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
                    operation="factorize")
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
    factor table may hold), and the primes p <= top, read off that table."""
    top = min(n, _SPF_CAP - 1)
    _grow_spf(top)
    spf = _SPF
    return top, [p for p in range(2, top + 1) if spf[p] == p]


def radical(n: int) -> int:
    out = 1
    for p in factorize(n):
        out *= p
    return out


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
    """Square root of a mod odd prime p, assuming it exists; None otherwise."""
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q 2^s
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
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


def _sqrts_mod_odd_prime_power(a, p, k):
    """All y mod p^k with y^2 = a, p odd."""
    m = p ** k
    a %= m
    if a == 0:
        step = p ** ((k + 1) // 2)
        return list(range(0, m, step))
    v = 0
    aa = a
    while aa % p == 0:
        aa //= p
        v += 1
    if v % 2:
        return []
    half = p ** (v // 2)
    base = _sqrts_mod_odd_prime_power_unit(aa, p, k - v)
    if not base:
        return []
    out = []
    stepmod = p ** (k - v)
    for z0 in base:
        for s in range(half):
            out.append(half * (z0 + stepmod * s) % m)
    return sorted(set(out))


def _sqrts_mod_odd_prime_power_unit(a, p, k):
    """y^2 = a mod p^k for p odd, p not dividing a."""
    r = _tonelli_shanks(a, p)
    if r is None:
        return []
    pk = p
    while pk < p ** k:
        # Hensel: r' = r - (r^2 - a) / (2r) mod pk*p
        pk_next = pk * p
        num = (r * r - a) // pk % p
        den = (2 * r) % p
        r = (r - num * pow(den, -1, p) % p * pk) % pk_next
        pk = pk_next
    m = p ** k
    r %= m
    return sorted({r, m - r})


def _sqrts_mod_two_power(a, k):
    """All y mod 2^k with y^2 = a."""
    m = 1 << k
    a %= m
    if k <= 9:
        return [y for y in range(m) if (y * y - a) % m == 0]
    if a == 0:
        step = 1 << ((k + 1) // 2)
        return list(range(0, m, step))
    v = 0
    aa = a
    while aa % 2 == 0:
        aa //= 2
        v += 1
    if v % 2:
        return []
    half = 1 << (v // 2)
    base = _sqrts_mod_two_power_unit(aa, k - v)
    if not base:
        return []
    out = set()
    stepmod = 1 << (k - v)
    for z0 in base:
        for s in range(half):
            out.add(half * (z0 + stepmod * s) % m)
    return sorted(out)


def _sqrts_mod_two_power_unit(a, k):
    """y^2 = a mod 2^k for odd a."""
    if k == 1:
        return [1]
    if k == 2:
        return [1, 3] if a % 4 == 1 else []
    if a % 8 != 1:
        return []
    # lift from mod 8 upward; solutions mod 2^k (k >= 3) form 4 classes
    r = 1
    for j in range(3, k):
        if (r * r - a) % (1 << (j + 1)):
            r += 1 << (j - 1)
    m = 1 << k
    return sorted({r % m, (m - r) % m, (r + (m >> 1)) % m, (m - r + (m >> 1)) % m})


def sqrts_mod(a: int, m: int):
    """All y in [0, m) with y^2 = a (mod m)."""
    if m == 1:
        return [0]
    out = [(0, 1)]  # (residue, modulus) accumulated via CRT
    for p, k in factorize(m).items():
        sols = (_sqrts_mod_two_power(a, k) if p == 2
                else _sqrts_mod_odd_prime_power(a, p, k))
        if not sols:
            return []
        pk = p ** k
        nxt = []
        for r0, m0 in out:
            for s in sols:
                # CRT combine r0 mod m0 with s mod pk (coprime moduli)
                inv = pow(m0, -1, pk)
                r = (r0 + m0 * ((s - r0) * inv % pk)) % (m0 * pk)
                nxt.append((r, m0 * pk))
        out = nxt
    return sorted(r for r, _ in out)
