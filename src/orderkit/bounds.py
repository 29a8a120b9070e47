"""Evaluators for the explicit height, count, and isogeny-degree bounds.

Every bound is a product of integer powers.  Values are kept exact up to a
digit threshold; above it only a certified base-10 logarithm survives,
computed with directed rounding so the digit count is provably correct
either way.  Excluded-prime sets are a dedicated type so the two prime-product
conventions in play can never be mixed up silently.
"""

from __future__ import annotations

import decimal
import sys
from dataclasses import dataclass
from decimal import Decimal
from math import prod

from .errors import MethodDisagreement, NotPrime
from .modular import is_prime

EXACT_DIGIT_THRESHOLD = 10_000_000

_LOG_PREC = 60
_CTX_FLOOR = decimal.Context(prec=_LOG_PREC, rounding=decimal.ROUND_FLOOR)
_CTX_CEIL = decimal.Context(prec=_LOG_PREC, rounding=decimal.ROUND_CEILING)
_LOG_CACHE = {}


def _log10_interval(b: int):
    """[lo, hi] enclosing log10(b) with directed rounding."""
    cached = _LOG_CACHE.get(b)
    if cached is not None:
        return cached
    db = Decimal(b)
    ln_b_lo = db.ln(context=_CTX_FLOOR)
    ln_b_hi = db.ln(context=_CTX_CEIL)
    ln10_lo = Decimal(10).ln(context=_CTX_FLOOR)
    ln10_hi = Decimal(10).ln(context=_CTX_CEIL)
    lo = _CTX_FLOOR.divide(ln_b_lo, ln10_hi)
    hi = _CTX_CEIL.divide(ln_b_hi, ln10_lo)
    _LOG_CACHE[b] = (lo, hi)
    return lo, hi


class BigBound:
    """An exact big integer, or above the digit threshold a certified log10."""

    __slots__ = ("factors", "exact_value", "log10", "digit_count",
                 "exact_flag", "_lo", "_hi")

    def __init__(self, factors):
        norm = []
        for base, exp in factors:
            base, exp = int(base), int(exp)
            if base <= 0:
                raise ValueError("bound factors must be positive")
            if exp < 0:
                raise ValueError("bound exponents must be nonnegative")
            if base == 1 or exp == 0:
                continue
            norm.append((base, exp))
        object.__setattr__(self, "factors", tuple(norm))
        lo = Decimal(0)
        hi = Decimal(0)
        for base, exp in norm:
            blo, bhi = _log10_interval(base)
            lo = _CTX_FLOOR.add(lo, _CTX_FLOOR.multiply(blo, Decimal(exp)))
            hi = _CTX_CEIL.add(hi, _CTX_CEIL.multiply(bhi, Decimal(exp)))
        if hi - lo >= Decimal("1e-6"):
            raise MethodDisagreement("log interval too wide to certify",
                                     operation="BigBound")
        flo, fhi = int(lo.to_integral_value(decimal.ROUND_FLOOR)), \
            int(hi.to_integral_value(decimal.ROUND_FLOOR))
        if flo != fhi:
            raise MethodDisagreement(
                "digit count is ambiguous; raise precision",
                operation="BigBound")
        digits = flo + 1
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "digit_count", digits)
        # log10 to 15 places: len(str(flo)) integer digits and 15 decimals,
        # in a context that holds them (28 digits, the default, suffice
        # below 10^13)
        ctx = decimal.Context(prec=max(28, len(str(flo)) + 15))
        object.__setattr__(self, "log10",
                           ctx.divide(ctx.add(lo, hi), 2).quantize(
                               Decimal("1e-15"), context=ctx))
        if digits <= EXACT_DIGIT_THRESHOLD:
            v = 1
            for base, exp in norm:
                v *= base ** exp
            object.__setattr__(self, "exact_value", v)
            object.__setattr__(self, "exact_flag", True)
        else:
            object.__setattr__(self, "exact_value", None)
            object.__setattr__(self, "exact_flag", False)

    def __setattr__(self, name, value):
        raise AttributeError("BigBound is immutable")

    def __repr__(self):
        shown = "*".join(f"{b}^{e}" for b, e in self.factors) or "1"
        return f"BigBound({shown}, digits={self.digit_count})"

    def certified_le(self, other: "BigBound") -> bool:
        """True when self <= other is certain from the log intervals
        (or from exact values when both are materialized)."""
        if self.exact_flag and other.exact_flag:
            return self.exact_value <= other.exact_value
        return self._hi <= other._lo

    def log10_interval(self):
        return self._lo, self._hi

    def to_json_dict(self, formula_id, inputs):
        out = {
            "formula_id": formula_id,
            "inputs": inputs,
            "log10": str(self.log10),
            "digit_count": self.digit_count,
            "exact_flag": self.exact_flag,
        }
        if self.exact_flag:
            try:
                out["exact_value"] = str(self.exact_value)
            except ValueError:
                # Python refuses decimal strings above sys.get_int_max_str_digits()
                # digits, a guard against its quadratic conversion: give the
                # exact value as the [base, exp] factors it is the product of.
                out["exact_value"] = [list(f) for f in self.factors]
        return out


@dataclass(frozen=True)
class SIntegerSpec:
    """A finite set of excluded rational primes (the inverted primes)."""

    excluded_primes: frozenset

    def __init__(self, primes=()):
        ps = frozenset(int(p) for p in primes)
        for p in ps:
            if not is_prime(p):
                raise NotPrime(f"{p} is not prime", operation="SIntegerSpec")
        object.__setattr__(self, "excluded_primes", ps)

    def n_value(self) -> int:
        out = 1
        for p in self.excluded_primes:
            out *= p
        return out

    @classmethod
    def from_string(cls, text: str) -> "SIntegerSpec":
        text = text.strip()
        if not text:
            return cls(())
        return cls(int(tok) for tok in text.split(","))


def e_exponent(g: int) -> int:
    """e_g = (8g)^8."""
    return (8 * g) ** 8


def thm_main_height(g: int, n_u: SIntegerSpec) -> BigBound:
    """(3g)^(144g) * N_U^24."""
    return BigBound([(3 * g, 144 * g), (n_u.n_value(), 24)])


def thm_a_height(g: int, nu: int, n_s: SIntegerSpec) -> BigBound:
    """(3g)^(144g) * (nu * N_S)^24."""
    return BigBound([(3 * g, 144 * g), (nu * n_s.n_value(), 24)])


def thm_main_count(g: int, n_u: SIntegerSpec, pic_o: int, max_level):
    """(headline, sharper) count bounds; None when the level count is infinite.

    headline: pic * level * (2 N_U)^(e_g)
    sharper:  pic * level * (4g)^((8g)^7) * N_U^((12g)^5)
    """
    if max_level is None:
        return None, None
    n = n_u.n_value()
    e = e_exponent(g)
    headline = BigBound([(pic_o, 1), (max_level, 1), (2 * n, e)])
    sharper = BigBound([(pic_o, 1), (max_level, 1),
                        (4 * g, (8 * g) ** 7), (n, (12 * g) ** 5)])
    if not sharper.certified_le(headline):
        raise MethodDisagreement("sharper bound is not sharper",
                                 operation="thm_main_count")
    return headline, sharper


def thm_b(g: int, n_s: SIntegerSpec, pic_o: int) -> BigBound:
    """pic * (2 N_S)^(e_g): the uniform structure-count bound for the maximal order."""
    return BigBound([(pic_o, 1), (2 * n_s.n_value(), e_exponent(g))])


def es_gl2_bounds(g: int, n_s: SIntegerSpec):
    """(height, count, isogeny) bounds for the rank-2-type class:

    height:  (3g)^(144g)  * N_S^24
    count:   (14g)^((9g)^6)  * N_S^((18g)^4)
    isogeny: (14g)^((12g)^5) * N_S^((37g)^3)
    """
    n = n_s.n_value()
    height = BigBound([(3 * g, 144 * g), (n, 24)])
    count = BigBound([(14 * g, (9 * g) ** 6), (n, (18 * g) ** 4)])
    isogeny = BigBound([(14 * g, (12 * g) ** 5), (n, (37 * g) ** 3)])
    return height, count, isogeny


def thm_endobound(g: int, n_s: SIntegerSpec, n_f: int, h: int, l: int,
                  d_override: int | None = None) -> BigBound:
    """d^((2g+1)g) * N(f)^(g+1) * h * l, with d the uniform isogeny degree
    (14g)^((12g)^5) * N_S^((37g)^3) unless a minimal degree is supplied."""
    e = (2 * g + 1) * g
    factors = [(n_f, g + 1), (h, 1), (l, 1)]
    if d_override is not None:
        factors.append((d_override, e))
    else:
        n = n_s.n_value()
        factors.append((14 * g, (12 * g) ** 5 * e))
        factors.append((n, (37 * g) ** 3 * e))
    return BigBound(factors)


def cor_p1n(g: int, n: int, n_s: SIntegerSpec, pic_o: int):
    """(height, count) for the exact-order torsion family at level norm n:

    height: (3g)^(144g) * (n N_S)^24
    count:  pic * (2 n N_S)^(e_g)
    """
    ns = n_s.n_value()
    height = BigBound([(3 * g, 144 * g), (n * ns, 24)])
    count = BigBound([(pic_o, 1), (2 * n * ns, e_exponent(g))])
    return height, count


def plain_or_big(factors, formula_id, inputs):
    """The product of the (base, exp) factors as a plain integer when it has
    at most EXACT_DIGIT_THRESHOLD digits and Python can print it (at most
    sys.get_int_max_str_digits()), else BigBound(factors).to_json_dict.
    The digit count is read off the certified upper log10 bound, before any
    power is formed."""
    limit = min(EXACT_DIGIT_THRESHOLD,
                sys.get_int_max_str_digits() or EXACT_DIGIT_THRESHOLD)
    hi = Decimal(0)
    for base, exp in factors:
        if base > 1:
            hi = _CTX_CEIL.add(hi, _CTX_CEIL.multiply(_log10_interval(base)[1],
                                                      Decimal(exp)))
    if hi < limit:  # so log10 < limit: at most limit digits
        return prod(base ** exp for base, exp in factors)
    return BigBound(factors).to_json_dict(formula_id, inputs)


def level_structure_factors(kind: str, n: int | None = None,
                            g: int | None = None):
    """[(base, exp)] of the level-count bound: n^(4g) for principal level,
    n^(2g) for exact-order torsion level, 24 for the cubic-equation family."""
    if kind == "principal_n":
        return [(n, 4 * g)]
    if kind == "p1_n":
        return [(n, 2 * g)]
    if kind == "mordell_a":
        return [(24, 1)]
    raise ValueError(f"unknown level-structure kind: {kind}")


def level_structure_bounds(kind: str, n: int | None = None,
                           g: int | None = None) -> int:
    """The level-count bound of level_structure_factors as an integer."""
    return prod(b ** e for b, e in level_structure_factors(kind, n, g))


def pol_degree_factors(g: int):
    """At most 2^g polarization classes over the base schemes in play."""
    return [(2, g)]


def pol_degree_bound(g: int) -> int:
    """The polarization bound of pol_degree_factors as an integer."""
    return prod(b ** e for b, e in pol_degree_factors(g))


def forget_chain_bound(level_bound: int, g: int, iota_bound: BigBound) -> BigBound:
    """deg(phi) <= |P|_S * 2^g * deg(phi_iota): the composite fiber bound."""
    return BigBound([(level_bound, 1), (2, g)] + list(iota_bound.factors))
