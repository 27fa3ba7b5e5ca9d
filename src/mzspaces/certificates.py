"""p-adic certificates that a polynomial stays outside the radical of a
moment functional's kernel.

Two moment rules are supported, named as on the command line: "unit" (the
unit interval) sends t^i to 1/(i+1), "exp" (the exponential rule) sends t^i
to i!.  A certificate names a prime p and a power m and pins the exact
p-adic valuation of the m-th power moment; the value is recomputed exactly,
so the certificate never rests on the theory that motivated the prime search.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count
from math import lcm, log10

from .errors import DomainError
from .scalars import (
    PADIC_INF,
    Rational,
    clear_denominators,
    digit_width,
    is_prime,
    pack,
    padic_valuation,
    require_rational,
    unpack,
)
from .upoly import Poly

# Caps on the size of (D*f)^m (`expansion_size`), checked at every m the
# search walks; near them power_moment takes 0.4-1.0 s on a 2-vCPU host,
# depending on f.
MAX_EXPANSION_BITS = 4_000_000
MAX_EXPANSION_TERMS = 12_000


class PAdicCertificate(namedtuple("PAdicCertificate", "prime exponent valuation value")):
    """L(f^exponent) has the pinned valuation at the prime, hence is nonzero."""

    __slots__ = ()

    def __new__(cls, prime: int, exponent: int, valuation: int, value):
        if value == 0:
            raise DomainError("certificate value must be nonzero")
        actual = padic_valuation(value, prime)
        if actual is PADIC_INF or actual != valuation:
            raise DomainError(f"claimed valuation {valuation} but value has {actual}")
        return super().__new__(cls, prime, exponent, valuation, value)

    @classmethod
    def _make(cls, iterable):
        """Route _make and _replace through the check in __new__."""
        return cls(*iterable)


def expansion_size(base, power: int):
    """(terms, bits): the power of the integer coefficient list base has
    terms coefficients, each below 2^(bits - 1) in absolute value, since
    none exceeds (sum |base|)^power."""
    return power * (len(base) - 1) + 1, power * sum(map(abs, base)).bit_length() + 1


def _expand_power(base, power: int):
    """The coefficients of (sum base[i] t^i)^power by Kronecker substitution
    (`scalars.pack`): base packed into one integer, raised to the power, and
    unpacked.  Every coefficient of the power, and of base itself, is below
    2^(bits - 1) in absolute value (`expansion_size`), which sets the digit
    width."""
    if power == 0 or not base:
        return [] if power else [1]
    terms, bits = expansion_size(base, power)
    width = digit_width((1 << (bits - 1)) - 1)
    return unpack(pack(base, width) ** power, width, terms)


def _decimal(n: int) -> str:
    """n >= 1 in decimal or, past the interpreter's integer-to-string limit,
    as "10^k or more", k + 1 its digit count."""
    try:
        return str(n)
    except ValueError:
        k = int((n.bit_length() - 1) * log10(2))  # log10(2^(bits - 1)), floored
        return f"10^{k + (n >= 10 ** (k + 1))} or more"


def power_moment(rule: str, f: Poly, power: int) -> Rational:
    """Exact termwise moment of f**power under rule "unit" or "exp".

    With D the common denominator of f, (D*f)**power has integer
    coefficients c_i, expanded by Kronecker substitution, and the moment is
    sum c_i * i! / D**power (exponential rule; c_0 + 1 * (c_1 + 2 * (c_2 +
    ...)) by Horner) or sum c_i * (L / (i + 1)) / (L * D**power) with
    L = lcm(1..N + 1), N the degree of the expansion (unit rule): one
    division at the end.
    """
    if rule not in ("unit", "exp"):
        raise DomainError(f"moment rule must be 'unit' or 'exp', got {rule!r}")
    if power < 0:
        raise DomainError("power must be >= 0")
    require_rational(f.coeffs, "the power moment")
    d, base = clear_denominators(f.coeffs)
    expanded = _expand_power(base, power)
    scale = d**power
    if rule == "exp":
        total = 0
        for i in range(len(expanded) - 1, -1, -1):
            total = total * (i + 1) + expanded[i]
        return Rational(total, scale)
    lcm_all = lcm(*range(1, len(expanded) + 1))
    total = sum(c * (lcm_all // (i + 1)) for i, c in enumerate(expanded) if c)
    return Rational(total, lcm_all * scale)


def _first_certificate(rule: str, f: Poly, k: int, m_min: int) -> PAdicCertificate:
    """The certificate at the first admissible m >= m_min, where p = k*m + 1
    is prime and divides neither the common denominator D of f nor the
    numerator of its t^k coefficient; there the valuation is known (see the
    two entry points).  The size of (D*f)^m grows with m and the caps come
    first at every m, so the walk ends within MAX_EXPANSION_TERMS steps and
    needs no bound of its own.  The value is expanded exactly, and the
    certificate re-checks its valuation."""
    d, base = clear_denominators(f.coeffs)
    guard = d * base[k]  # p divides it iff p divides D or the numerator of f's t^k coefficient
    for m in count(m_min):
        terms, bits = expansion_size(base, m)
        if terms > MAX_EXPANSION_TERMS or terms * bits > MAX_EXPANSION_BITS:
            raise DomainError(
                f"at m = {_decimal(m)} the expansion of (D*f)^m has {_decimal(terms)} "
                f"coefficients of up to {_decimal(bits)} bits, {_decimal(terms * bits)} bits "
                f"in all, over the cap of {MAX_EXPANSION_TERMS} coefficients and "
                f"{MAX_EXPANSION_BITS} bits")
        p = k * m + 1
        if is_prime(p) and guard % p:
            valuation = -1 if rule == "unit" else 0
            try:
                return PAdicCertificate(p, m, valuation, power_moment(rule, f, m))
            except DomainError as exc:
                raise AssertionError(f"admissible m = {m} must certify: {exc}") from exc


def certify_unit_interval(f: Poly, m_min: int = 1) -> PAdicCertificate:
    """Certificate that no power of f from m up is killed by the
    unit-interval rule: at p = m*deg(f) + 1 the moment has valuation -1.

    With a the leading coefficient of f, the moment sum c_i/(i+1) of f^m
    has the term a^m/p of valuation -1, since p divides neither num(a) nor
    a denominator of f, and every other term has i + 1 < p and a p-integral
    c_i; the first admissible m is the certificate.
    """
    require_rational(f.coeffs, "certificate search")
    if f.is_zero or f.degree < 1:
        raise DomainError("certificates need degree >= 1")
    if m_min < 1:
        raise DomainError("m_min must be >= 1")
    return _first_certificate("unit", f, f.degree, m_min)


def certify_exponential(f: Poly, m_min: int = 1) -> PAdicCertificate:
    """Certificate that no power of f from m up is killed by the factorial
    rule, for f = c t^r + higher terms with r >= 1 and c != 0: at
    p = r*m + 1 the moment has valuation 0.

    The moment sum c_i i! of f^m has the term c^m (r*m)! from its lowest
    term, a p-adic unit since (p - 1)! = -1 mod p (Wilson's theorem) and p
    divides neither num(c) nor a denominator of f, and every other term has
    i >= p, so p divides i!; the first admissible m is the certificate.
    """
    require_rational(f.coeffs, "certificate search")
    if f.is_zero or f.degree < 1:
        raise DomainError("certificates need degree >= 1")
    if m_min < 1:
        raise DomainError("m_min must be >= 1")
    r = f.low_order
    if r < 1:
        raise DomainError("lowest term must be t^r with r >= 1 (nonzero constant term)")
    if f.degree == r:
        raise DomainError(
            "single monomial t^r needs no certificate: its factorial moments never vanish"
        )
    return _first_certificate("exp", f, r, m_min)
