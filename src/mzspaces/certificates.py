"""p-adic certificates that a polynomial stays outside the radical of a
moment functional's kernel.

Two moment rules are supported: the unit-interval rule sends t^i to 1/(i+1),
the exponential rule sends t^i to i!.  A certificate names a prime p and a
power m and pins the exact p-adic valuation of the m-th power moment; the
value is recomputed exactly, so the certificate never rests on the theory
that motivated the prime search.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, lcm

from .errors import DomainError, SearchExhaustedError
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

DEFAULT_SEARCH_BOUND = 10**6
# Caps on the size of (D*f)^m at the certificate's m (`expansion_size`); near
# them power_moment takes 0.4-1.0 s on a 2-vCPU host, depending on f.
MAX_EXPANSION_BITS = 4_000_000
MAX_EXPANSION_TERMS = 12_000


class _Members(type):
    """Iterating the class yields its members, as for an enum.Enum; enum,
    with the modules it loads, would cost several ms of start-up for two
    constants."""

    def __iter__(cls):
        return iter((cls.UNIT_INTERVAL, cls.EXPONENTIAL))


class MomentRule(metaclass=_Members):
    """The two moment rules, UNIT_INTERVAL (value "unit") and EXPONENTIAL
    (value "exp"), each one instance, so that `is` tells them apart."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str):
        self.name = name
        self.value = value

    def __repr__(self):
        return f"<MomentRule.{self.name}: {self.value!r}>"

    def __reduce__(self):
        """A pickle or a copy of a member is the member itself, as for an
        enum.Enum, so that `is` still tells the rules apart."""
        return f"MomentRule.{self.name}"

    def moment(self, i: int) -> Rational:
        if i < 0:
            raise DomainError("moment index must be >= 0")
        if self is MomentRule.UNIT_INTERVAL:
            return Rational(1, i + 1)
        return Rational(factorial(i))


MomentRule.UNIT_INTERVAL = MomentRule("UNIT_INTERVAL", "unit")
MomentRule.EXPONENTIAL = MomentRule("EXPONENTIAL", "exp")


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


def power_moment(rule: MomentRule, f: Poly, power: int) -> Rational:
    """Exact termwise moment of f**power.

    With D the common denominator of f, (D*f)**power has integer
    coefficients c_i, expanded by Kronecker substitution, and the moment is
    sum c_i * i! / D**power (exponential rule; c_0 + 1 * (c_1 + 2 * (c_2 +
    ...)) by Horner) or sum c_i * (L / (i + 1)) / (L * D**power) with
    L = lcm(1..N + 1), N the degree of the expansion (unit rule): one
    division at the end.
    """
    if power < 0:
        raise DomainError("power must be >= 0")
    require_rational(f.coeffs, "the power moment")
    d, base = clear_denominators(f.coeffs)
    expanded = _expand_power(base, power)
    scale = d**power
    if rule is MomentRule.EXPONENTIAL:
        total = 0
        for i in range(len(expanded) - 1, -1, -1):
            total = total * (i + 1) + expanded[i]
        return Rational(total, scale)
    lcm_all = lcm(*range(1, len(expanded) + 1))
    total = sum(c * (lcm_all // (i + 1)) for i, c in enumerate(expanded) if c)
    return Rational(total, lcm_all * scale)


def _first_certificate(rule: MomentRule, f: Poly, step: int, m_min: int,
                       search_bound: int) -> PAdicCertificate:
    """The certificate at the first admissible m >= m_min: p = step*m + 1 is
    prime and divides no coefficient denominator of f.  There the moment's
    valuation is known in advance (-1 for the unit rule, 0 for the
    exponential rule, as the two entry points explain), so the first
    admissible m always yields the certificate, and the search gives up
    only after search_bound inadmissible m in a row.  The value is still
    expanded exactly, unless the expansion would exceed the size caps
    above, and the certificate re-checks its valuation."""
    d, base = clear_denominators(f.coeffs)
    for m in range(m_min, m_min + search_bound):
        p = step * m + 1
        if is_prime(p) and d % p:
            terms, bits = expansion_size(base, m)
            if terms > MAX_EXPANSION_TERMS or terms * bits > MAX_EXPANSION_BITS:
                raise DomainError(
                    f"at m = {m} the expansion of (D*f)^m has {terms} coefficients of up to "
                    f"{bits} bits, {terms * bits} bits in all, over the cap of "
                    f"{MAX_EXPANSION_TERMS} coefficients and {MAX_EXPANSION_BITS} bits")
            valuation = -1 if rule is MomentRule.UNIT_INTERVAL else 0
            try:
                return PAdicCertificate(p, m, valuation, power_moment(rule, f, m))
            except DomainError as exc:
                raise AssertionError(f"admissible m = {m} must certify: {exc}") from exc
    name = "unit-interval" if rule is MomentRule.UNIT_INTERVAL else "exponential"
    raise SearchExhaustedError(
        f"no {name} certificate within {search_bound} progression terms"
    )


def certify_unit_interval(f: Poly, m_min: int = 1,
                          search_bound: int = DEFAULT_SEARCH_BOUND) -> PAdicCertificate:
    """Certificate that no power of f from m up is killed by the
    unit-interval rule: at p = m*deg(f) + 1 the moment has valuation -1.

    f is monic, so the moment sum c_i/(i+1) of f^m has the term 1/p from its
    leading coefficient, and every other term has i + 1 < p and a p-integral
    c_i; the first admissible m is the certificate.
    """
    require_rational(f.coeffs, "certificate search")
    if f.is_zero or f.degree < 1:
        raise DomainError("certificates need degree >= 1")
    if f.lead != 1:
        raise DomainError("polynomial must be monic")
    if m_min < 1:
        raise DomainError("m_min must be >= 1")
    if search_bound < 1:
        raise DomainError("search_bound must be >= 1")
    return _first_certificate(MomentRule.UNIT_INTERVAL, f, f.degree, m_min, search_bound)


def certify_exponential(f: Poly, m_min: int = 1,
                        search_bound: int = DEFAULT_SEARCH_BOUND) -> PAdicCertificate:
    """Certificate that no power of f from m up is killed by the factorial
    rule, for f = t^r + higher terms with r >= 1: at p = r*m + 1 the moment
    has valuation 0.

    The moment sum c_i i! of f^m has the p-adic unit (r*m)! from its lowest
    term, and every other term has i >= p, so p divides i!; the first
    admissible m is the certificate.
    """
    require_rational(f.coeffs, "certificate search")
    if f.is_zero or f.degree < 1:
        raise DomainError("certificates need degree >= 1")
    if m_min < 1:
        raise DomainError("m_min must be >= 1")
    if search_bound < 1:
        raise DomainError("search_bound must be >= 1")
    r = f.low_order
    if r < 1:
        raise DomainError("lowest term must be t^r with r >= 1 (nonzero constant term)")
    if f.coefficient(r) != 1:
        raise DomainError(
            "lowest-degree coefficient must be 1; divide the polynomial through first"
        )
    if f.degree == r:
        raise DomainError(
            "single monomial t^r needs no certificate: its factorial moments never vanish"
        )
    return _first_certificate(MomentRule.EXPONENTIAL, f, r, m_min, search_bound)
