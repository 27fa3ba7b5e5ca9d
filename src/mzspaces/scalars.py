"""Exact scalars: rationals, prime fields, p-adic valuations, primality.

Rationals are stdlib Fraction values (always reduced, denominator > 0, zero is
0/1).  The p-adic valuation of 0 is the distinguished sentinel PADIC_INF,
never an integer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

PADIC_INF = math.inf

_TRIAL_LIMIT = 10**6
# Miller-Rabin bases: the first 13 primes decide primality for every
# n < 3317044064679887385961981 (about 3.3e24), the least strong pseudoprime
# to all of them.  Twelve bases (through 37) fail at 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Primality by trial division to 10^6, then Miller-Rabin to the first
    13 prime bases.  Those bases are proven to decide primality only for
    n < 3.3e24; at and above that the answer means probable prime (the
    pseudoprime 3317044064679887385961981 passes).  The certificate search
    tests p = m*deg(f) + 1 from m = m_min on, which stays far below that
    limit unless m_min itself is set near it."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    limit = math.isqrt(n)
    d = 5
    while d <= limit and d <= _TRIAL_LIMIT:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    if limit <= _TRIAL_LIMIT:
        return True
    return _miller_rabin(n)


def _miller_rabin(n):
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_valuation(value, p: int):
    """Exponent of the prime p in the rational value; PADIC_INF for 0."""
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"valuation base {p!r} is not prime")
    q = Fraction(value)
    if q == 0:
        return PADIC_INF
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def _int_valuation(n, p):
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _all_rational(values) -> bool:
    """True when every value is an int or a Fraction, so that the integer
    kernels apply; prime-field scalars take the generic field arithmetic."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def clear_denominators(values):
    """(d, ints): d is the least common multiple of the denominators of the
    rational values (1 for none) and ints lists d*v for each value v."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def scalar_inverse(c):
    """Multiplicative inverse of a field scalar (int, Fraction, or prime field)."""
    if isinstance(c, int):
        if c in (1, -1):
            return c
        if c == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    return c ** -1


class PrimeFieldScalar:
    """Element of Z/p for a prime p; mixes freely with Python ints."""

    __slots__ = ("residue", "modulus")

    def __init__(self, value, modulus):
        if not isinstance(modulus, int) or not is_prime(modulus):
            raise DomainError(f"modulus {modulus!r} is not prime")
        self.residue = value % modulus
        self.modulus = modulus

    def _lift(self, other):
        if isinstance(other, PrimeFieldScalar):
            if other.modulus != self.modulus:
                raise DomainError("prime field modulus mismatch")
            return other.residue
        if isinstance(other, int):
            return other % self.modulus
        return None

    def __add__(self, other):
        r = self._lift(other)
        if r is None:
            return NotImplemented
        return PrimeFieldScalar(self.residue + r, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._lift(other)
        if r is None:
            return NotImplemented
        return PrimeFieldScalar(self.residue - r, self.modulus)

    def __rsub__(self, other):
        r = self._lift(other)
        if r is None:
            return NotImplemented
        return PrimeFieldScalar(r - self.residue, self.modulus)

    def __mul__(self, other):
        r = self._lift(other)
        if r is None:
            return NotImplemented
        return PrimeFieldScalar(self.residue * r, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._lift(other)
        if r is None:
            return NotImplemented
        if r % self.modulus == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return PrimeFieldScalar(self.residue * pow(r, -1, self.modulus), self.modulus)

    def __rtruediv__(self, other):
        r = self._lift(other)
        if r is None:
            return NotImplemented
        if self.residue == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return PrimeFieldScalar(r * pow(self.residue, -1, self.modulus), self.modulus)

    def __pow__(self, exponent):
        if exponent < 0 and self.residue == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return PrimeFieldScalar(pow(self.residue, exponent, self.modulus), self.modulus)

    def __neg__(self):
        return PrimeFieldScalar(-self.residue, self.modulus)

    def __eq__(self, other):
        r = self._lift(other)
        if r is None:
            return NotImplemented
        return self.residue == r

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"{self.residue} (mod {self.modulus})"
