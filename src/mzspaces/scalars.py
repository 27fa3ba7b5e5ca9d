"""Exact scalars: rationals, p-adic valuations, primality, the one
packed-integer kernel (`pack`, `unpack`, `packed_digit`) that carries the
library's Kronecker products, and the one square-and-multiply loop
(`power`) that raises every polynomial type to its powers.

The scalar field is Q.  A scalar is an int or a Rational: numerator over
denominator, reduced, denominator > 0, zero as 0/1, immutable.  Rational
never collapses to an int, so no int / int float can appear; it builds
only from ints and rationals, never from strings or floats.  The library
builds every non-integer scalar as a Rational, and reads the stdlib
Fraction of a caller as readily: Rational takes one on either side of
each operation, equal values hash alike across int, Rational and
Fraction, and require_rational accepts all three.  No module of the
package outside selftest imports fractions, which with the decimal,
numbers, re and enum it loads costs about 12 ms of start-up; a Fraction
is recognised only once its module is loaded (`sys.modules`).

The p-adic valuation of 0 is the distinguished sentinel PADIC_INF, never
an integer.
"""

from __future__ import annotations

import math
import sys
from math import gcd

from .errors import DomainError

PADIC_INF = math.inf
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _parts(x):
    """(numerator, denominator) of an int, a Rational or a stdlib Fraction;
    None for anything else.  A Fraction exists only once fractions is
    loaded, so it is looked up there and never imported."""
    if isinstance(x, Rational):
        return x._numerator, x._denominator
    if isinstance(x, int):
        return x, 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return x.numerator, x.denominator
    return None


def _new(numerator, denominator):
    """The Rational of coprime ints, denominator > 0, with no gcd taken."""
    q = object.__new__(Rational)
    q._numerator = numerator
    q._denominator = denominator
    return q


# The kernels on (numerator, denominator) pairs in lowest terms are those of
# the stdlib Fraction (Henrici's: Knuth, TAOCP vol. 2, section 4.5.1): each
# takes the gcds of the smaller operands, so that the result needs no
# reduction of its own.

def _add(na, da, nb, db):
    g = gcd(da, db)
    if g == 1:
        return _new(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _new(t, s * db)
    return _new(t // g2, s * (db // g2))


def _sub(na, da, nb, db):
    return _add(na, da, -nb, db)


def _mul(na, da, nb, db):
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _new(na * nb, db * da)


def _div(na, da, nb, db):
    if nb == 0:
        raise ZeroDivisionError("division by zero")
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    return _new(n, d)


def _operator(kernel):
    """The method and its reflection for kernel(na, da, nb, db): an int,
    Rational or stdlib Fraction on the other side, anything else
    NotImplemented (so a float raises TypeError, never coerces)."""
    def forward(a, b):
        if type(b) is Rational:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            return kernel(a._numerator, a._denominator, b, 1)
        parts = _parts(b)
        if parts is None:
            return NotImplemented
        return kernel(a._numerator, a._denominator, *parts)

    def reflected(b, a):
        if type(a) is int:
            return kernel(a, 1, b._numerator, b._denominator)
        parts = _parts(a)
        if parts is None:
            return NotImplemented
        return kernel(*parts, b._numerator, b._denominator)

    return forward, reflected


def _comparison(compare):
    """The ordering method that applies the int comparison compare to the
    cross products of the two fractions."""
    def method(a, b):
        parts = _parts(b)
        if parts is None:
            return NotImplemented
        return compare(a._numerator * parts[1], parts[0] * a._denominator)

    return method


class Rational:
    """An exact rational: numerator/denominator in lowest terms, denominator
    > 0; immutable.  Rational(n, d) takes two ints, Rational(x) one int,
    Rational or stdlib Fraction; anything else is a TypeError.  It hashes
    as the equal int or Fraction, prints as "n/d" or "n", and arithmetic
    with an int, a Rational or a Fraction on either side gives a Rational.

    It is not registered as a numbers.Rational (that would import numbers),
    so Fraction(x) raises TypeError; Fraction(x.numerator, x.denominator)
    converts back, and Rational(Fraction) converts forth."""

    __slots__ = ("_numerator", "_denominator")

    def __new__(cls, numerator, denominator=None):
        if denominator is None:
            parts = _parts(numerator)
            if parts is None:
                raise TypeError(f"Rational() needs an int or a rational, not "
                                f"{type(numerator).__name__}")
            numerator, denominator = parts
        elif not (isinstance(numerator, int) and isinstance(denominator, int)):
            raise TypeError("Rational(numerator, denominator) needs two ints")
        if denominator == 0:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        g = gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        q = object.__new__(cls)
        q._numerator = numerator // g
        q._denominator = denominator // g
        return q

    @property
    def numerator(self):
        return self._numerator

    @property
    def denominator(self):
        return self._denominator

    __add__, __radd__ = _operator(_add)
    __sub__, __rsub__ = _operator(_sub)
    __mul__, __rmul__ = _operator(_mul)
    __truediv__, __rtruediv__ = _operator(_div)

    __lt__ = _comparison(int.__lt__)
    __le__ = _comparison(int.__le__)
    __gt__ = _comparison(int.__gt__)
    __ge__ = _comparison(int.__ge__)

    def __eq__(self, other):
        if type(other) is int:
            return self._denominator == 1 and self._numerator == other
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return self._numerator == parts[0] and self._denominator == parts[1]

    def __hash__(self):
        """Fraction's hash, which an equal int shares: the numerator times
        the inverse of the denominator modulo the hash modulus."""
        n, d = self._numerator, self._denominator
        if d == 1:
            return hash(n)
        try:
            inverse = pow(d, -1, _HASH_MODULUS)
        except ValueError:  # d is a multiple of the modulus
            value = _HASH_INF
        else:
            value = hash(hash(abs(n)) * inverse)
        value = value if n >= 0 else -value
        return -2 if value == -1 else value

    def __pow__(self, exponent):
        """A power by an int; a negative one inverts first."""
        if not isinstance(exponent, int):
            return NotImplemented
        n, d = self._numerator, self._denominator
        if exponent < 0:
            if n == 0:
                raise ZeroDivisionError("zero to a negative power")
            n, d, exponent = (d, n, -exponent) if n > 0 else (-d, -n, -exponent)
        return _new(n**exponent, d**exponent)

    def __neg__(self):
        return _new(-self._numerator, self._denominator)

    def __abs__(self):
        return _new(abs(self._numerator), self._denominator)

    def __bool__(self):
        return self._numerator != 0

    def __int__(self):
        """Truncation toward zero, as int() of a Fraction."""
        n, d = self._numerator, self._denominator
        return n // d if n >= 0 else -(-n // d)

    def __str__(self):
        if self._denominator == 1:
            return str(self._numerator)
        return f"{self._numerator}/{self._denominator}"

    def __repr__(self):
        return f"Rational({self._numerator}, {self._denominator})"

    def __reduce__(self):
        """Pickles and copies rebuild the value, as for a Fraction."""
        return Rational, (self._numerator, self._denominator)


# Miller-Rabin bases: the first 13 primes decide primality for every
# n < 3317044064679887385961981 (about 3.3e24), the least strong pseudoprime
# to all of them.  Twelve bases (through 37) fail at 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Primality by division by the 13 prime bases below, which settles every
    n < 43^2, then Miller-Rabin to those bases.  They are proven to decide
    primality only for n < 3.3e24; at and above that the answer means
    probable prime (the pseudoprime 3317044064679887385961981 passes).  The
    certificate search tests p = m*deg(f) + 1 from m = m_min on, which stays
    far below that limit unless m_min itself is set near it."""
    if n < 2:
        return False
    for a in _MR_WITNESSES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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
    require_rational((value,), "padic_valuation")
    if value == 0:
        return PADIC_INF
    return _int_valuation(value.numerator, p) - _int_valuation(value.denominator, p)


def _int_valuation(n, p):
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def require_rational(values, what: str) -> None:
    """Reject any value that is not an int, a Rational or a stdlib Fraction,
    the scalars the integer kernels read, or is a bool, with a DomainError
    naming what needs them."""
    fractions = sys.modules.get("fractions")
    kinds = (int, Rational) if fractions is None else (int, Rational, fractions.Fraction)
    if not all(isinstance(v, kinds) and not isinstance(v, bool) for v in values):
        raise DomainError(f"{what} needs rational scalars")


def clear_denominators(values):
    """(d, ints): d is the least common multiple of the denominators of the
    rational values (1 for none) and ints lists d*v for each value v."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


# The packed-integer kernel, Kronecker substitution (von zur Gathen and
# Gerhard, Modern Computer Algebra, section 8.4): signed ints become the
# base-2^(8 width) digits of one int, so a polynomial product or power, or a
# sum of vectors, is one big-integer operation, exact while every digit stays
# below 2^(8 width - 1) in absolute value, a bound each caller proves where it
# calls.  Digits pass through bytes with a bias of 2^(8 width - 1), in time
# linear in the size (shifting them out one by one is quadratic).

def digit_width(bound: int) -> int:
    """Bytes per digit for signed values of absolute value at most bound."""
    return bound.bit_length() // 8 + 1


def _bias(width, count):
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def pack(values, width: int) -> int:
    """sum values[k] * 2^(8 width k), each |value| below 2^(8 width - 1)."""
    half = 1 << (8 * width - 1)
    raw = b"".join([(v + half).to_bytes(width, "little") for v in values])
    return int.from_bytes(raw, "little") - _bias(width, len(values))


def unpack(packed: int, width: int, count: int) -> list:
    """The count signed digits of packed, lowest first; pack's inverse."""
    half = 1 << (8 * width - 1)
    raw = (packed + _bias(width, count)).to_bytes(width * count, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, len(raw), width)]


def packed_digit(packed: int, width: int, index: int) -> int:
    """Signed digit index of packed, read alone: the digits below it sum to
    less than half of 2^(8 width index), so packed rounded to that power is
    the digits from index up."""
    bits = 8 * width
    if index:
        packed = ((packed >> (bits * index - 1) & ((2 << bits) - 1)) + 1) >> 1
    half = 1 << (bits - 1)
    return ((packed + half) & ((half << 1) - 1)) - half


def scalar_inverse(c):
    """Multiplicative inverse of a rational scalar; an int stays an int
    when it is a unit."""
    if isinstance(c, int):
        if c in (1, -1):
            return c
        if c == 0:
            raise ZeroDivisionError("inverse of zero")
        return Rational(1, c)
    return 1 / c


def power(x, exponent: int, one):
    """x**exponent by square-and-multiply through `*`; one is the unit."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * x
        exponent >>= 1
        if exponent:
            x = x * x
    return result
