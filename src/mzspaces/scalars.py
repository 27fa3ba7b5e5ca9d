"""Exact scalars: rationals, p-adic valuations, primality.

The scalar field is Q: a scalar is an int or a stdlib Fraction (always
reduced, denominator > 0, zero is 0/1).  The p-adic valuation of 0 is the
distinguished sentinel PADIC_INF, never an integer.

fractions (with the decimal, numbers, re and enum it loads) is imported in
the three functions that use it, so that a job that never meets a Fraction
never loads it: imagep needs only is_prime, and gvc-probe on integer
coefficients, which cli.parse_rational reads as ints, none of them.
"""

from __future__ import annotations

import math

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
    from fractions import Fraction

    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"valuation base {p!r} is not prime")
    require_rational((value,), "padic_valuation")
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


def require_rational(values, what: str) -> None:
    """Reject any value that is not an int or a Fraction, the scalars the
    integer kernels read, or is a bool, with a DomainError naming what needs them."""
    from fractions import Fraction

    if not all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values):
        raise DomainError(f"{what} needs rational scalars")


def clear_denominators(values):
    """(d, ints): d is the least common multiple of the denominators of the
    rational values (1 for none) and ints lists d*v for each value v."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def scalar_inverse(c):
    """Multiplicative inverse of a rational scalar; an int stays an int
    when it is a unit."""
    if isinstance(c, int):
        if c in (1, -1):
            return c
        if c == 0:
            raise ZeroDivisionError("inverse of zero")
        from fractions import Fraction
        return Fraction(1, c)
    return 1 / c
