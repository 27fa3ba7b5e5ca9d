"""Idempotents of Q[t]/(f) for split moduli f.

Elements of the quotient are plain polynomials of degree below deg f.  The
modulus is always the integer form of f = prod (t - root)^mult read from
root data (`upoly.split_integer_form`), so it splits exactly by construction.

The idempotent of a root is the cofactor times its inverse modulo the
root's factor, a power series inverse, so no Euclidean algorithm runs.  The
whole construction runs on integers (`integer_idempotent`): exact divisions
by b t - a, Taylor coefficients at the integer a, the series inverse scaled
by powers of its constant term, one integer product, and a Rational only for
each output coefficient.  `selftest.idempotent_by_field_arithmetic` takes
the same steps in Q and is the integer kernel's test reference.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .scalars import Rational
from .upoly import Poly, RootData, int_poly_mul, int_times_linear, split_integer_form


def _divide_by_root(coeffs, lam):
    """Synthetic division of a coefficient list by t - lam: (quotient, remainder)."""
    quotient = []
    acc = 0
    for c in reversed(coeffs):
        acc = acc * lam + c
        quotient.append(acc)
    remainder = quotient.pop() if quotient else 0
    quotient.reverse()
    return quotient, remainder


def _divide_exactly(coeffs, a: int, b: int):
    """The integer coefficient list divided by b*t - a, which must divide it."""
    quotient = [0] * (len(coeffs) - 1)
    carry = 0
    for k in range(len(coeffs) - 1, 0, -1):
        carry, rem = divmod(coeffs[k] + a * carry, b)
        if rem:
            raise AssertionError("modulus is divisible by each root factor")
        quotient[k - 1] = carry
    if coeffs[0] + a * carry:
        raise AssertionError("modulus is divisible by each root factor")
    return quotient


def integer_idempotent(modulus, lam, mult: int):
    """(coeffs, num, den): the root idempotent of lam, of multiplicity mult,
    for the integer coefficient list modulus (any integer multiple of the
    monic split modulus) is coeffs * num / den, coeffs an integer list of
    length below that of modulus.

    With lam = a/b in lowest terms, C = modulus / (b t - a)^mult is an
    integer polynomial of degree n, b^n C(t/b) = T(b t - a) has integer
    Taylor coefficients T_k at a, and the inverse of C modulo (t - lam)^mult
    is b^n / g0^mult * W(b t - a) with g0 = T_0 and integers W_k =
    -(sum_{j>=1} T_j W_{k-j}) / g0, W_0 = g0^(mult-1), each division exact.
    The idempotent is C * W(b t - a) * b^n / g0^mult; the content of
    W(b t - a), most of the size of g0^mult, is divided out before the
    product, and num/den is returned in lowest terms."""
    a, b = lam.numerator, lam.denominator
    cofactor = modulus
    for _ in range(mult):
        cofactor = _divide_exactly(cofactor, a, b)
    n = len(cofactor) - 1
    work = [c * b ** (n - k) for k, c in enumerate(cofactor)]
    taylor = []
    for _ in range(mult):
        work, value = _divide_by_root(work, a)
        taylor.append(value)
    g0 = taylor[0]
    series = [g0 ** (mult - 1)]
    for k in range(1, mult):
        acc = 0
        for j in range(1, k + 1):
            acc += taylor[j] * series[k - j]
        series.append(-acc // g0)
    inverse = []
    for w in reversed(series):
        inverse = int_times_linear(inverse, a, b)
        inverse[0] += w
    content = gcd(*inverse)
    num, den = b**n * content, g0**mult
    common = gcd(num, den)
    product = int_poly_mul(cofactor, [w // content for w in inverse])
    return product, num // common, den // common


def crt_idempotents(roots: RootData):
    """The orthogonal idempotent for each root: 1 at that root's factor, 0 at
    the others.  Returned as a root -> Poly map in root order."""
    f = split_integer_form(roots)[1]
    forms = {lam: integer_idempotent(f, lam, mult) for lam, mult in roots}
    return {lam: Poly(tuple(Rational(c * num, den) for c in coeffs))
            for lam, (coeffs, num, den) in forms.items()}


def all_idempotents(roots: RootData):
    """All 2^(number of roots) idempotents, generated as subset sums of the
    root idempotents in increasing-size then lexicographic-by-root order."""
    base = list(crt_idempotents(roots).values())
    for size in range(len(base) + 1):
        for combo in combinations(base, size):
            yield sum(combo, Poly())

