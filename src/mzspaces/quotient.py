"""Idempotents of Q[t]/(f) for split moduli f, as polynomials of degree
below deg f.  The modulus is the integer form of f = prod (t - root)^mult
read from root data (`upoly.split_integer_form`), so it splits exactly.

The idempotent of a root is the cofactor times its inverse modulo the
root's factor, a product of binomial series with integer terms
(`integer_idempotent`); no series division or Euclidean algorithm runs.
`selftest.idempotent_by_field_arithmetic` inverts by series division in Q,
shares no code with the kernel and is its test reference.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm, prod

from .scalars import Rational
from .upoly import Poly, RootData, int_poly_mul, int_times_linear, split_integer_form


def _divide_exactly(coeffs, a: int, b: int):
    """The integer coefficient list divided by b*t - a, which must divide it."""
    quotient, carry = [], 0
    for c in reversed(coeffs):
        carry, rem = divmod(c + a * carry, b)
        if rem:
            raise AssertionError("modulus is divisible by each root factor")
        quotient.append(carry)
    if quotient.pop():
        raise AssertionError("modulus is divisible by each root factor")
    return quotient[::-1]


def integer_idempotent(modulus, roots: RootData, lam):
    """(coeffs, num, den): the idempotent of the root lam is coeffs * num /
    den, coeffs an integer list shorter than modulus, the integer form of
    the root data's modulus (`split_integer_form`).

    With lam = a/b in lowest terms, of multiplicity m, y = b t - a and
    e_j = b_j a - a_j b != 0 for each other root a_j/b_j, the cofactor
    C = modulus / y^m is b^-n prod_j (e_j + b_j y)^m_j, n = deg C, so 1/C =
    b^n / D prod_j (1 + (b_j / e_j) y)^-m_j with D = prod_j e_j^m_j.  With
    y = L z, L = lcm_j e_j / gcd(e_j, b_j), the ratio r_j = -b_j L / e_j is
    an integer and factor j is sum_k binom(m_j + k - 1, k) r_j^k z^k; each
    term is the last one times r_j (m_j + k - 1) / k, exactly, as the
    binomial is an integer.  The product of the series below z^m is
    sum_k S_k z^k, so the inverse of C modulo y^m is b^n / (D L^(m-1)) W(y),
    W(y) = sum_k S_k L^(m-1-k) y^k.  The content of W(b t - a) is divided
    out before the one product with C; num/den is in lowest terms.  A simple
    root forms no series: W = 1 and the inverse is the constant b^n / D."""
    a, b = lam.numerator, lam.denominator
    terms = [(mu.denominator * a - mu.numerator * b, mu.denominator, m) for mu, m in roots]
    mult = sum(m for e, _, m in terms if not e)
    others = [term for term in terms if term[0]]
    cofactor = modulus
    for _ in range(mult):
        cofactor = _divide_exactly(cofactor, a, b)
    series, scale = [1] + [0] * (mult - 1), 1
    if mult > 1:
        scale = lcm(*(e // gcd(e, b_j) for e, b_j, _ in others))
        for e, b_j, m in others:
            ratio, term = -b_j * scale // e, [1]
            for k in range(1, mult):
                term.append(term[-1] * ratio * (m + k - 1) // k)
            series = [sum(series[i] * term[k - i] for i in range(k + 1)) for k in range(mult)]
    inverse = []
    for k in range(mult - 1, -1, -1):
        inverse = int_times_linear(inverse, a, b)
        inverse[0] += series[k] * scale ** (mult - 1 - k)
    content = gcd(*inverse)
    num = b ** (len(cofactor) - 1) * content
    den = prod(e**m for e, _, m in others) * scale ** (mult - 1)
    common = gcd(num, den)
    product = int_poly_mul(cofactor, [w // content for w in inverse])
    return product, num // common, den // common


def crt_idempotents(roots: RootData):
    """The orthogonal idempotent for each root: 1 at that root's factor, 0 at
    the others.  Returned as a root -> Poly map in root order."""
    f = split_integer_form(roots)[1]
    forms = {lam: integer_idempotent(f, roots, lam) for lam in roots.roots}
    return {lam: Poly(tuple(Rational(c * num, den) for c in coeffs))
            for lam, (coeffs, num, den) in forms.items()}


def all_idempotents(roots: RootData):
    """All 2^(number of roots) idempotents, generated as subset sums of the
    root idempotents in increasing-size then lexicographic-by-root order."""
    base = list(crt_idempotents(roots).values())
    for size in range(len(base) + 1):
        for combo in combinations(base, size):
            yield sum(combo, Poly())

