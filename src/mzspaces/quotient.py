"""Idempotents of k[t]/(f) for split moduli f.

Elements of the quotient are plain polynomials of degree below deg f.  The
modulus is always reconstructed from root data, so f = prod (t - root)^mult
holds exactly by construction.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DomainError
from .scalars import scalar_inverse
from .upoly import Poly, RootData, extended_gcd


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


def root_idempotent(modulus: Poly, lam, mult: int) -> Poly:
    """The idempotent of k[t]/(modulus) that is 1 modulo (t - lam)^mult and 0
    modulo the cofactor c = modulus / (t - lam)^mult; degree below the modulus.

    It is c times the inverse of c modulo (t - lam)^mult.  That inverse is the
    power series inverse, to order mult, of the Taylor expansion of c at lam,
    so no Euclidean algorithm runs: mult synthetic divisions give c, mult more
    its Taylor coefficients, and the rest costs O(mult^2) plus one product."""
    cofactor = list(modulus.coeffs)
    for _ in range(mult):
        cofactor, rem = _divide_by_root(cofactor, lam)
        if rem != 0:
            raise AssertionError("modulus is divisible by each root factor")
    taylor = []
    work = cofactor
    for _ in range(mult):
        work, value = _divide_by_root(work, lam)
        taylor.append(value)
    inv_lead = scalar_inverse(taylor[0])
    series = [inv_lead]
    for k in range(1, mult):
        acc = 0
        for j in range(1, k + 1):
            acc = acc + taylor[j] * series[k - j]
        series.append(-acc * inv_lead)
    shift = Poly((-lam, 1))
    inverse = Poly()
    for b in reversed(series):
        inverse = inverse * shift + Poly((b,))
    return inverse * Poly(cofactor)


def crt_idempotents(roots: RootData):
    """The orthogonal idempotent for each root: 1 at that root's factor, 0 at
    the others.  Returned as a root -> Poly map in root order."""
    f = roots.poly()
    return {lam: root_idempotent(f, lam, mult) for lam, mult in roots}


def subset_idempotent(roots: RootData, subset) -> Poly:
    """The idempotent that is 1 at the roots in subset and 0 at the others:
    the sum of their root idempotents, or 1 minus the sum over the other
    roots when the subset holds more than half of them."""
    f = roots.poly()
    chosen = set(subset)
    complement = len(chosen) * 2 > len(roots)
    total = Poly((1,)) if complement else Poly()
    for lam, mult in roots:
        if (lam in chosen) != complement:
            e = root_idempotent(f, lam, mult)
            total = total - e if complement else total + e
    return total


def all_idempotents(roots: RootData):
    """All 2^(number of roots) idempotents, generated as subset sums of the
    root idempotents in increasing-size then lexicographic-by-root order."""
    base = list(crt_idempotents(roots).values())
    for size in range(len(base) + 1):
        for combo in combinations(base, size):
            yield sum(combo, Poly())


def _at(p: Poly, a: Poly, f: Poly) -> Poly:
    """p(a) mod f, by Horner's rule."""
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = (acc * a + Poly((c,))) % f
    return acc


def idempotent_from_element(roots: RootData, element: Poly, annihilator: Poly,
                            min_power: int) -> Poly:
    """An idempotent e of k[t]/(f) that is a power-combination of the element
    with exponents >= min_power and satisfies element**n * e = element**n
    mod f for the construction's n.

    The annihilator must be a nonzero polynomial vanishing at the element.
    """
    if annihilator.is_zero:
        raise DomainError("annihilator polynomial must be nonzero")
    if min_power < 1:
        raise DomainError("min_power must be >= 1")
    f = roots.poly()
    if not _at(annihilator, element, f).is_zero:
        raise DomainError("annihilator does not vanish at the element")
    shifted = annihilator * Poly.monomial(min_power)
    n = shifted.low_order
    tail = Poly(shifted.coeffs[n:])
    u, _, g = extended_gcd(Poly.monomial(n), tail)
    if g != Poly((1,)):
        raise AssertionError("t^n and the unit-at-0 tail are coprime")
    e = _at(Poly.monomial(n) * u, element, f)
    power = _at(Poly.monomial(n), element, f)
    if (e * e) % f != e or (power * e) % f != power:
        raise AssertionError("idempotent construction identities failed")
    return e
