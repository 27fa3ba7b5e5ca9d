"""Quotient rings k[t]/(f) for split moduli f, and their idempotents.

The modulus is always reconstructed from root data, so f = prod (t - root)^mult
holds exactly by construction.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DomainError
from .scalars import scalar_inverse
from .upoly import Poly, RootData, extended_gcd


class QuotientRing:
    __slots__ = ("roots", "modulus")

    def __init__(self, roots: RootData):
        self.roots = roots
        self.modulus = roots.poly()

    @property
    def dimension(self) -> int:
        return self.roots.degree

    def residue(self, poly: Poly) -> "Residue":
        return Residue(self, poly)

    def constant(self, scalar) -> "Residue":
        return Residue(self, Poly((scalar,)))

    @property
    def zero(self) -> "Residue":
        return Residue(self, Poly())

    @property
    def one(self) -> "Residue":
        return Residue(self, Poly((1,)))

    def __eq__(self, other):
        if not isinstance(other, QuotientRing):
            return NotImplemented
        return self.roots == other.roots

    def __repr__(self):
        return f"QuotientRing({self.roots!r})"


class Residue:
    """Class of a polynomial mod the ring modulus; rep kept reduced."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: QuotientRing, poly: Poly):
        self.ring = ring
        self.rep = poly % ring.modulus

    def _coerce(self, other):
        if isinstance(other, Residue):
            if other.ring != self.ring:
                raise DomainError("residues from different rings")
            return other
        if isinstance(other, Poly):
            return Residue(self.ring, other)
        return Residue(self.ring, Poly((other,)))

    def __add__(self, other):
        other = self._coerce(other)
        return Residue(self.ring, self.rep + other.rep)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Residue(self.ring, self.rep - other.rep)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Residue(self.ring, -self.rep)

    def __mul__(self, other):
        other = self._coerce(other)
        return Residue(self.ring, self.rep * other.rep)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise DomainError("residue powers must be >= 0")
        out = self.ring.one
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return out

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def __eq__(self, other):
        if isinstance(other, (Residue, Poly, int)):
            other = self._coerce(other)
            return self.ring == other.ring and self.rep == other.rep
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.roots, self.rep))

    def __repr__(self):
        return f"Residue({self.rep!r})"


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


def crt_idempotents(ring: QuotientRing):
    """The orthogonal idempotent for each root: 1 at that root's factor, 0 at
    the others.  Returned as a root -> Residue map in root order."""
    f = ring.modulus
    return {lam: ring.residue(root_idempotent(f, lam, mult)) for lam, mult in ring.roots}


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


def all_idempotents(ring: QuotientRing):
    """All 2^(number of roots) idempotents: subset sums of the root
    idempotents, in increasing-size then lexicographic-by-root order."""
    base = crt_idempotents(ring)
    roots = ring.roots.roots
    out = []
    for size in range(len(roots) + 1):
        for combo in combinations(range(len(roots)), size):
            total = ring.zero
            for i in combo:
                total = total + base[roots[i]]
            out.append(total)
    return out


def poly_at_residue(p: Poly, a: Residue) -> Residue:
    """Substitute a residue for the variable of p."""
    acc = a.ring.zero
    for c in reversed(p.coeffs):
        acc = acc * a + c
    return acc


def idempotent_from_element(ring: QuotientRing, element: Residue, annihilator: Poly,
                            min_power: int) -> Residue:
    """An idempotent e that is a power-combination of the element with
    exponents >= min_power and satisfies element**n * e = element**n for the
    construction's n.

    The annihilator must be a nonzero polynomial vanishing at the element.
    """
    if annihilator.is_zero:
        raise DomainError("annihilator polynomial must be nonzero")
    if min_power < 1:
        raise DomainError("min_power must be >= 1")
    if element.ring != ring:
        raise DomainError("element does not live in the given ring")
    if not poly_at_residue(annihilator, element).is_zero:
        raise DomainError("annihilator does not vanish at the element")
    shifted = annihilator * Poly.monomial(min_power)
    n = shifted.low_order
    tail = Poly(shifted.coeffs[n:])
    u, v, g = extended_gcd(Poly.monomial(n), tail)
    if g != Poly((1,)):
        raise AssertionError("t^n and the unit-at-0 tail are coprime")
    e_poly = Poly.monomial(n) * u
    e = poly_at_residue(e_poly, element)
    if e * e != e or (element**n) * e != element**n:
        raise AssertionError("idempotent construction identities failed")
    return e
