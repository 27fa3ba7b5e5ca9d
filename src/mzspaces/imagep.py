"""Membership in the joint image of the twisted derivations d/dx_i - zeta_i
over F_p[zeta_1..zeta_n][x_1..x_n], decided exactly with reconstructible
certificates.

The decision walks the top x-degree layer of the working polynomial: a term
whose coefficient has a nonzero constant term in the zeta variables is an
obstruction (no image element has one, by the top-degree coefficient lemma);
otherwise each top term is divisible by some zeta_i and can be pushed one
x-degree down through the identity zeta_i*u = d_i(u) - (d_i - zeta_i)(u).
Termination is forced because the top x-degree strictly drops.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError
from .scalars import is_prime
from .sparse import accumulate, add_tuples, collect, mul, power, shifted


def _add_pairs(a, b):
    return add_tuples(a[0], b[0]), add_tuples(a[1], b[1])


class ZXPoly:
    """Polynomial over F_p in paired variable groups: n coefficient variables
    (zeta) and n operator variables (x).  Terms map an exponent pair
    (zeta exponents, x exponents) to a residue in [1, p)."""

    __slots__ = ("nvars", "modulus", "terms")

    def __init__(self, nvars: int, modulus: int, terms=()):
        if nvars < 1:
            raise DomainError("need at least one variable pair")
        if not isinstance(modulus, int) or not is_prime(modulus):
            raise DomainError(f"modulus {modulus!r} is not prime")
        self.nvars = nvars
        self.modulus = modulus
        items = terms.items() if hasattr(terms, "items") else terms
        self.terms = collect(self._checked(items), modulus)

    def _checked(self, items):
        for (zexp, xexp), c in items:
            zexp, xexp = tuple(map(int, zexp)), tuple(map(int, xexp))
            if len(zexp) != self.nvars or len(xexp) != self.nvars:
                raise DomainError("exponent vectors must match the variable count")
            if any(e < 0 for e in zexp + xexp):
                raise DomainError("exponents must be >= 0")
            yield (zexp, xexp), c

    def _derived(self, terms: dict) -> "ZXPoly":
        """A ZXPoly with self's variable count and modulus on a term dict
        derived from valid ones: exponent pairs of the right length and
        residues in [1, p).  The public constructor checks each pair and
        runs is_prime on the modulus; a result of arithmetic on valid
        polynomials needs neither."""
        poly = object.__new__(ZXPoly)
        poly.nvars, poly.modulus, poly.terms = self.nvars, self.modulus, terms
        return poly

    @classmethod
    def zero(cls, nvars: int, modulus: int) -> "ZXPoly":
        return cls(nvars, modulus)

    @classmethod
    def one(cls, nvars: int, modulus: int) -> "ZXPoly":
        zeros = (0,) * nvars
        return cls(nvars, modulus, {(zeros, zeros): 1})

    @classmethod
    def monomial(cls, nvars: int, modulus: int, zeta_exps, x_exps, coeff=1) -> "ZXPoly":
        return cls(nvars, modulus, {(tuple(zeta_exps), tuple(x_exps)): coeff})

    def _check(self, other: "ZXPoly"):
        if self.nvars != other.nvars or self.modulus != other.modulus:
            raise DomainError("mixed variable counts or moduli")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def x_degree(self):
        """Top total degree in the x variables; None for the zero polynomial."""
        return max((sum(x) for _, x in self.terms), default=None)

    @property
    def total_degree(self):
        return max((sum(z) + sum(x) for z, x in self.terms), default=None)

    def __add__(self, other):
        self._check(other)
        return self._derived(collect([*self.terms.items(), *other.terms.items()], self.modulus))

    def __neg__(self):
        return self._derived({k: self.modulus - c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self._derived(mul(self.terms, other.terms, _add_pairs, self.modulus))

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise DomainError("powers must be >= 0")
        zeros = (0,) * self.nvars
        return power(self, exponent, self._derived({(zeros, zeros): 1}))

    def frobenius(self) -> "ZXPoly":
        """self^p: over F_p, (sum c m)^p = sum c^p m^p and c^p = c, so each
        exponent is multiplied by p and each coefficient stays."""
        p = self.modulus
        return self._derived({(tuple(e * p for e in z), tuple(e * p for e in x)): c
                              for (z, x), c in self.terms.items()})

    def partial_x(self, index: int) -> "ZXPoly":
        if not 0 <= index < self.nvars:
            raise DomainError("variable index out of range")
        p = self.modulus
        return self._derived({(zexp, shifted(xexp, index, -1)): r
                              for (zexp, xexp), c in self.terms.items()
                              if (r := c * xexp[index] % p)})

    def shift_zeta(self, index: int) -> "ZXPoly":
        if not 0 <= index < self.nvars:
            raise DomainError("variable index out of range")
        return self._derived({(shifted(zexp, index, 1), xexp): c
                              for (zexp, xexp), c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, ZXPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.modulus == other.modulus
                and self.terms == other.terms)

    def __repr__(self):
        return f"ZXPoly(n={self.nvars}, p={self.modulus}, {self.terms!r})"


def apply_d(index: int, q: ZXPoly) -> ZXPoly:
    """The twisted derivation for one variable pair: d/dx_index - zeta_index."""
    if not 0 <= index < q.nvars:
        raise DomainError("variable index out of range")
    return q.partial_x(index) - q.shift_zeta(index)


class ImDCertificate(namedtuple("ImDCertificate", "preimages")):
    """Preimages q_1..q_n with sum_i (d/dx_i - zeta_i)(q_i) equal to the input."""

    __slots__ = ()

    def reconstruct(self) -> ZXPoly:
        total = self.preimages[0]._derived({})
        for i, q in enumerate(self.preimages):
            total = total + apply_d(i, q)
        return total


class ObstructionReport(namedtuple(
        "ObstructionReport", "x_degree zeta_exps x_exps coefficient")):
    """A top-layer term with unit coefficient: proof of non-membership."""

    __slots__ = ()


def imd_decide(b: ZXPoly, var_order=None):
    """Total decision: an ImDCertificate when b lies in the joint image, an
    ObstructionReport otherwise.  The verdict does not depend on var_order
    (the tie-break for which variable absorbs a term); certificates may."""
    n, p = b.nvars, b.modulus
    if var_order is None:
        order = tuple(range(n))
    else:
        order = tuple(var_order)
        if sorted(order) != list(range(n)):
            raise DomainError("var_order must be a permutation of the variable indices")
    work = dict(b.terms)
    preimages = [dict() for _ in range(n)]
    while work:
        top_degree = max(sum(x) for _, x in work)
        layer = sorted(key for key in work if sum(key[1]) == top_degree)
        for zexp, xexp in layer:
            if all(e == 0 for e in zexp):
                return ObstructionReport(
                    x_degree=top_degree,
                    zeta_exps=zexp,
                    x_exps=xexp,
                    coefficient=work[(zexp, xexp)],
                )
        for key in layer:
            zexp, xexp = key
            c = work.pop(key)
            index = next(i for i in order if zexp[i] > 0)
            lowered_z = shifted(zexp, index, -1)
            accumulate(preimages[index], (lowered_z, xexp), -c, p)
            if xexp[index] > 0:
                lowered_x = shifted(xexp, index, -1)
                accumulate(work, (lowered_z, lowered_x), c * xexp[index], p)
    certificate = ImDCertificate(tuple(map(b._derived, preimages)))
    if certificate.reconstruct() != b:
        raise AssertionError("image certificate failed to reconstruct the input")
    return certificate


def j_ideal_witness(b: ZXPoly) -> ImDCertificate | None:
    """Direct certificate when every term carries some zeta exponent >= p,
    via the operator identity (d/dx_i - zeta_i)^p = -zeta_i^p.  Returns None
    (no claim) when some term has all zeta exponents below p."""
    n, p = b.nvars, b.modulus
    preimages = [b._derived({}) for _ in range(n)]
    for (zexp, xexp), c in sorted(b.terms.items()):
        index = next((i for i in range(n) if zexp[i] >= p), None)
        if index is None:
            return None
        piece = b._derived({(shifted(zexp, index, -p), xexp): p - c})
        for _ in range(p - 1):
            piece = apply_d(index, piece)
        preimages[index] = preimages[index] + piece
    certificate = ImDCertificate(preimages=tuple(preimages))
    if certificate.reconstruct() != b:
        raise AssertionError("high zeta-power certificate failed to reconstruct")
    return certificate


class TheoremReport(namedtuple(
        "TheoremReport",
        "hypothesis_holds obstruction hypothesis_certificate conclusion_holds "
        "boundary_certificates")):
    """If f^p is in the image, then g f^m is for every m >= p^2; checked at
    the boundary powers p^2 and p^2 + 1, with f^p and f^(p^2) formed by
    Frobenius.  The fields other than hypothesis_holds may be None."""

    __slots__ = ()


def charp_theorem_check(f: ZXPoly, g: ZXPoly) -> TheoremReport:
    f._check(g)
    f_p = f.frobenius()
    hypothesis = imd_decide(f_p)
    if isinstance(hypothesis, ObstructionReport):
        return TheoremReport(
            hypothesis_holds=False,
            obstruction=hypothesis,
            hypothesis_certificate=None,
            conclusion_holds=None,
            boundary_certificates=None,
        )
    f_p2 = f_p.frobenius()
    first = imd_decide(g * f_p2)
    second = imd_decide(g * f_p2 * f)
    ok = isinstance(first, ImDCertificate) and isinstance(second, ImDCertificate)
    return TheoremReport(
        hypothesis_holds=True,
        obstruction=None,
        hypothesis_certificate=hypothesis,
        conclusion_holds=ok,
        boundary_certificates=(first, second) if ok else None,
    )
