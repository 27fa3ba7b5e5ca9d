"""Sparse polynomials as term dicts, key -> nonzero coefficient: one kernel
for LaurentPoly (int keys), probes.MultiPolyQ and the gvc integer dicts
(exponent tuples) and imagep.ZXPoly (pairs of tuples, coefficients mod p)."""

from __future__ import annotations

from operator import add

from .errors import DomainError


def add_tuples(a: tuple, b: tuple) -> tuple:
    """The key of the product of the monomials with exponent tuples a and b."""
    return tuple(map(add, a, b))


def shifted(exps: tuple, index: int, by: int) -> tuple:
    """The exponent tuple exps with by added to its entry at index."""
    return exps[:index] + (exps[index] + by,) + exps[index + 1:]


def accumulate(store: dict, key, delta, modulus=None) -> None:
    """Add delta to the term key of store in place; drop it if it becomes 0."""
    value = store.get(key, 0) + delta
    if modulus is not None:
        value %= modulus
    if value:
        store[key] = value
    else:
        store.pop(key, None)


def collect(items, modulus=None) -> dict:
    """The term dict of (key, coefficient) pairs: like terms summed, zeros dropped."""
    out = {}
    get = out.get
    for key, c in items:
        out[key] = get(key, 0) + c
    if modulus is None:
        return {key: c for key, c in out.items() if c}
    return {key: r for key, c in out.items() if (r := c % modulus)}


def mul(f: dict, g: dict, add_keys, modulus=None) -> dict:
    """The product of two term dicts; add_keys(a, b) is the key of a * b."""
    return collect(((add_keys(k1, k2), c1 * c2) for k1, c1 in f.items() for k2, c2 in g.items()),
                   modulus)


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


class LaurentPoly:
    """Finite support map exponent -> coefficient; exponents may be negative."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        data = collect((int(exp), c) for exp, c in items)
        self.terms = {k: data[k] for k in sorted(data)}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def exponents(self):
        return tuple(self.terms)

    def coefficient(self, exp):
        return self.terms.get(exp, 0)

    def __add__(self, other):
        return LaurentPoly([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return LaurentPoly(mul(self.terms, other.terms, add))

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise DomainError("Laurent powers here must be >= 0")
        return power(self, exponent, LaurentPoly({0: 1}))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        inner = ", ".join(f"{e}: {c}" for e, c in self.terms.items())
        return f"LaurentPoly({{{inner}}})"
