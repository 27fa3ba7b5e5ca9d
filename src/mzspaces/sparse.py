"""Sparse polynomials as term dicts, key -> nonzero coefficient: the kernel
(`collect`, `mul`) on bare dicts, and `SparsePoly`, the one core of
LaurentPoly (int keys), probes.MultiPolyQ (exponent tuples) and imagep.ZXPoly
(pairs of them, coefficients mod p), raised to powers by `scalars.power`.  A
type adds to the core's ring operations a constructor that checks exponents
(no int() coercion) and coefficients once, in `_set_terms`; results of
arithmetic are built unchecked by `_derived`."""

from __future__ import annotations

from operator import add

from .errors import DomainError
from .scalars import power, require_rational


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


def is_int(value) -> bool:
    """Whether value is an int and not a bool: an exponent or a residue."""
    return isinstance(value, int) and not isinstance(value, bool)


def exponent_tuple(exps, nvars: int) -> tuple:
    """exps if it is a tuple of nvars ints >= 0; else a DomainError."""
    if not isinstance(exps, tuple) or not all(is_int(e) and e >= 0 for e in exps):
        raise DomainError(f"an exponent vector must be a tuple of ints >= 0, got {exps!r}")
    if len(exps) != nvars:
        raise DomainError("exponent vectors must match the variable count")
    return exps


def term_pairs(terms) -> list:
    """The (key, coefficient) pairs of a dict, or of a list in which keys repeat."""
    return list(terms.items() if hasattr(terms, "items") else terms)


class SparsePoly:
    """Terms and the ring operations.  A type names in `_ring` the slots two
    operands must share and in `_ring_error` the message a mismatch raises, in
    `_add_keys` the key of a product of monomials, and in `modulus` the prime
    its coefficients are reduced by (None over Q)."""

    __slots__ = ("terms",)
    _ring = ()
    _add_keys = staticmethod(add)
    modulus = None

    def _set_terms(self, pairs: list, what: str) -> None:
        """Set terms from (checked key, coefficient) pairs: each coefficient
        rational over Q, an int over F_p; like terms summed, keys sorted."""
        if self.modulus is None:
            require_rational((c for _, c in pairs), what)
        elif not all(is_int(c) for _, c in pairs):
            raise DomainError(f"{what} needs int coefficients")
        data = collect(pairs, self.modulus)
        self.terms = {key: data[key] for key in sorted(data)}

    def _derived(self, terms: dict):
        """A polynomial in self's ring on terms derived from valid ones (keys of
        its shape, residues in [1, p)), so built without the checks."""
        poly = object.__new__(type(self))
        for name in self._ring:
            setattr(poly, name, getattr(self, name))
        poly.terms = terms
        return poly

    def _check(self, other) -> None:
        """Raise the ring's DomainError unless other lies in self's ring."""
        for name in self._ring:
            if getattr(self, name) != getattr(other, name):
                raise DomainError(self._ring_error)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        return self._derived(collect([*self.terms.items(), *other.terms.items()], self.modulus))

    def __neg__(self):
        return self._derived(collect(((key, -c) for key, c in self.terms.items()), self.modulus))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self._derived(mul(self.terms, other.terms, self._add_keys, self.modulus))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (all(getattr(self, name) == getattr(other, name) for name in self._ring)
                and self.terms == other.terms)


class LaurentPoly(SparsePoly):
    """Finite support map int exponent (any sign) -> rational coefficient."""

    __slots__ = ()

    def __init__(self, terms=()):
        pairs = term_pairs(terms)
        if not all(is_int(exp) for exp, _ in pairs):
            raise DomainError("Laurent exponents must be ints")
        self._set_terms(pairs, "a Laurent polynomial")

    @property
    def exponents(self):
        return tuple(self.terms)

    def coefficient(self, exp):
        return self.terms.get(exp, 0)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise DomainError("Laurent powers here must be >= 0")
        return power(self, exponent, self._derived({0: 1}))

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        inner = ", ".join(f"{e}: {c}" for e, c in self.terms.items())
        return f"LaurentPoly({{{inner}}})"
