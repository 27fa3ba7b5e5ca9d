"""Decide whether the joint kernel of functionals in normal form is a
Mathieu-Zhao subspace of k[t], with checkable witnesses on rejection.

The decision criterion: the kernel is Mathieu-Zhao exactly when every
nonempty subset of the roots has some functional whose operator constant
terms do not sum to zero over the subset.  `decide_mz` reads the constant
terms once, as one column per root with one entry per functional, and looks
for a nonempty set of columns summing to the zero vector by meet in the
middle (Horowitz-Sahni): it tabulates the subset sums of each half of the
columns and matches every left sum against the negated right sums, so r
roots and d functionals cost O(d * 2^(r/2)) instead of O(d * 2^r).  Of all
balanced subsets the witness is the smallest, and among those the
lexicographically first in root order.  A balanced subset yields an
idempotent g in the kernel together with a multiplier b whose product b*g
escapes it, which certifies that the kernel is not Mathieu-Zhao.

The independent oracle re-decides by enumerating every idempotent of the
quotient ring and testing ideal containment directly through `evaluate`.
It stays exponential in r, so it has its own, lower root cap.

`normalize` rejects dependent functionals by row-reducing their operator
coefficient vectors.  In characteristic zero the moment matrix is that
coefficient matrix times an invertible confluent Vandermonde matrix, so the
two are row-equivalent and give the same relation; over a prime field the
factorisation can be singular and the moment matrix is used instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import DependentFunctionalsError, DomainError
from .functionals import (
    FunctionalNF,
    dependency_relation,
    evaluate,
    largest_ideal_exponents,
)
from .linalg import left_dependency
from .quotient import QuotientRing, crt_idempotents
from .scalars import PrimeFieldScalar
from .upoly import Poly, RootData

DEFAULT_MAX_SUBSET_ROOTS = 20
DEFAULT_MAX_ORACLE_ROOTS = 12


class SubspaceSpec:
    """Functionals sharing one root data; the subspace is their joint kernel."""

    __slots__ = ("functionals", "roots", "normalized")

    def __init__(self, functionals, normalized: bool = False):
        functionals = tuple(functionals)
        if not functionals:
            raise DomainError("at least one functional required")
        roots = functionals[0].roots
        if any(fn.roots != roots for fn in functionals):
            raise DomainError("functionals must share one root data")
        self.functionals = functionals
        self.roots = roots
        self.normalized = normalized

    @property
    def dimension(self) -> int:
        return len(self.functionals)

    def __eq__(self, other):
        if not isinstance(other, SubspaceSpec):
            return NotImplemented
        return (self.functionals == other.functionals
                and self.roots == other.roots
                and self.normalized == other.normalized)

    def __repr__(self):
        return (f"SubspaceSpec(d={len(self.functionals)}, roots={self.roots!r}, "
                f"normalized={self.normalized})")


@dataclass(frozen=True)
class MZVerdict:
    is_mz: bool
    witness_subset: Optional[tuple] = None
    witness_idempotent: Optional[Poly] = None
    witness_multiplier: Optional[Poly] = None


@dataclass(frozen=True)
class RadicalProbeReport:
    """Bounded evidence only: a violation disproves membership in the radical;
    a clean run claims nothing beyond the checked powers."""

    checked: int
    first_violation: Optional[int]

    @property
    def no_violation(self) -> bool:
        return self.first_violation is None


def normalize(spec: SubspaceSpec) -> SubspaceSpec:
    """Shrink multiplicities to the largest-ideal exponents, drop unused
    roots, and reject dependent or zero functionals."""
    for fn in spec.functionals:
        if fn.is_zero:
            raise DomainError("zero functional in spec")
    exponents = largest_ideal_exponents(spec.functionals)
    kept = [(lam, e) for lam, e in exponents.items() if e > 0]
    if not kept:
        raise DomainError("no root carries an operator: kernel has no defining ideal")
    new_roots = RootData(kept)
    new_fns = tuple(
        FunctionalNF(new_roots, fn.zero_part, fn.parts) for fn in spec.functionals
    )
    if _is_char_zero(spec):
        relation = left_dependency(_coefficient_rows(new_fns, new_roots))
    else:
        relation = dependency_relation(new_fns, new_roots.degree)
    if relation is not None:
        raise DependentFunctionalsError(relation)
    return SubspaceSpec(new_fns, normalized=True)


def _require_normalized(spec: SubspaceSpec):
    if not spec.normalized:
        raise DomainError("spec must be normalized first")


def _coefficient_rows(functionals, roots: RootData):
    """One row per functional: its operator coefficients root by root, in
    root order, each operator padded to its root's multiplicity."""
    return [[fn.operator_poly(lam).coefficient(k) for lam, mult in roots for k in range(mult)]
            for fn in functionals]


def _is_char_zero(spec: SubspaceSpec) -> bool:
    scalars = list(spec.roots.roots)
    for fn in spec.functionals:
        for op in [fn.zero_part, *fn.parts.values()]:
            scalars.extend(op.coeffs)
    return not any(isinstance(c, PrimeFieldScalar) for c in scalars)


def _require_char_zero(spec: SubspaceSpec):
    if not _is_char_zero(spec):
        raise DomainError("decision procedure requires characteristic zero")


def _subset_sums(columns, offset: int, dim: int):
    """(index tuple, sum vector) for every subset of the columns, the empty
    one included; indices are shifted by offset, each tuple in increasing order."""
    out = [((), (0,) * dim)]
    for i, column in enumerate(columns, offset):
        out += [(idx + (i,), tuple(a + b for a, b in zip(total, column)))
                for idx, total in out]
    return out


def smallest_zero_sum_subset(columns):
    """Indices of a nonempty set of columns (equal-length vectors) summing to
    the zero vector: the smallest such set, the lexicographically first of
    its size; None when there is none.  Meet in the middle over the two
    halves of the columns."""
    if not columns:
        return None
    dim = len(columns[0])
    half = len(columns) // 2
    right = {}
    for idx, total in _subset_sums(columns[half:], half, dim):
        firsts = right.setdefault(total, {})
        size = len(idx)
        if size not in firsts or idx < firsts[size]:
            firsts[size] = idx
    best = None
    for idx, total in _subset_sums(columns[:half], 0, dim):
        for tail in right.get(tuple(-v for v in total), {}).values():
            found = idx + tail
            if found and (best is None or (len(found), found) < (len(best), best)):
                best = found
    return best


def _apply_all(spec: SubspaceSpec, g: Poly):
    return [evaluate(fn, g) for fn in spec.functionals]


def decide_mz(spec: SubspaceSpec, max_roots: int = DEFAULT_MAX_SUBSET_ROOTS) -> MZVerdict:
    """Subset-sum criterion over the roots; emits a checkable witness pair
    (idempotent in the kernel, multiplier escaping it) when the answer is no."""
    _require_normalized(spec)
    _require_char_zero(spec)
    roots = spec.roots.roots
    if len(roots) > max_roots:
        raise DomainError(
            f"{len(roots)} roots exceed the subset enumeration cap {max_roots}"
        )
    columns = [tuple(fn.operator_poly(lam).coefficient(0) for fn in spec.functionals)
               for lam in roots]
    subset = smallest_zero_sum_subset(columns)
    if subset is None:
        return MZVerdict(True)
    subset_roots = tuple(roots[i] for i in subset)
    ring = QuotientRing(spec.roots)
    base = crt_idempotents(ring)
    g = Poly()
    for lam in subset_roots:
        g = g + base[lam].rep
    modulus = ring.modulus
    for j in range(spec.roots.degree):
        b = Poly.monomial(j)
        values = _apply_all(spec, (b * g) % modulus)
        if any(v != 0 for v in values):
            return MZVerdict(False, subset_roots, g, b)
    raise AssertionError(
        "normalized spec must admit a multiplier for a kernel idempotent"
    )


def oracle_decide_mz(spec: SubspaceSpec, max_roots: int = DEFAULT_MAX_ORACLE_ROOTS) -> bool:
    """Independent re-decision: enumerate all idempotents of the quotient
    ring and check that each one inside the kernel keeps its whole principal
    ideal inside the kernel."""
    _require_normalized(spec)
    _require_char_zero(spec)
    roots = spec.roots.roots
    if len(roots) > max_roots:
        raise DomainError(
            f"{len(roots)} roots exceed the oracle enumeration cap {max_roots}"
        )
    ring = QuotientRing(spec.roots)
    base = crt_idempotents(ring)
    modulus = ring.modulus
    for size in range(len(roots) + 1):
        for combo in combinations(range(len(roots)), size):
            e = Poly()
            for i in combo:
                e = e + base[roots[i]].rep
            if any(v != 0 for v in _apply_all(spec, e)):
                continue
            for j in range(spec.roots.degree):
                shifted = (Poly.monomial(j) * e) % modulus
                if any(v != 0 for v in _apply_all(spec, shifted)):
                    return False
    return True


def strong_radical_membership(spec: SubspaceSpec, g: Poly) -> bool:
    """Membership in the strong radical: divisibility by the squarefree part
    of the modulus."""
    _require_normalized(spec)
    if g.is_zero:
        return True
    return (g % spec.roots.radical_poly()).is_zero


def radical_probe(spec: SubspaceSpec, g: Poly, max_power: int) -> RadicalProbeReport:
    """Check g, g^2, ..., g^max_power against every functional; report the
    first power that escapes the kernel, if any."""
    _require_normalized(spec)
    if max_power < 1:
        raise DomainError("max_power must be >= 1")
    modulus = spec.roots.poly()
    power = Poly((1,))
    for m in range(1, max_power + 1):
        power = (power * g) % modulus
        if any(v != 0 for v in _apply_all(spec, power)):
            return RadicalProbeReport(checked=max_power, first_violation=m)
    return RadicalProbeReport(checked=max_power, first_violation=None)
