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
quotient ring and testing ideal containment: an idempotent e in the kernel
must keep every shift t^j e mod f, j < deg f, in the kernel.  Each
functional's first deg f moments are tabulated once per spec (the closed
form in `functionals`), so a value is one dot product, and each shift comes
from the previous one by one multiply-by-t-and-reduce step, O(deg f).  The
multiplier search of `decide_mz` walks the same shifts.  The oracle stays
exponential in r, so it has its own, lower root cap.  The witness
idempotent is built for the balanced subset alone (or as 1 minus its
complement's, when that is smaller).

`normalize` rejects dependent functionals by row-reducing their operator
coefficient vectors.  In characteristic zero the moment matrix is that
coefficient matrix times an invertible confluent Vandermonde matrix, so the
two are row-equivalent and give the same relation; over a prime field the
factorisation can be singular and the moment matrix is used instead.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DependentFunctionalsError, DomainError
from .functionals import (
    FunctionalNF,
    dependency_relation,
    largest_ideal_exponents,
    to_moments,
)
from .linalg import left_dependency
from .quotient import all_idempotents, subset_idempotent
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


class MZVerdict(namedtuple(
        "MZVerdict", "is_mz witness_subset witness_idempotent witness_multiplier",
        defaults=(None, None, None))):
    """The verdict; a negative one carries the witness subset (a tuple of
    roots), its idempotent and a multiplier that pushes it out of the kernel."""

    __slots__ = ()


class RadicalProbeReport(namedtuple("RadicalProbeReport", "checked first_violation")):
    """Bounded evidence only: a violation disproves membership in the radical;
    a clean run claims nothing beyond the checked powers.  first_violation is
    None or the least violating power."""

    __slots__ = ()

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


def _moment_tables(spec: SubspaceSpec):
    """Each functional's first deg f moments: enough to evaluate any
    polynomial reduced mod f."""
    return [to_moments(fn, spec.roots.degree) for fn in spec.functionals]


def _in_kernel(tables, g: Poly) -> bool:
    coeffs = g.coeffs
    return all(sum(c * m for c, m in zip(coeffs, table)) == 0 for table in tables)


def _times_t_mod(g: Poly, modulus: Poly) -> Poly:
    """t * g mod the monic modulus, for g already reduced."""
    coeffs = (0,) + g.coeffs
    if len(coeffs) < len(modulus.coeffs):
        return Poly(coeffs)
    top = coeffs[-1]
    return Poly(tuple(c - top * m for c, m in zip(coeffs[:-1], modulus.coeffs)))


def _first_escaping_shift(tables, g: Poly, modulus: Poly):
    """Smallest j < deg f with t^j * g mod f outside the kernel, or None;
    g already reduced mod f."""
    shifted = g
    for j in range(modulus.degree):
        if not _in_kernel(tables, shifted):
            return j
        shifted = _times_t_mod(shifted, modulus)
    return None


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
    g = subset_idempotent(spec.roots, subset_roots)
    j = _first_escaping_shift(_moment_tables(spec), g, spec.roots.poly())
    if j is None:
        raise AssertionError(
            "normalized spec must admit a multiplier for a kernel idempotent"
        )
    return MZVerdict(False, subset_roots, g, Poly.monomial(j))


def oracle_decide_mz(spec: SubspaceSpec, max_roots: int = DEFAULT_MAX_ORACLE_ROOTS) -> bool:
    """Independent re-decision: enumerate all idempotents of the quotient
    ring and check that each one inside the kernel keeps its whole principal
    ideal inside the kernel."""
    _require_normalized(spec)
    _require_char_zero(spec)
    if len(spec.roots) > max_roots:
        raise DomainError(
            f"{len(spec.roots)} roots exceed the oracle enumeration cap {max_roots}"
        )
    modulus = spec.roots.poly()
    tables = _moment_tables(spec)
    for e in all_idempotents(spec.roots):
        if _in_kernel(tables, e) and _first_escaping_shift(tables, e, modulus) is not None:
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
    tables = _moment_tables(spec)
    power = Poly((1,))
    for m in range(1, max_power + 1):
        power = (power * g) % modulus
        if not _in_kernel(tables, power):
            return RadicalProbeReport(checked=max_power, first_violation=m)
    return RadicalProbeReport(checked=max_power, first_violation=None)
