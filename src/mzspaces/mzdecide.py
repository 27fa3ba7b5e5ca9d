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

The multiplier is read off the closed form: L(t^n e_lam) = P_lam(n) lam^n,
or n! [P_0]_n at the root 0, for every n, since the operator at mu reads
only the jet of order below mult(mu), where e_lam is 1 if mu = lam and 0
otherwise.  So L(t^n e_S) is the closed form of L with every operator
outside S dropped, and the multiplier is t^j for the first j < deg f at which
one of those restricted moment tables is nonzero.

The independent oracle re-decides from the idempotents and the moments, not
from the constant-term criterion.  Every idempotent of the quotient ring is
a sum e_S of root idempotents e_i, and L is linear, so L(t^j e_S) is the sum
over S of L(t^j e_i).  The oracle tabulates each functional's moments
L(t^n), n < 2 deg f - 1, as integers, and builds each root idempotent on
integers from binomial series (`quotient.integer_idempotent`); then
L(t^j g) = sum_n g_n M[n + j] is one integer dot product and no shift is
reduced mod f.  It computes L_k(e_i) once per root and functional, packs
each root's values into one integer (`scalars.pack`), and walks all 2^r
subsets in Gray-code order, one big-integer addition per subset; only a
subset whose sum vanishes (an idempotent in the kernel) gets the full check
that all its shifts t^j e_S, j < deg f, stay in the kernel.  Only the root
idempotents are kept on the spec and shared by `decide --oracle`; the moment
tables are the oracle's own.  The walk stays exponential in r, so the oracle
has the subset search's root cap, DEFAULT_MAX_SUBSET_ROOTS (about 0.2-0.4 s
at r = 20 with 3 functionals on a 2-vCPU host).
Its test reference, `selftest.oracle_by_enumeration`, enumerates every
idempotent and reduces every shift mod f.

`normalize` rejects dependent functionals by row-reducing their operator
coefficient vectors.  In characteristic zero the moment matrix is that
coefficient matrix times an invertible confluent Vandermonde matrix, so the
two are row-equivalent and give the same relation.  `RootData` and
`FunctionalNF` check every scalar where they are built, so nothing here does.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .errors import DependentFunctionalsError, DomainError
from .functionals import FunctionalNF, integer_moments, largest_ideal_exponents
from .linalg import left_dependency
from .quotient import integer_idempotent
from .scalars import Rational, digit_width, pack
from .upoly import Poly, RootData, split_integer_form

DEFAULT_MAX_SUBSET_ROOTS = 20


class SubspaceSpec:
    """Functionals sharing one root data; the subspace is their joint kernel."""

    __slots__ = ("functionals", "roots", "normalized", "_idempotents")

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
        self._idempotents = None

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


def normalize(spec: SubspaceSpec) -> SubspaceSpec:
    """Shrink multiplicities to the largest-ideal exponents, drop unused
    roots, and reject dependent or zero functionals.  When nothing shrinks,
    the spec's own root data and functionals are kept."""
    for fn in spec.functionals:
        if fn.is_zero:
            raise DomainError("zero functional in spec")
    exponents = largest_ideal_exponents(spec.functionals)
    kept = [(lam, e) for lam, e in exponents.items() if e > 0]
    if not kept:
        raise DomainError("no root carries an operator: kernel has no defining ideal")
    if kept == list(spec.roots):
        new_roots, new_fns = spec.roots, spec.functionals
    else:
        new_roots = RootData(kept)
        new_fns = tuple(FunctionalNF(new_roots, fn.zero_part, fn.parts)
                        for fn in spec.functionals)
    relation = left_dependency(_coefficient_rows(new_fns, new_roots))
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


def _idempotent_vectors(spec: SubspaceSpec, subset):
    """(den, vectors): the idempotents of the roots in subset as integer
    coefficient lists of length deg f over one common denominator, so that
    any sum of them is the subset sum's numerator.  The integer modulus and
    each root's idempotent (`quotient.integer_idempotent`) are built on first
    use and kept on the spec, so `decide --oracle` builds each once."""
    if spec._idempotents is None:
        spec._idempotents = (split_integer_form(spec.roots)[1], {})
    modulus, built = spec._idempotents
    forms = []
    for lam in spec.roots.roots:
        if lam in subset:
            if lam not in built:
                built[lam] = integer_idempotent(modulus, spec.roots, lam)
            forms.append(built[lam])
    den = lcm(*(d for _, _, d in forms))
    weights = [num * (den // d) for _, num, d in forms]
    return den, [[c * w for c in coeffs] for (coeffs, _, _), w in zip(forms, weights)]


def decide_mz(spec: SubspaceSpec) -> MZVerdict:
    """Subset-sum criterion over the roots; emits a checkable witness pair
    (idempotent in the kernel, multiplier escaping it) when the answer is no.
    The multiplier t^j is read off the functionals restricted to the subset."""
    _require_normalized(spec)
    roots = spec.roots.roots
    if len(roots) > DEFAULT_MAX_SUBSET_ROOTS:
        raise DomainError(
            f"{len(roots)} roots exceed the subset enumeration cap {DEFAULT_MAX_SUBSET_ROOTS}"
        )
    columns = [tuple(fn.operator_poly(lam).coefficient(0) for fn in spec.functionals)
               for lam in roots]
    subset = smallest_zero_sum_subset(columns)
    if subset is None:
        return MZVerdict(True)
    subset_roots = tuple(roots[i] for i in subset)
    degree = spec.roots.degree
    tables = [integer_moments(FunctionalNF(
        spec.roots, fn.zero_part if 0 in subset_roots else Poly(),
        {lam: op for lam, op in fn.parts.items() if lam in subset_roots}), degree)[1]
        for fn in spec.functionals]
    j = next((n for n in range(degree) if any(table[n] for table in tables)), None)
    if j is None:
        raise AssertionError(
            "normalized spec must admit a multiplier for a kernel idempotent"
        )
    den, vectors = _idempotent_vectors(spec, subset_roots)
    witness = Poly(tuple(Rational(sum(column), den) for column in zip(*vectors)))
    return MZVerdict(False, subset_roots, witness, Poly.monomial(j))


def oracle_decide_mz(spec: SubspaceSpec) -> bool:
    """Independent re-decision by linearity: every idempotent of the
    quotient ring is a sum of root idempotents e_i, so L(t^j e_S) is the sum
    over S of L(t^j e_i).  The values L_k(e_i) are computed once per root
    and functional and packed into one integer per root (`scalars.pack`),
    at a width that holds the sum of |L_k(e_i)| over all roots, so a packed
    subset sum is 0 exactly when its values are; a Gray-code walk over the
    subsets then costs one addition per subset.  A subset whose
    sum vanishes is an idempotent in the kernel, and it must keep all its
    shifts t^j e_S, j < deg f, in the kernel."""
    _require_normalized(spec)
    if len(spec.roots) > DEFAULT_MAX_SUBSET_ROOTS:
        raise DomainError(
            f"{len(spec.roots)} roots exceed the oracle enumeration cap "
            f"{DEFAULT_MAX_SUBSET_ROOTS}"
        )
    degree = spec.roots.degree
    # L(t^j g) = sum_n g_n M[n + j] for deg g < deg f and j < deg f, so no
    # shift is reduced mod f; a table's own denominator is dropped, since
    # only zero tests read it.
    tables = [integer_moments(fn, 2 * degree - 1)[1] for fn in spec.functionals]

    def values(g, shift):
        return [sum(c * m for c, m in zip(g, table[shift:])) for table in tables]

    _, vectors = _idempotent_vectors(spec, spec.roots.roots)
    rows = [values(e, 0) for e in vectors]
    width = digit_width(max(sum(map(abs, column)) for column in zip(*rows)))
    packed = [pack(row, width) for row in rows]
    total = 0
    chosen = 0
    for step in range(1, 1 << len(vectors)):
        bit = step & -step
        k = bit.bit_length() - 1
        if chosen & bit:
            total -= packed[k]
        else:
            total += packed[k]
        chosen ^= bit
        if total == 0:
            g = [sum(column) for column in
                 zip(*(e for i, e in enumerate(vectors) if chosen >> i & 1))]
            if any(any(values(g, j)) for j in range(degree)):
                return False
    return True
