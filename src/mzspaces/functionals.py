"""Normal form for linear functionals on k[t] that kill the ideal (f) of a
split polynomial f.

Every such functional is a combination of point evaluations composed with
operator polynomials: at the root 0 the operator variable acts as d/dt, at a
nonzero root it acts as t d/dt.  The operator polynomial attached to a root
must have degree below that root's multiplicity.

Since (t d/dt)^i t^n = n^i t^n and (d/dt)^i t^n vanishes at 0 unless i = n,
the moments have the closed form

    L(t^n) = sum over nonzero roots lam of P_lam(n) lam^n  +  n! [P_0]_n,

so `to_moments` costs O(count * deg f) scalar operations and `evaluate` is
the dot product of the coefficients with that table; no operator is ever
applied to a polynomial.  `from_moments` inverts it in O(deg f ^ 2): the
values are extended by the recurrence of f, projected onto each root by its
CRT idempotent (L(t^n e_lam) = P_lam(n) lam^n, or n! [P_0]_n at 0), and each
operator is read back by Newton interpolation at 0, 1, ..., mult - 1.  That
needs characteristic zero: over a prime field n! and the node differences
can vanish, and the moments need not determine the normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DomainError
from .linalg import left_dependency
from .quotient import root_idempotent
from .scalars import PrimeFieldScalar, format_rational, parse_rational
from .upoly import Poly, RootData, poly_from_json, poly_to_json


class FunctionalNF:
    """zero_part drives d/dt at the root 0; parts[root] drives t d/dt there."""

    __slots__ = ("roots", "zero_part", "parts")

    def __init__(self, roots: RootData, zero_part: Poly = Poly(), parts=None):
        self.roots = roots
        if not zero_part.is_zero:
            if roots.multiplicity(0) == 0:
                raise DomainError("operator at 0 given but 0 is not a root")
            if zero_part.degree >= roots.multiplicity(0):
                raise DomainError("operator degree at 0 must stay below the multiplicity")
        self.zero_part = zero_part
        cleaned = {}
        parts = dict(parts or {})
        for lam, mult in roots:
            if lam == 0:
                continue
            op = parts.pop(lam, Poly())
            if op.is_zero:
                continue
            if op.degree >= mult:
                raise DomainError(f"operator degree at root {lam} must stay below {mult}")
            cleaned[lam] = op
        if parts:
            raise DomainError(f"operator attached to non-root value(s): {list(parts)}")
        self.parts = cleaned

    @property
    def is_zero(self) -> bool:
        return self.zero_part.is_zero and not self.parts

    def operator_poly(self, lam) -> Poly:
        if lam == 0:
            return self.zero_part
        return self.parts.get(lam, Poly())

    def __eq__(self, other):
        if not isinstance(other, FunctionalNF):
            return NotImplemented
        return (self.roots == other.roots and self.zero_part == other.zero_part
                and self.parts == other.parts)

    def __repr__(self):
        return f"FunctionalNF(zero_part={self.zero_part!r}, parts={self.parts!r})"


class MomentSeq:
    """First deg(char_poly) values of n -> L(t^n); later values follow the
    linear recurrence read off the characteristic polynomial."""

    __slots__ = ("values", "char_poly")

    def __init__(self, values, char_poly: Poly):
        values = tuple(values)
        if char_poly.is_zero or char_poly.degree < 1:
            raise DomainError("characteristic polynomial must have degree >= 1")
        if len(values) != char_poly.degree:
            raise DomainError("moment count must equal the characteristic degree")
        self.values = values
        self.char_poly = char_poly

    def __eq__(self, other):
        if not isinstance(other, MomentSeq):
            return NotImplemented
        return self.values == other.values and self.char_poly == other.char_poly

    def __repr__(self):
        return f"MomentSeq({self.values!r})"


def _moments(functional: FunctionalNF, count: int):
    """[L(t^n) for n < count] by the closed form: a running power lam^n
    times P_lam(n) by Horner at each nonzero root, n! [P_0]_n at 0."""
    out = [0] * count
    factorial_n = 1
    for n, c in enumerate(functional.zero_part.coeffs[:count]):
        if n:
            factorial_n *= n
        out[n] = c * factorial_n
    for lam, op in functional.parts.items():
        power = 1
        for n in range(count):
            out[n] = out[n] + op(n) * power
            power = power * lam
    return out


def evaluate(functional: FunctionalNF, g: Poly):
    """Apply the functional to a polynomial of any degree; exact scalar result."""
    total = 0
    for c, m in zip(g.coeffs, _moments(functional, len(g.coeffs))):
        total = total + c * m
    return total


def to_moments(functional: FunctionalNF, count: int):
    """The first `count` values of n -> L(t^n)."""
    if count < 1:
        raise DomainError("moment count must be >= 1")
    return tuple(_moments(functional, count))


def from_moments(moments: MomentSeq, roots: RootData) -> FunctionalNF:
    """The unique functional in normal form whose moments extend the given
    values under the recurrence of the (fully split) characteristic polynomial."""
    if roots.poly() != moments.char_poly:
        raise DomainError("root data must split the characteristic polynomial exactly")
    if any(isinstance(c, PrimeFieldScalar) for c in (*roots.roots, *moments.values)):
        raise DomainError("moment inversion requires characteristic zero")
    f = moments.char_poly.coeffs
    n_total = len(f) - 1
    values = [Fraction(v) for v in moments.values]
    for k in range(n_total - 1):
        values.append(-sum(f[i] * values[k + i] for i in range(n_total)))
    zero_part = Poly()
    parts = {}
    for lam, mult in roots:
        e = root_idempotent(moments.char_poly, lam, mult).coeffs
        projected = [sum(c * values[n + k] for k, c in enumerate(e)) for n in range(mult)]
        if lam == 0:
            zero_part = Poly(tuple(v / factorial(n) for n, v in enumerate(projected)))
        else:
            inv = 1 / Fraction(lam)
            scale = 1
            for n in range(mult):
                projected[n] *= scale
                scale *= inv
            parts[lam] = _newton_interpolate(projected)
    return FunctionalNF(roots, zero_part, parts)


def _newton_interpolate(values) -> Poly:
    """The polynomial of degree below len(values) taking values[n] at n."""
    diffs = list(values)
    for k in range(1, len(diffs)):
        for j in range(len(diffs) - 1, k - 1, -1):
            diffs[j] = (diffs[j] - diffs[j - 1]) / k
    out = Poly()
    for k in range(len(diffs) - 1, -1, -1):
        out = out * Poly((-k, 1)) + Poly((diffs[k],))
    return out


def largest_ideal_exponents(functionals):
    """Per root: one plus the top operator degree used by any functional
    (zero when no functional touches the root).  The ideal generated by
    prod (t-root)^exponent is the largest ideal inside the joint kernel."""
    functionals = list(functionals)
    if not functionals:
        raise DomainError("at least one functional required")
    roots = functionals[0].roots
    if any(fn.roots != roots for fn in functionals):
        raise DomainError("functionals must share one root data")
    out = {}
    for lam, _ in roots:
        top = -1
        for fn in functionals:
            op = fn.operator_poly(lam)
            if not op.is_zero:
                top = max(top, op.degree)
        out[lam] = top + 1
    return out


def dependency_relation(functionals, count: int):
    """Coefficients of a vanishing combination of the functionals, or None:
    a left dependency of the moment rows L_i(t^j), j < count."""
    return left_dependency([list(to_moments(fn, count)) for fn in functionals])


def functional_to_json(fn: FunctionalNF):
    return {
        "P0": poly_to_json(fn.zero_part),
        "parts": {format_rational(lam): poly_to_json(op) for lam, op in fn.parts.items()},
    }


def functional_from_json(data, roots: RootData) -> FunctionalNF:
    if not isinstance(data, dict):
        raise DomainError("functional JSON must be an object with P0 and parts")
    zero_part = poly_from_json(data.get("P0", []))
    raw_parts = data.get("parts") or {}
    if not isinstance(raw_parts, dict):
        raise DomainError(
            "functional parts must be an object mapping roots to operator coefficients"
        )
    parts = {}
    for key, coeffs in raw_parts.items():
        parts[parse_rational(key)] = poly_from_json(coeffs)
    return FunctionalNF(roots, zero_part, parts)
