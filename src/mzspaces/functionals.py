"""Normal form for linear functionals on Q[t] that kill the ideal (f) of a
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
operator is read back by Newton interpolation at 0, 1, ..., mult - 1, which
divides by n! and by the node differences, so it needs characteristic zero.

Both directions run on plain integers: every denominator is cleared once
(`scalars.clear_denominators`), the arithmetic is on Python ints, and a
Rational, with its one normalising gcd, is built only for each value
returned.  `integer_moments` puts the terms Q(n) a^n b^(N-n) of all roots
a/b over one common denominator; `from_moments` uses the integer form of f,
the root idempotents that `quotient` builds from binomial series with
integer terms, and integer forward differences.
`selftest.moments_by_field_arithmetic` evaluates the closed form in Q and
is the integer kernel's test reference.
"""

from __future__ import annotations

from math import factorial, gcd, lcm

from .errors import DomainError
from .linalg import left_dependency
from .quotient import integer_idempotent
from .scalars import Rational, clear_denominators, require_rational
from .upoly import Poly, RootData, int_times_linear, split_integer_form


class FunctionalNF:
    """zero_part drives d/dt at the root 0; parts[root] drives t d/dt there.
    Its coefficients are checked to be rational here, once and for all."""

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
        if 0 in parts and roots.multiplicity(0):
            raise DomainError("the operator at the root 0 goes in zero_part, not parts")
        if parts:
            raise DomainError("operator attached to non-root value(s): "
                              + ", ".join(map(str, parts)))
        require_rational([*zero_part.coeffs, *(c for op in cleaned.values() for c in op.coeffs)],
                         "a functional")
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


def integer_moments(functional: FunctionalNF, count: int):
    """(den, values): L(t^n) = values[n] / den for n < count, all integers.
    With P_lam = Q / d (Q integer) and lam = a/b, the term at a nonzero root
    is Q(n) a^n b^(N-n) over the root's denominator d b^N, N = count - 1;
    den is the least common multiple of those and of the denominator of P_0."""
    if count == 0:
        return 1, []
    top = count - 1
    zero_den, zero_ints = clear_denominators(functional.zero_part.coeffs)
    parts = []
    den = zero_den
    for lam, op in functional.parts.items():
        op_den, op_ints = clear_denominators(op.coeffs)
        parts.append((lam.numerator, lam.denominator, op_den, op_ints))
        den = lcm(den, op_den * lam.denominator**top)
    out = [0] * count
    factorial_n = 1
    weight = den // zero_den
    for n, c in enumerate(zero_ints[:count]):
        if n:
            factorial_n *= n
        out[n] = c * factorial_n * weight
    for a, b, op_den, op_ints in parts:
        b_powers = [den // (op_den * b**top)]
        for _ in range(top):
            b_powers.append(b_powers[-1] * b)
        power = 1
        for n in range(count):
            value = 0
            for c in reversed(op_ints):
                value = value * n + c
            out[n] += value * power * b_powers[top - n]
            power *= a
    return den, out


def _moments(functional: FunctionalNF, count: int):
    """[L(t^n) for n < count] by the closed form on integers, one Rational
    per value."""
    den, values = integer_moments(functional, count)
    return [Rational(v, den) for v in values]


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


def from_moments(values, roots: RootData) -> FunctionalNF:
    """The unique functional in normal form with the given values as its
    moments L(t^n), n < deg f, f the split polynomial of the root data.

    Runs on integers: with F = B f the integer form of f (`split_integer_form`)
    the recurrence extends the values, kept over one common denominator, to
    2D - 1 terms; the denominator grows only by the factor of B that each new
    term needs (about lcm(b)^n, not B^n).  The projection onto each root
    uses its idempotent (`quotient.integer_idempotent`) and Newton's
    forward differences are taken on integers; each output coefficient is
    one Rational."""
    if len(values) != roots.degree:
        raise DomainError("moment count must equal the characteristic degree")
    require_rational(values, "moment inversion")
    lead, f = split_integer_form(roots)
    n_total = len(f) - 1
    values_den, values = clear_denominators(values)
    for k in range(n_total - 1):
        step = -sum(f[i] * values[k + i] for i in range(n_total))
        grow = lead // gcd(step, lead)
        if grow > 1:
            values = [v * grow for v in values]
            values_den *= grow
        values.append(step * grow // lead)
    zero_part = Poly()
    parts = {}
    for lam, mult in roots:
        e, num, den = integer_idempotent(f, roots, lam)
        projected = [sum(c * values[n + k] for k, c in enumerate(e)) for n in range(mult)]
        den *= values_den
        if lam == 0:
            zero_part = Poly(tuple(Rational(v * num, den * factorial(n))
                                   for n, v in enumerate(projected)))
        else:
            a, b = lam.numerator, lam.denominator
            scaled = [v * b**n * a ** (mult - 1 - n) for n, v in enumerate(projected)]
            den *= a ** (mult - 1) * factorial(mult - 1)
            parts[lam] = Poly(tuple(Rational(c * num, den)
                                    for c in _newton_interpolate(scaled)))
    return FunctionalNF(roots, zero_part, parts)


def _newton_interpolate(values):
    """Integer coefficients c with sum_i c_i x^i = (len - 1)! P(x), P the
    polynomial of degree below len(values) taking values[n] at n: forward
    differences Delta^k values[0] = k! times P's Newton coefficients."""
    diffs = list(values)
    top = len(diffs) - 1
    for k in range(1, len(diffs)):
        for j in range(top, k - 1, -1):
            diffs[j] -= diffs[j - 1]
    out = []
    for k in range(top, -1, -1):
        out = int_times_linear(out, k, 1)
        out[0] += diffs[k] * (factorial(top) // factorial(k))
    return out


def dependency_relation(functionals, count: int):
    """Coefficients of a vanishing combination of the functionals, or None:
    a left dependency of the moment rows L_i(t^j), j < count."""
    return left_dependency([list(to_moments(fn, count)) for fn in functionals])
