"""Radical and image probes on three side structures: rational matrices
(nilpotency via power traces), Laurent polynomials under the weighted
derivation d/dt + lam/t, and multivariate polynomials under constant
coefficient differential operators.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, perm, prod
from operator import sub

from .errors import DomainError
from .scalars import Rational, clear_denominators
from .sparse import LaurentPoly, add_tuples, collect, mul, power, shifted


class MatrixQ:
    """Square matrix with exact rational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(entry for entry in row) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise DomainError("matrix must be square and nonempty")
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.dimension != other.dimension:
            raise DomainError("matrix dimension mismatch")
        n = self.dimension
        cols = list(zip(*other.rows))
        return MatrixQ(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.dimension))

    @property
    def is_zero(self) -> bool:
        return all(entry == 0 for row in self.rows for entry in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixQ):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"MatrixQ({self.rows!r})"


class TraceReport(namedtuple("TraceReport", "in_radical traces nilpotency_witness")):
    """traces is a tuple of Rationals; nilpotency_witness is the least
    vanishing power, or None."""

    __slots__ = ()


def trace_radical_test(matrix: MatrixQ) -> TraceReport:
    """Power traces tr(C^m) for m = 1..n: all zero exactly when C is
    nilpotent; then the least vanishing power is reported as witness.

    The powers are those of the integer matrix A = d*C, d the common
    denominator of the entries, so tr(C^m) = tr(A^m) / d^m and no rational
    arithmetic happens inside the loop.  Once a power vanishes, every later
    trace is 0 and no further power is formed.
    """
    n = matrix.dimension
    d, flat = clear_denominators([entry for row in matrix.rows for entry in row])
    a = [flat[i * n:(i + 1) * n] for i in range(n)]
    cols = list(zip(*a))
    power = a
    traces = []
    witness = None
    for m in range(1, n + 1):
        if m > 1:
            power = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in power]
        if not any(any(row) for row in power):
            witness = m
            break
        traces.append(Rational(sum(power[i][i] for i in range(n)), d**m))
    traces = tuple(traces) + (Rational(0),) * (n - len(traces))
    if any(t != 0 for t in traces):
        return TraceReport(in_radical=False, traces=traces, nilpotency_witness=None)
    if witness is None:
        raise AssertionError("vanishing power traces force nilpotency in char 0")
    return TraceReport(in_radical=True, traces=traces, nilpotency_witness=witness)


def laurent_apply_op(lam, g: LaurentPoly) -> LaurentPoly:
    """The weighted derivation d/dt + lam/t: sends t^i to (lam + i) t^(i-1)."""
    lam = Rational(lam)
    return LaurentPoly({e - 1: (lam + e) * c for e, c in g.terms.items()})


def laurent_image_membership(lam, g: LaurentPoly) -> bool:
    """Whether g is in the image of the weighted derivation: always for
    non-integer lam; for integer lam exactly when the t^(-lam-1) term is 0."""
    lam = Rational(lam)
    if lam.denominator != 1:
        return True
    return g.coefficient(-int(lam) - 1) == 0


def laurent_preimage(lam, g: LaurentPoly) -> LaurentPoly | None:
    """A termwise preimage under the weighted derivation, or None exactly
    when membership fails."""
    lam = Rational(lam)
    out = {}
    for e, c in g.terms.items():
        denom = lam + e + 1
        if denom == 0:
            return None
        out[e + 1] = c / denom
    return LaurentPoly(out)


def laurent_mz_class(lam) -> bool:
    """Whether the weighted derivation's image is a Mathieu-Zhao subspace of
    the Laurent ring: yes for non-integer lam and for lam = -1 only."""
    lam = Rational(lam)
    return lam.denominator != 1 or lam == -1


def radical_vminus1_membership(g: LaurentPoly) -> bool:
    """Radical membership for the lam = -1 image: supported entirely on
    positive exponents or entirely on negative exponents."""
    exps = g.exponents
    if not exps:
        return True
    return all(e > 0 for e in exps) or all(e < 0 for e in exps)


class MultiPolyQ:
    """Multivariate polynomial over Q: exponent tuple -> coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        if nvars < 1:
            raise DomainError("need at least one variable")
        self.nvars = nvars
        items = terms.items() if hasattr(terms, "items") else terms
        data = collect(self._checked(items))
        self.terms = {k: data[k] for k in sorted(data)}

    def _checked(self, items):
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise DomainError(f"bad exponent vector {exps}")
            yield exps, c

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPolyQ":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPolyQ":
        if not 0 <= index < nvars:
            raise DomainError("variable index out of range")
        return cls(nvars, {shifted((0,) * nvars, index, 1): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self):
        return max((sum(e) for e in self.terms), default=None)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DomainError("variable count mismatch")

    def __add__(self, other):
        self._check(other)
        return MultiPolyQ(self.nvars, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return MultiPolyQ(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return MultiPolyQ(self.nvars, mul(self.terms, other.terms, add_tuples))

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise DomainError("powers must be >= 0")
        return power(self, exponent, MultiPolyQ.constant(self.nvars, 1))

    def scale(self, c):
        return MultiPolyQ(self.nvars, {e: v * c for e, v in self.terms.items()})

    def partial(self, index: int) -> "MultiPolyQ":
        if not 0 <= index < self.nvars:
            raise DomainError("variable index out of range")
        out = {}
        for exps, c in self.terms.items():
            if exps[index] == 0:
                continue
            out[shifted(exps, index, -1)] = c * exps[index]
        return MultiPolyQ(self.nvars, out)

    def __eq__(self, other):
        if not isinstance(other, MultiPolyQ):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return f"MultiPolyQ({self.nvars}, {self.terms!r})"


class ConstCoeffOp:
    """Constant coefficient operator: a polynomial in the partial-derivative
    symbols, one per variable."""

    __slots__ = ("symbol_poly",)

    def __init__(self, symbol_poly: MultiPolyQ):
        self.symbol_poly = symbol_poly

    @property
    def nvars(self) -> int:
        return self.symbol_poly.nvars

    def apply(self, f: MultiPolyQ) -> MultiPolyQ:
        if self.nvars != f.nvars:
            raise DomainError("operator and polynomial variable counts differ")
        total = MultiPolyQ(f.nvars)
        for exps, c in self.symbol_poly.terms.items():
            work = f
            for index, reps in enumerate(exps):
                for _ in range(reps):
                    work = work.partial(index)
                    if work.is_zero:
                        break
            if not work.is_zero:
                total = total + work.scale(c)
        return total

    def __repr__(self):
        return f"ConstCoeffOp({self.symbol_poly!r})"


class GvcProbeReport(namedtuple(
        "GvcProbeReport",
        "m_max hypothesis_violations conclusion_violations conclusion_transition")):
    """The violations are tuples of powers m; conclusion_transition is an
    int or None."""

    __slots__ = ()


def _integer_terms(poly: MultiPolyQ) -> dict:
    """The terms of a nonzero rational multiple of poly with integer
    coefficients."""
    _, ints = clear_denominators(list(poly.terms.values()))
    return dict(zip(poly.terms, ints))


def _int_apply(symbol, f: dict) -> dict:
    """One application of the operator with (exponents, coefficient) terms
    symbol: the derivative d^k sends x^e to e!/(e-k)! x^(e-k) per variable,
    and perm(e, k) = e!/(e-k)! is 0 for k > e."""
    return collect(
        (tuple(map(sub, exps, op_exps)), coef)
        for exps, c in f.items()
        for op_exps, op_c in symbol
        if (coef := prod(map(perm, exps, op_exps), start=op_c * c))
    )


def _killed_by_power(symbol, f: dict, m: int) -> bool:
    for _ in range(m):
        if not f:
            break
        f = _int_apply(symbol, f)
    return not f


def _slices(f: dict, touched: tuple, rest: tuple):
    """The distinct slices of f = sum_r x_R^r f_r(x_S), S the variables at
    the indices touched and R those at the indices rest: each f_r on
    exponent tuples over S, divided by its signed content (the coefficient
    of its least exponent tuple made positive); slices that agree after the
    division come once."""
    groups = {}
    for exps, c in f.items():
        part = groups.setdefault(tuple(map(exps.__getitem__, rest)), {})
        part[tuple(map(exps.__getitem__, touched))] = c
    seen = set()
    for part in groups.values():
        content = gcd(*part.values())
        if part[min(part)] < 0:
            content = -content
        key = frozenset((exps, c // content) for exps, c in part.items())
        if key not in seen:
            seen.add(key)
            yield dict(key)


def _killed(symbol, f: dict, m: int, split) -> bool:
    """Whether op^m kills f.  The operator has constant coefficients and
    differentiates only in the variables it touches, so it commutes with
    the monomials in the rest, and op^m kills f exactly when it kills every
    slice of f.  split is (touched, rest), the indices of both, or None
    when the operator touches every variable; f is then tested whole."""
    if split is None:
        return _killed_by_power(symbol, f, m)
    return all(_killed_by_power(symbol, part, m) for part in _slices(f, *split))


def gvc_probe(op: ConstCoeffOp, p_poly: MultiPolyQ, q_poly: MultiPolyQ,
              m_max: int) -> GvcProbeReport:
    """For m = 1..m_max, record whether op^m kills p^m (hypothesis) and
    whether op^m kills q*p^m (conclusion); the transition is the least m0
    from which the conclusion holds through m_max.

    Only vanishing is reported, and scaling op, p or q by a nonzero rational
    does not change it, so each is scaled to integer coefficients once and
    the powers and operator applications run on integer term dicts.  When
    the operator leaves some variables alone, each power is tested slice by
    slice over the variables it touches (`_killed`), and slices that differ
    by an integer factor are tested once.
    """
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    if op.nvars != p_poly.nvars:
        raise DomainError("operator and polynomial variable counts differ")
    if p_poly.nvars != q_poly.nvars:
        raise DomainError("variable count mismatch")
    symbol = tuple(_integer_terms(op.symbol_poly).items())
    touched = tuple(i for i in range(op.nvars) if any(exps[i] for exps, _ in symbol))
    split = None
    if len(touched) < op.nvars:
        split = touched, tuple(i for i in range(op.nvars) if i not in touched)
        symbol = tuple((tuple(map(exps.__getitem__, touched)), c) for exps, c in symbol)
    p_terms = _integer_terms(p_poly)
    q_terms = _integer_terms(q_poly)
    hypothesis_violations = []
    conclusion_violations = []
    p_power = {(0,) * p_poly.nvars: 1}
    for m in range(1, m_max + 1):
        p_power = mul(p_power, p_terms, add_tuples)
        if not _killed(symbol, p_power, m, split):
            hypothesis_violations.append(m)
        if not _killed(symbol, mul(q_terms, p_power, add_tuples), m, split):
            conclusion_violations.append(m)
    if not conclusion_violations:
        transition = 1
    elif conclusion_violations[-1] == m_max:
        transition = None
    else:
        transition = conclusion_violations[-1] + 1
    return GvcProbeReport(
        m_max=m_max,
        hypothesis_violations=tuple(hypothesis_violations),
        conclusion_violations=tuple(conclusion_violations),
        conclusion_transition=transition,
    )
