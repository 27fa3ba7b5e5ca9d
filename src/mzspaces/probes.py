"""Radical and image probes on three side structures: rational matrices
(nilpotency via power traces), Laurent polynomials under the weighted
derivation d/dt + lam/t, and multivariate polynomials under constant
coefficient differential operators.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import gcd, perm, prod
from operator import mul as _times, sub

from .errors import DomainError
from .scalars import (Rational, clear_denominators, digit_width, pack, packed_digit, power,
                      require_rational)
from .sparse import (LaurentPoly, SparsePoly, add_tuples, collect, exponent_tuple, mul, shifted,
                     term_pairs)

# The cost budget of gvc_probe's kill tests, charged as they run (see
# gvc_probe); GVC_OP_BITS is the part of a term pair's cost that does not grow
# with its coefficients.  At the budget a run takes up to about 3.5 s on a
# 2-vCPU host (README).
GVC_OP_BITS = 6000
GVC_MAX_COST = 8_000_000_000


class MatrixQ:
    """Square matrix with exact rational entries, checked where it is built."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(entry for entry in row) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise DomainError("matrix must be square and nonempty")
        require_rational((entry for row in rows for entry in row), "a matrix")
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
    arithmetic happens inside the loop.  Each row of A^m is packed into one
    integer (`scalars.pack`), entry j as the signed digit j: with R the
    largest absolute row sum of A, |(A^m)_ij| <= R^m <= R^n for m <= n, so
    digits wide enough for R^n never carry into one another.  Row i of
    A^(m+1) is sum_k A_ik * (row k of A^m), n^2 big-integer products per
    power instead of n^3 entry products.  The trace reads only the n
    diagonal digits (`scalars.packed_digit`).  Once a power vanishes, every
    later trace is 0 and no further power is formed.
    """
    n = matrix.dimension
    d, flat = clear_denominators([entry for row in matrix.rows for entry in row])
    a = [flat[i * n:(i + 1) * n] for i in range(n)]
    width = digit_width(max(sum(map(abs, row)) for row in a) ** n)
    rows = [pack(row, width) for row in a]
    traces = []
    witness = None
    for m in range(1, n + 1):
        if m > 1:
            rows = [sum(map(_times, a_row, rows)) for a_row in a]
        if not any(rows):
            witness = m
            break
        trace = sum(packed_digit(row, width, i) for i, row in enumerate(rows))
        traces.append(Rational(trace, d**m))
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


class MultiPolyQ(SparsePoly):
    """Polynomial over Q: exponent tuple (nvars ints >= 0) -> rational."""

    __slots__ = ("nvars",)
    _ring = ("nvars",)
    _ring_error = "variable count mismatch"
    _add_keys = staticmethod(add_tuples)

    def __init__(self, nvars: int, terms=()):
        if nvars < 1:
            raise DomainError("need at least one variable")
        self.nvars = nvars
        self._set_terms([(exponent_tuple(exps, nvars), c) for exps, c in term_pairs(terms)],
                        "a polynomial over Q")

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPolyQ":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPolyQ":
        if not 0 <= index < nvars:
            raise DomainError("variable index out of range")
        return cls(nvars, {shifted((0,) * nvars, index, 1): 1})

    @property
    def total_degree(self):
        return max((sum(e) for e in self.terms), default=None)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise DomainError("powers must be >= 0")
        return power(self, exponent, self._derived({(0,) * self.nvars: 1}))

    def scale(self, c):
        return MultiPolyQ(self.nvars, {e: v * c for e, v in self.terms.items()})

    def partial(self, index: int) -> "MultiPolyQ":
        if not 0 <= index < self.nvars:
            raise DomainError("variable index out of range")
        return self._derived({shifted(exps, index, -1): c * exps[index]
                              for exps, c in self.terms.items() if exps[index]})

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


def _bits(f: dict) -> int:
    """The bit length of the largest coefficient of f, 0 when f is 0."""
    return max(map(abs, f.values()), default=0).bit_length()


def _killed_by_power(symbol, f: dict, m: int, charge) -> bool:
    for _ in range(m):
        if not f:
            break
        charge(len(f) * len(symbol), _bits(f))
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


def _killed(symbol, f: dict, m: int, split, charge) -> bool:
    """Whether op^m kills f.  The operator has constant coefficients and
    differentiates only in the variables it touches, so it commutes with
    the monomials in the rest, and op^m kills f exactly when it kills every
    slice of f.  split is (touched, rest), the indices of both, or None
    when f is to be tested whole.  charge(pairs, bits) is called before
    each application of the operator."""
    if split is None:
        return _killed_by_power(symbol, f, m, charge)
    return all(_killed_by_power(symbol, part, m, charge) for part in _slices(f, *split))


def _gvc_plan(op: ConstCoeffOp, p_poly: MultiPolyQ, q_poly: MultiPolyQ, m_max: int):
    """(symbol, p, qs, split): the kill tests `gvc_probe` runs, after
    checking its inputs.  Vanishing does not change when op, p or q is
    scaled by a nonzero rational, so each is scaled to integer coefficients
    once: symbol as (exponents, coefficient) pairs, p and each q in qs as
    term dicts.  The operator touches the variables S and leaves R alone
    (R may be empty).  Two paths:

    - factored: p has exactly one distinct slice s over S, that is
      p = h(x_R) s(x_S) with h != 0; with R empty, s is p over its content.
      Then op^m(h^m F) = h^m op^m(F), and the polynomials are an integral
      domain, so op^m kills p^m exactly when it kills s^m; and since
      q*p^m = h^m sum_r x_R^r q_r s^m, with q_r the slices of q, it kills
      q*p^m exactly when it kills every q_r s^m.  p is s and qs the slices
      of q ({} alone when q is 0), symbol and all over S; split None.
    - sliced: any other p; each power is tested slice by slice over S
      (`_killed`); symbol is over S, p and qs = (q,) over all the
      variables, and split is (the indices of S, those of R).

    The path follows from the operator and from p alone."""
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    if op.nvars != p_poly.nvars:
        raise DomainError("operator and polynomial variable counts differ")
    if p_poly.nvars != q_poly.nvars:
        raise DomainError("variable count mismatch")
    symbol = tuple(_integer_terms(op.symbol_poly).items())
    p_terms, q_terms = _integer_terms(p_poly), _integer_terms(q_poly)
    touched = tuple(i for i in range(op.nvars) if any(exps[i] for exps, _ in symbol))
    split = touched, tuple(i for i in range(op.nvars) if i not in touched)
    symbol = tuple((tuple(map(exps.__getitem__, touched)), c) for exps, c in symbol)
    slices = list(islice(_slices(p_terms, *split), 2))
    if len(slices) == 1:
        return symbol, slices[0], tuple(_slices(q_terms, *split)) or ({},), None
    return symbol, p_terms, (q_terms,), split


def gvc_probe(op: ConstCoeffOp, p_poly: MultiPolyQ, q_poly: MultiPolyQ,
              m_max: int) -> GvcProbeReport:
    """For m = 1..m_max, record whether op^m kills p^m (hypothesis) and
    whether op^m kills q*p^m (conclusion); the transition is the least m0
    from which the conclusion holds through m_max.

    The kill tests run on the integer term dicts of `_gvc_plan`: on the
    factor s of p and the slices of q, or slice by slice over the variables
    the operator touches; slices that differ by an integer factor are tested
    once.

    Each application of the operator to f and each product a*b forming
    p^m or q*p^m is charged before it runs, at len(f) len(symbol)
    (GVC_OP_BITS + bits of f) or len(a) len(b) (GVC_OP_BITS + bits of a +
    bits of b), the bits those of the largest coefficient.  A charge that
    would take the total past GVC_MAX_COST raises DomainError naming the
    m it was charged at, so an input stops at the same point every time.
    """
    symbol, p_terms, q_parts, split = _gvc_plan(op, p_poly, q_poly, m_max)
    spent = 0

    def charge(pairs: int, bits: int) -> None:
        nonlocal spent
        cost = pairs * (GVC_OP_BITS + bits)
        if spent + cost > GVC_MAX_COST:
            raise DomainError(f"the kill tests pass the cost budget {GVC_MAX_COST} at m = {m}")
        spent += cost

    def metered_mul(a: dict, b: dict) -> dict:
        charge(len(a) * len(b), _bits(a) + _bits(b))
        return mul(a, b, add_tuples)

    hypothesis_violations = []
    conclusion_violations = []
    p_power = p_terms
    for m in range(1, m_max + 1):
        if m > 1:
            p_power = metered_mul(p_power, p_terms)
        if not _killed(symbol, p_power, m, split, charge):
            hypothesis_violations.append(m)
        if not all(_killed(symbol, metered_mul(q, p_power), m, split, charge) for q in q_parts):
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
