"""Property tests of the closed-form moment kernel against the slow
references it replaced: operator application for `evaluate`/`to_moments`,
the dense confluent-Vandermonde solve for `from_moments`, the extended gcd
for `crt_idempotents`, and the evaluate-every-shift loop for the oracle and
the witness multiplier."""

from fractions import Fraction
from itertools import combinations
from math import factorial

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mzspaces.errors import DomainError
from mzspaces.functionals import FunctionalNF, evaluate, from_moments, to_moments
from mzspaces.linalg import solve_linear_system
from mzspaces.mzdecide import SubspaceSpec, decide_mz, normalize, oracle_decide_mz
from mzspaces.quotient import crt_idempotents
from mzspaces.selftest import evaluate_by_operators
from mzspaces.upoly import Poly, RootData, extended_gcd

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

ROOT_POOL = sorted({Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)})
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
NONZERO = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
COEFF = st.one_of(st.just(0), NONZERO)


@st.composite
def root_data(draw, max_roots=4, with_zero=None):
    """1-max_roots distinct rational roots with multiplicities 1-4; the root
    0 is among them when with_zero is true, never when it is false."""
    pool = [lam for lam in ROOT_POOL if lam != 0]
    lams = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_roots, unique=True))
    if with_zero is None:
        with_zero = draw(st.booleans())
    if with_zero:
        lams[draw(st.integers(0, len(lams) - 1))] = Fraction(0)
    return RootData([(lam, draw(st.integers(1, 4))) for lam in lams])


def _functional(draw, roots, coeff=SMALL):
    """Operators of degree below each multiplicity; possibly all zero."""
    by_root = {lam: Poly([draw(coeff) for _ in range(draw(st.integers(0, mult)))])
               for lam, mult in roots}
    zero = [lam for lam in by_root if lam == 0]
    return FunctionalNF(roots, by_root.pop(zero[0]) if zero else Poly(), by_root)


@st.composite
def functionals(draw):
    return _functional(draw, draw(root_data()))


# --- evaluate and to_moments against operator application ----------------

@SETTINGS
@given(functionals(), st.data())
def test_to_moments_matches_operator_application(fn, data):
    count = fn.roots.degree + data.draw(st.integers(-fn.roots.degree + 1, 6))
    expected = tuple(evaluate_by_operators(fn, Poly.monomial(n)) for n in range(count))
    assert to_moments(fn, count) == expected


@SETTINGS
@given(functionals(), st.data())
def test_evaluate_matches_operator_application_above_the_degree(fn, data):
    size = data.draw(st.integers(0, fn.roots.degree + 8))
    g = Poly([data.draw(SMALL) for _ in range(size)])
    assert evaluate(fn, g) == evaluate_by_operators(fn, g)


# --- from_moments against the dense confluent-Vandermonde solve -----------

def _dense_from_moments(values, roots):
    """The confluent-Vandermonde system n^i lam^n (i! [n = i] at 0) solved
    by Gaussian elimination."""
    n_total = roots.degree
    columns, labels = [], []
    for lam, mult in roots:
        for i in range(mult):
            if lam == 0:
                columns.append([1 if n == i else 0 for n in range(n_total)])
            else:
                columns.append([Fraction(n) ** i * Fraction(lam) ** n for n in range(n_total)])
            labels.append((lam, i))
    matrix = [[columns[c][r] for c in range(n_total)] for r in range(n_total)]
    solution = solve_linear_system(matrix, list(values))
    ops = {lam: [0] * mult for lam, mult in roots}
    for (lam, i), value in zip(labels, solution):
        ops[lam][i] = value / factorial(i) if lam == 0 else value
    zero = ops.pop(Fraction(0), [])
    return FunctionalNF(roots, Poly(zero), {lam: Poly(c) for lam, c in ops.items()})


@SETTINGS
@given(root_data(), st.data())
def test_from_moments_matches_dense_solve(roots, data):
    values = [data.draw(SMALL) for _ in range(roots.degree)]
    fn = from_moments(values, roots)
    assert fn == _dense_from_moments(values, roots)
    assert to_moments(fn, roots.degree) == tuple(values)


# --- crt_idempotents against the extended gcd ------------------------------

def _egcd_idempotent(f, lam, mult):
    factor = Poly((-lam, 1)) ** mult
    cofactor = f // factor
    _, v, g = extended_gcd(factor, cofactor)
    assert g == Poly((1,))
    return (v * cofactor) % f


def _check_idempotents(roots):
    idem = crt_idempotents(roots)
    assert list(idem) == list(roots.roots)
    for lam, mult in roots:
        assert idem[lam] == _egcd_idempotent(roots.poly(), lam, mult)


@SETTINGS
@given(root_data(max_roots=5))
def test_crt_idempotents_match_extended_gcd(roots):
    _check_idempotents(roots)


# --- the oracle and the witness multiplier against the shift loop ---------

def _shift_loop_escape(spec, e):
    """First j with t^j e mod f outside the kernel, by operator application."""
    f = spec.roots.poly()
    for j in range(spec.roots.degree):
        shifted = (Poly.monomial(j) * e) % f
        if any(evaluate_by_operators(fn, shifted) != 0 for fn in spec.functionals):
            return j
    return None


def _shift_loop_oracle(spec):
    f = spec.roots.poly()
    base = [_egcd_idempotent(f, lam, mult) for lam, mult in spec.roots]
    for size in range(len(base) + 1):
        for combo in combinations(base, size):
            e = sum(combo, Poly())
            if any(evaluate_by_operators(fn, e) != 0 for fn in spec.functionals):
                continue
            if _shift_loop_escape(spec, e) is not None:
                return False
    return True


@st.composite
def normalized_specs(draw):
    """1-3 functionals with constant terms from a small pool, so that
    balanced subsets (non-MZ kernels) are common."""
    roots = draw(root_data())
    fns = [_functional(draw, roots, COEFF) for _ in range(draw(st.integers(1, 3)))]
    assume(not any(fn.is_zero for fn in fns))
    try:
        return normalize(SubspaceSpec(fns))
    except DomainError:
        assume(False)


@SETTINGS
@given(normalized_specs())
def test_oracle_matches_shift_loop(spec):
    assert oracle_decide_mz(spec) == _shift_loop_oracle(spec)


@SETTINGS
@given(normalized_specs())
def test_witness_multiplier_matches_shift_loop(spec):
    verdict = decide_mz(spec)
    if verdict.is_mz:
        return
    idem = crt_idempotents(spec.roots)
    g = sum((idem[lam] for lam in verdict.witness_subset), Poly())
    assert verdict.witness_idempotent == g
    assert verdict.witness_multiplier == Poly.monomial(_shift_loop_escape(spec, g))
