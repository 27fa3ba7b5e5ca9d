"""Property tests of the fast decision paths against their slow references:
the meet-in-the-middle subset search against a brute-force scan, and the
coefficient-space dependency check in `normalize` against the moment matrix."""

from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mzspaces.errors import DependentFunctionalsError
from mzspaces.functionals import FunctionalNF, dependency_relation, largest_ideal_exponents
from mzspaces.mzdecide import SubspaceSpec, normalize, smallest_zero_sum_subset
from mzspaces.upoly import Poly, RootData

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _brute_force(columns):
    """First balanced subset in (size, lexicographic) order."""
    dim = len(columns[0])
    for size in range(1, len(columns) + 1):
        for subset in combinations(range(len(columns)), size):
            if all(sum(columns[i][k] for i in subset) == 0 for k in range(dim)):
                return subset
    return None


@st.composite
def column_sets(draw):
    """1-10 columns of 1-3 small rationals, some replaced by an all-zero
    column, a repeat of an earlier column or the negation of one."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 10))
    columns = []
    for i in range(count):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "negate")))
        if kind == "zero":
            columns.append((Fraction(0),) * dim)
        elif kind == "fresh" or i == 0:
            columns.append(tuple(draw(SMALL) for _ in range(dim)))
        else:
            earlier = columns[draw(st.integers(0, i - 1))]
            columns.append(earlier if kind == "repeat" else tuple(-v for v in earlier))
    return columns


@SETTINGS
@given(column_sets())
# Two right-half pairs balance -5, and the pair met first, (5, 6), is not
# the lexicographically first, (4, 7).
@example([(Fraction(c),) for c in (-5, 100, 1000, 10000, 1, 2, 3, 4)])
def test_meet_in_the_middle_matches_brute_force(columns):
    assert smallest_zero_sum_subset(columns) == _brute_force(columns)


ROOT_POOL = sorted({Fraction(a, b) for a in range(-4, 5) for b in (1, 2)})
NONZERO = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
COEFF = st.one_of(st.just(0), NONZERO)


@st.composite
def root_data(draw):
    """1-4 distinct roots, 0 among them half the time, multiplicities 1-3."""
    lams = draw(st.lists(st.sampled_from(ROOT_POOL), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()) and Fraction(0) not in lams:
        lams[draw(st.integers(0, len(lams) - 1))] = Fraction(0)
    return RootData([(lam, draw(st.integers(1, 3))) for lam in lams])


def _functional(draw, roots):
    """Random operators of degree below each multiplicity; never all zero."""
    ops = [Poly([draw(COEFF) for _ in range(draw(st.integers(0, mult)))]) for _, mult in roots]
    if all(op.is_zero for op in ops):
        ops[0] = Poly([draw(NONZERO)])
    by_root = dict(zip(roots.roots, ops))
    return FunctionalNF(roots, by_root.pop(0, Poly()), by_root)


def _combination(roots, fns, scalars):
    def total(lam):
        ops = [fn.operator_poly(lam) for fn in fns]
        return sum((op * Poly([c]) for op, c in zip(ops, scalars)), Poly())

    by_root = {lam: total(lam) for lam in roots.roots}
    return FunctionalNF(roots, by_root.pop(0, Poly()), by_root)


@st.composite
def specs(draw, planted):
    """1-3 random functionals; with planted, one more that combines two of them."""
    roots = draw(root_data())
    fns = [_functional(draw, roots) for _ in range(draw(st.integers(2 if planted else 1, 3)))]
    if planted:
        scalars = [draw(NONZERO), draw(COEFF)]
        fns.insert(draw(st.integers(0, len(fns))), _combination(roots, fns[:2], scalars))
    assume(not any(fn.is_zero for fn in fns))
    return fns


def _moment_relation(fns):
    """What `normalize` computed before: the dependency of the moment matrix
    over the shrunk root data."""
    kept = [(lam, e) for lam, e in largest_ideal_exponents(fns).items() if e > 0]
    roots = RootData(kept)
    shrunk = [FunctionalNF(roots, fn.zero_part, fn.parts) for fn in fns]
    return dependency_relation(shrunk, roots.degree)


def _normalize_relation(fns):
    try:
        normalize(SubspaceSpec(fns))
    except DependentFunctionalsError as exc:
        return exc
    return None


def _check_same_relation(fns):
    expected = _moment_relation(fns)
    error = _normalize_relation(fns)
    if expected is None:
        assert error is None
    else:
        assert error.relation == tuple(expected)
        assert str(error) == str(DependentFunctionalsError(expected))
    return expected


@SETTINGS
@given(specs(planted=False))
def test_coefficient_relation_matches_moments(fns):
    _check_same_relation(fns)


@SETTINGS
@given(specs(planted=True))
def test_planted_dependency_is_found_in_coefficient_space(fns):
    assert _check_same_relation(fns) is not None
