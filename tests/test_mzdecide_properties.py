"""Property tests of the fast decision paths against their slow references:
the packed meet-in-the-middle subset search against a brute-force scan and
a meet in the middle over index tuples, the oracle's packed scan against
`selftest.oracle_by_enumeration`, and the coefficient-space dependency check
in `normalize` against the moment matrix."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mzspaces.errors import DependentFunctionalsError
from mzspaces.functionals import FunctionalNF, dependency_relation
from mzspaces.mzdecide import (SubspaceSpec, decide_mz, normalize, oracle_decide_mz,
                               smallest_zero_sum_subset)
from mzspaces.selftest import oracle_by_enumeration
from mzspaces.upoly import Poly, RootData

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=2)
WIDE = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6))


def _brute_force(columns):
    """First balanced subset in (size, lexicographic) order."""
    dim = len(columns[0])
    for size in range(1, len(columns) + 1):
        for subset in combinations(range(len(columns)), size):
            if all(sum(columns[i][k] for i in subset) == 0 for k in range(dim)):
                return subset
    return None


def _tuple_meet_in_the_middle(columns):
    """The search over index tuples and rational sum vectors that the packed
    bitmask search replaced: every right sum keeps its lexicographically first
    index tuple of each size, and every left tuple is tried with all of them."""
    if not columns:
        return None
    dim = len(columns[0])
    half = len(columns) // 2

    def subset_sums(part, offset):
        out = [((), (0,) * dim)]
        for i, column in enumerate(part, offset):
            out += [(idx + (i,), tuple(a + b for a, b in zip(total, column)))
                    for idx, total in out]
        return out

    right = {}
    for idx, total in subset_sums(columns[half:], half):
        firsts = right.setdefault(total, {})
        if len(idx) not in firsts or idx < firsts[len(idx)]:
            firsts[len(idx)] = idx
    best = None
    for idx, total in subset_sums(columns[:half], 0):
        for tail in right.get(tuple(-v for v in total), {}).values():
            found = idx + tail
            if found and (best is None or (len(found), found) < (len(best), best)):
                best = found
    return best


@st.composite
def column_sets(draw, counts=(1, 10), entries=SMALL):
    """1-10 columns (or counts) of 1-3 small rationals (or entries), some
    replaced by an all-zero column, a repeat of an earlier column or the
    negation of one."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(*counts))
    columns = []
    for i in range(count):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "negate")))
        if kind == "zero":
            columns.append((Fraction(0),) * dim)
        elif kind == "fresh" or i == 0:
            columns.append(tuple(draw(entries) for _ in range(dim)))
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


# 11-20 columns, past the reach of _brute_force: narrow entries balance
# often, and wide ones need packing digits of more than 100 bits.
@SETTINGS
@given(st.one_of(column_sets((11, 20), SMALL), column_sets((11, 20), WIDE)))
@example([(Fraction(c),) for c in (-5, 100, 1000, 10000, 1, 2, 3, 4, 7, 11, 13)])
def test_packed_search_matches_tuple_meet_in_the_middle(columns):
    assert smallest_zero_sum_subset(columns) == _tuple_meet_in_the_middle(columns)


def _one_functional_spec(constants):
    """Simple roots 1..r, one functional whose operator at root i is the
    constant constants[i - 1]."""
    roots = RootData([(lam, 1) for lam in range(1, len(constants) + 1)])
    parts = {lam: Poly([c]) for lam, c in zip(roots.roots, constants)}
    return normalize(SubspaceSpec([FunctionalNF(roots, Poly(), parts)]))


@pytest.mark.parametrize("r", range(2, 10))
@pytest.mark.parametrize("balanced", ["ends", "all"])
def test_oracle_finds_a_set_that_crosses_the_half_split(r, balanced):
    """The only balanced set has roots in both halves of the oracle's scan:
    the first and last roots (1 and -1 among powers of 10), or all of them
    (powers of 2 and minus their sum)."""
    if balanced == "ends":
        constants, subset = [1] + [10**i for i in range(1, r - 1)] + [-1], (0, r - 1)
    else:
        constants, subset = [2**i for i in range(r - 1)] + [1 - 2**(r - 1)], tuple(range(r))
    spec = _one_functional_spec(constants)
    assert decide_mz(spec).witness_subset == tuple(spec.roots.roots[i] for i in subset)
    assert oracle_decide_mz(spec) is oracle_by_enumeration(spec) is False
    constants[-1] -= 1  # no set is balanced now
    spec = _one_functional_spec(constants)
    assert oracle_decide_mz(spec) is oracle_by_enumeration(spec) is True


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
    over the shrunk root data, each root's multiplicity cut to the most
    operator coefficients any functional has there, and a root without any
    dropped."""
    tops = [(lam, max(len(fn.operator_poly(lam).coeffs) for fn in fns))
            for lam, _ in fns[0].roots]
    roots = RootData([(lam, top) for lam, top in tops if top])
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
