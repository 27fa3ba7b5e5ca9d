import random
from fractions import Fraction

import pytest

from mzspaces.errors import DependentFunctionalsError, DomainError
from mzspaces.functionals import FunctionalNF, evaluate
from mzspaces.mzdecide import (
    DEFAULT_MAX_SUBSET_ROOTS,
    MZVerdict,
    SubspaceSpec,
    decide_mz,
    normalize,
    oracle_decide_mz,
)
from mzspaces.quotient import crt_idempotents
from mzspaces.selftest import evaluate_by_operators, random_normalized_spec
from mzspaces.upoly import Poly, RootData


def _roots(*pairs):
    return RootData([(Fraction(a), m) for a, m in pairs])


def _sign_difference_spec():
    roots = _roots((1, 1), (-1, 1))
    fn = FunctionalNF(roots, parts={Fraction(1): Poly([1]), Fraction(-1): Poly([-1])})
    return normalize(SubspaceSpec([fn]))


def _sign_sum_spec():
    roots = _roots((1, 1), (-1, 1))
    fn = FunctionalNF(roots, parts={Fraction(1): Poly([1]), Fraction(-1): Poly([1])})
    return normalize(SubspaceSpec([fn]))


def test_normalize_shrinks_multiplicities():
    roots = _roots((0, 3), (1, 2))
    fn = FunctionalNF(roots, zero_part=Poly([0, 1]), parts={Fraction(1): Poly([3])})
    spec = normalize(SubspaceSpec([fn]))
    assert spec.normalized
    assert list(spec.roots) == [(Fraction(0), 2), (Fraction(1), 1)]
    # The functionals keep their operators, re-indexed over the shrunk roots.
    assert spec.functionals[0].zero_part == Poly([0, 1])
    assert spec.functionals[0].parts == {Fraction(1): Poly([3])}


def test_normalize_drops_untouched_roots():
    roots = _roots((0, 1), (1, 1), (2, 2))
    fn = FunctionalNF(roots, parts={Fraction(1): Poly([1])})
    spec = normalize(SubspaceSpec([fn]))
    assert list(spec.roots) == [(Fraction(1), 1)]


def test_normalize_keeps_the_objects_when_nothing_shrinks():
    roots = _roots((0, 2), (1, 1), (2, 3))
    first = FunctionalNF(roots, zero_part=Poly([0, 1]), parts={Fraction(2): Poly([1, 0, 2])})
    second = FunctionalNF(roots, parts={Fraction(1): Poly([5]), Fraction(2): Poly([1])})
    spec = SubspaceSpec([first, second])
    again = normalize(spec)
    assert again.normalized and again.roots is roots
    assert all(new is old for new, old in zip(again.functionals, spec.functionals))
    assert normalize(again).functionals[1] is second


def test_normalize_cuts_to_the_largest_ideal_exponents_frozen():
    roots = _roots((0, 3), (1, 2), (2, 2))
    f1 = FunctionalNF(roots, zero_part=Poly([0, 1]), parts={Fraction(1): Poly([3])})
    f2 = FunctionalNF(roots, parts={Fraction(1): Poly([0, 1])})
    # 1 + max operator degree per root; an untouched root is dropped.
    assert normalize(SubspaceSpec([f1, f2])).roots == _roots((0, 2), (1, 2))


def test_spec_requires_common_roots():
    a = FunctionalNF(_roots((1, 1)), parts={Fraction(1): Poly([1])})
    b = FunctionalNF(_roots((2, 1)), parts={Fraction(2): Poly([1])})
    with pytest.raises(DomainError, match="^functionals must share one root data$"):
        SubspaceSpec([a, b])


def test_normalize_rejects_zero_functional():
    roots = _roots((1, 1),)
    with pytest.raises(DomainError):
        normalize(SubspaceSpec([FunctionalNF(roots)]))


def test_normalize_rejects_dependent_functionals():
    roots = _roots((1, 1), (-1, 1))
    f1 = FunctionalNF(roots, parts={Fraction(1): Poly([1]), Fraction(-1): Poly([2])})
    f2 = FunctionalNF(roots, parts={Fraction(1): Poly([3]), Fraction(-1): Poly([6])})
    with pytest.raises(DependentFunctionalsError) as info:
        normalize(SubspaceSpec([f1, f2]))
    c1, c2 = info.value.relation
    for n in range(roots.degree):
        g = Poly.monomial(n)
        assert c1 * evaluate(f1, g) + c2 * evaluate(f2, g) == 0


def test_decide_requires_normalized_spec():
    roots = _roots((1, 1),)
    raw = SubspaceSpec([FunctionalNF(roots, parts={Fraction(1): Poly([1])})])
    with pytest.raises(DomainError):
        decide_mz(raw)
    with pytest.raises(DomainError):
        oracle_decide_mz(raw)


@pytest.mark.parametrize("search", [decide_mz, oracle_decide_mz])
def test_an_unnormalized_spec_is_rejected_by_name(search):
    roots = _roots((1, 1),)
    raw = SubspaceSpec([FunctionalNF(roots, parts={Fraction(1): Poly([1])})])
    with pytest.raises(DomainError, match="^spec must be normalized first$"):
        search(raw)


def test_sign_difference_kernel_is_not_mz():
    spec = _sign_difference_spec()
    verdict = decide_mz(spec)
    assert not verdict.is_mz
    assert verdict.witness_subset == (Fraction(1), Fraction(-1))
    assert verdict.witness_idempotent == Poly([1])
    assert verdict.witness_multiplier == Poly([0, 1])
    # Re-verify the witness by direct evaluation, not through the decider.
    fn = spec.functionals[0]
    assert evaluate(fn, verdict.witness_idempotent) == 0
    product = verdict.witness_multiplier * verdict.witness_idempotent
    assert evaluate(fn, product) == 2
    assert oracle_decide_mz(spec) is False


def test_sign_sum_kernel_is_mz():
    spec = _sign_sum_spec()
    assert decide_mz(spec).is_mz
    assert oracle_decide_mz(spec) is True


def test_double_root_with_pure_euler_term_is_not_mz():
    # Single root 2 with operator T: the constant term vanishes, so the
    # one-element subset is balanced.
    roots = _roots((2, 2),)
    fn = FunctionalNF(roots, parts={Fraction(2): Poly([0, 1])})
    spec = normalize(SubspaceSpec([fn]))
    verdict = decide_mz(spec)
    assert not verdict.is_mz
    assert verdict.witness_subset == (Fraction(2),)
    assert verdict.witness_idempotent == Poly([1])
    assert verdict.witness_multiplier == Poly([0, 1])
    assert evaluate(fn, Poly([0, 1])) == 2


def _first_escape_by_operators(spec, g):
    """Smallest j < deg f with some L(t^j g) != 0, each L applied through
    its operators (`selftest.evaluate_by_operators`), not the closed form."""
    for j in range(spec.roots.degree):
        shifted = Poly.monomial(j) * g
        if any(evaluate_by_operators(fn, shifted) != 0 for fn in spec.functionals):
            return j
    return None


def _check_frozen_multiplier(spec, subset, j):
    verdict = decide_mz(spec)
    assert verdict.witness_subset == subset
    idem = crt_idempotents(spec.roots)
    g = sum((idem[lam] for lam in subset), Poly())
    assert verdict.witness_idempotent == g
    assert _first_escape_by_operators(spec, g) == j
    assert verdict.witness_multiplier == Poly.monomial(j)


def test_multiplier_counts_the_zero_operator_inside_the_subset():
    # The constant terms 1, -1 and 5 balance only over S = {0, 1}.  There
    # L(t^n e_S) = n! [P_0]_n + (n - 1): 0 at n = 0, then 2 at n = 1, all of
    # it from [P_0]_1; dropping P_0 would give j = 0.
    roots = _roots((0, 2), (1, 2), (3, 1))
    fn = FunctionalNF(roots, zero_part=Poly([1, 2]),
                      parts={Fraction(1): Poly([-1, 1]), Fraction(3): Poly([5])})
    spec = normalize(SubspaceSpec([fn]))
    _check_frozen_multiplier(spec, (Fraction(0), Fraction(1)), 1)


def test_multiplier_ignores_the_zero_operator_outside_the_subset():
    # S = {1, -1}; L(t^n e_S) = 2 - 2 (-1)^n is 0 at n = 0 and 4 at n = 1.
    # The root 0 lies outside S; counting its [P_0]_0 = 1 would give j = 0.
    roots = _roots((0, 2), (1, 1), (-1, 1))
    fn = FunctionalNF(roots, zero_part=Poly([1, 3]),
                      parts={Fraction(1): Poly([2]), Fraction(-1): Poly([-2])})
    spec = normalize(SubspaceSpec([fn]))
    _check_frozen_multiplier(spec, (Fraction(1), Fraction(-1)), 1)


def test_decide_matches_oracle_on_seeded_specs():
    rng = random.Random(123457)
    disagreements = 0
    negatives = 0
    for _ in range(60):
        spec = random_normalized_spec(rng)
        verdict = decide_mz(spec)
        if verdict.is_mz != oracle_decide_mz(spec):
            disagreements += 1
        if not verdict.is_mz:
            negatives += 1
            _check_witness(spec, verdict)
    assert disagreements == 0
    assert negatives > 0  # the sample must exercise both verdicts


def _check_witness(spec, verdict):
    modulus = spec.roots.poly()
    e = verdict.witness_idempotent
    assert ((e * e - e) % modulus).is_zero
    for fn in spec.functionals:
        assert evaluate(fn, e) == 0
    product = verdict.witness_multiplier * e
    assert any(evaluate(fn, product) != 0 for fn in spec.functionals)


def test_root_cap_is_enforced():
    lams = _simple_roots(DEFAULT_MAX_SUBSET_ROOTS + 1)
    spec = _constant_term_spec(lams, [[2 ** i for i in range(len(lams))]])
    with pytest.raises(DomainError):
        decide_mz(spec)
    with pytest.raises(DomainError):
        oracle_decide_mz(spec)


def _simple_roots(count):
    return [Fraction(k, 2) for k in range(1, count + 1)]


def _constant_term_spec(lams, rows):
    roots = RootData([(lam, 1) for lam in lams])
    fns = [FunctionalNF(roots, parts={lam: Poly([c]) for lam, c in zip(lams, row)})
           for row in rows]
    return normalize(SubspaceSpec(fns))


def test_oracle_cap_is_the_subset_cap():
    lams = _simple_roots(DEFAULT_MAX_SUBSET_ROOTS + 1)
    spec = _constant_term_spec(lams, [[2 ** i for i in range(len(lams))]])
    with pytest.raises(DomainError, match=f"subset enumeration cap {DEFAULT_MAX_SUBSET_ROOTS}$"):
        decide_mz(spec)
    with pytest.raises(DomainError, match=f"oracle enumeration cap {DEFAULT_MAX_SUBSET_ROOTS}$"):
        oracle_decide_mz(spec)


def test_no_zero_sum_subset_at_the_root_cap():
    # Signed powers of two: no nonempty subset of them sums to zero.
    lams = _simple_roots(DEFAULT_MAX_SUBSET_ROOTS)
    spec = _constant_term_spec(lams, [[(-1) ** i * 2 ** i for i in range(len(lams))]])
    assert decide_mz(spec) == MZVerdict(True)
    assert oracle_decide_mz(spec) is True


def test_planted_witness_at_the_root_cap():
    # In both functionals the last 18 constant terms cancel and no other
    # subset does: the first two roots carry terms too large to be balanced.
    lams = _simple_roots(DEFAULT_MAX_SUBSET_ROOTS)
    planted = range(2, DEFAULT_MAX_SUBSET_ROOTS)
    rows = []
    for scale in (1, 3):
        row = [(-1) ** i * scale * 2 ** i for i in range(len(lams))]
        row[0], row[1] = scale * 2 ** 40, 2 ** 41
        row[-1] = -sum(row[i] for i in planted[:-1])
        rows.append(row)
    spec = _constant_term_spec(lams, rows)
    verdict = decide_mz(spec)
    assert not verdict.is_mz
    assert verdict.witness_subset == tuple(lams[i] for i in planted)
    _check_witness(spec, verdict)
    assert oracle_decide_mz(spec) is False

