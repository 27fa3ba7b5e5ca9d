"""Property tests of the integer kernels for rational split moduli against
their field-arithmetic references in `selftest`: `RootData.poly`,
`crt_idempotents` and the closed-form moments, the `from_moments` round
trip, and the linear oracle against the enumeration of every idempotent."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mzspaces.errors import DomainError
from mzspaces.functionals import (
    FunctionalNF,
    _moments,
    evaluate,
    from_moments,
    to_moments,
)
from mzspaces.mzdecide import SubspaceSpec, decide_mz, normalize, oracle_decide_mz
from mzspaces.quotient import crt_idempotents
from mzspaces.selftest import (
    idempotent_by_field_arithmetic,
    modulus_by_field_arithmetic,
    moments_by_field_arithmetic,
    oracle_by_enumeration,
)
from mzspaces.upoly import Poly, RootData

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Roots a/b with b up to 9; an int where the value is integral about half
# the time, so int and Fraction scalars mix.
ROOT = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)).flatmap(
    lambda q: st.sampled_from((q, int(q))) if q.denominator == 1 else st.just(q))
COEFF = st.one_of(st.integers(-5, 5), st.fractions(min_value=-4, max_value=4,
                                                    max_denominator=9))


@st.composite
def root_data(draw, max_roots=4, max_mult=10):
    """1-max_roots distinct roots, 0 among them about half the time, with
    multiplicities up to max_mult and total degree at most 24."""
    lams = draw(st.lists(ROOT, min_size=1, max_size=max_roots, unique_by=Fraction))
    if draw(st.booleans()) and all(lam != 0 for lam in lams):
        lams[draw(st.integers(0, len(lams) - 1))] = draw(st.sampled_from((0, Fraction(0))))
    mults = [draw(st.integers(1, max_mult)) for _ in lams]
    assume(sum(mults) <= 24)
    return RootData(list(zip(lams, mults)))


def _functional(draw, roots, coeff=COEFF):
    by_root = {lam: Poly([draw(coeff) for _ in range(draw(st.integers(0, mult)))])
               for lam, mult in roots}
    zero = [lam for lam in by_root if lam == 0]
    return FunctionalNF(roots, by_root.pop(zero[0]) if zero else Poly(), by_root)


@st.composite
def functionals(draw):
    return _functional(draw, draw(root_data()))


@SETTINGS
@given(root_data())
def test_modulus_and_idempotents_match_field_arithmetic(roots):
    f = roots.poly()
    assert f == modulus_by_field_arithmetic(roots)
    idempotents = crt_idempotents(roots)
    for lam, mult in roots:
        assert idempotents[lam] == idempotent_by_field_arithmetic(f, lam, mult)


@SETTINGS
@given(functionals(), st.data())
def test_moments_match_field_arithmetic(fn, data):
    count = data.draw(st.integers(0, fn.roots.degree + 6))
    assert _moments(fn, count) == moments_by_field_arithmetic(fn, count)
    assert evaluate(fn, Poly()) == 0


@SETTINGS
@given(root_data(), st.data())
def test_from_moments_inverts_to_moments(roots, data):
    values = [data.draw(COEFF) for _ in range(roots.degree)]
    fn = from_moments(values, roots)
    assert to_moments(fn, roots.degree) == tuple(values)
    assert from_moments(to_moments(fn, roots.degree), roots) == fn


# --- the linear oracle against the enumeration of every idempotent --------

@st.composite
def planted_specs(draw):
    """1-12 roots (multiplicities 1-2, or 1 when there are more than 6) and
    1-3 functionals; half the time the constant terms of every functional
    cancel over a drawn subset of the roots, so that the kernel is not
    Mathieu-Zhao."""
    count = draw(st.integers(1, 12))
    lams = draw(st.lists(ROOT, min_size=count, max_size=count, unique_by=Fraction))
    top = 2 if count <= 6 else 1
    roots = RootData([(lam, draw(st.integers(1, top))) for lam in lams])
    fns = []
    planted = draw(st.lists(st.sampled_from(range(count)), min_size=1, unique=True))
    plant = draw(st.booleans())
    for _ in range(draw(st.integers(1, min(3, roots.degree)))):
        ops = {lam: [draw(COEFF) for _ in range(mult)] for lam, mult in roots}
        if plant:
            *rest, last = (lams[i] for i in planted)
            ops[last][0] = -sum((ops[lam][0] for lam in rest), Fraction(0))
        zero = [lam for lam in ops if lam == 0]
        zero_part = Poly(ops.pop(zero[0])) if zero else Poly()
        fns.append(FunctionalNF(roots, zero_part, {lam: Poly(c) for lam, c in ops.items()}))
    assume(not any(fn.is_zero for fn in fns))
    try:
        return normalize(SubspaceSpec(fns))
    except DomainError:
        assume(False)


@settings(SETTINGS, max_examples=40)
@given(planted_specs())
def test_linear_oracle_matches_enumeration(spec):
    verdict = oracle_decide_mz(spec)
    assert verdict == oracle_by_enumeration(spec)
    assert verdict == decide_mz(spec).is_mz


@pytest.mark.parametrize("plant", [False, True])
def test_linear_oracle_matches_enumeration_at_twelve_roots(plant):
    # Constant terms (-3)^i have no balanced subset; planting makes the
    # last one cancel the three before it in both functionals.
    lams = [Fraction(k, 2) for k in range(1, 13)]
    roots = RootData([(lam, 1) for lam in lams])
    fns = []
    for scale in (1, Fraction(2, 3)):
        row = [scale * (-3) ** i + (i == 5) for i in range(12)]
        if plant:
            row[-1] = -sum(row[-4:-1])
        fns.append(FunctionalNF(roots, parts={lam: Poly([c]) for lam, c in zip(lams, row)}))
    spec = normalize(SubspaceSpec(fns))
    assert oracle_decide_mz(spec) is oracle_by_enumeration(spec) is (not plant)
