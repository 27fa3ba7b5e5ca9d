"""Property tests of the integer probe kernels against the rational
references they replaced: the MatrixQ power loop for `trace_radical_test`,
repeated `ConstCoeffOp.apply` for `gvc_probe` (on whole polynomials and on
slices over the variables the operator touches), and the `Poly.__pow__`
termwise sum for `power_moment`."""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mzspaces.certificates import MomentRule, power_moment
from mzspaces.probes import ConstCoeffOp, MatrixQ, MultiPolyQ, gvc_probe, trace_radical_test
from mzspaces.scalars import Rational, clear_denominators
from mzspaces.selftest import (
    gvc_by_operator_application,
    power_moment_by_expansion,
    traces_by_matrix_powers,
)
from mzspaces.upoly import Poly

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Rationals with denominators up to 6, so the common denominator of a
# matrix or polynomial is rarely 1.
RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
NONZERO = RATIONAL.filter(lambda c: c != 0)


def _identity_plus(n, i, j, c):
    rows = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    rows[i][j] += c
    return MatrixQ(rows)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 5))
    return MatrixQ([[draw(RATIONAL) for _ in range(n)] for _ in range(n)])


@st.composite
def nilpotent_matrices(draw):
    """A strictly upper triangular rational matrix conjugated by 1-3
    elementary matrices I + c E_ij (inverse I - c E_ij) with rational c."""
    n = draw(st.integers(1, 5))
    matrix = MatrixQ([[draw(RATIONAL) if j > i else Fraction(0) for j in range(n)]
                      for i in range(n)])
    if n > 1:
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            c = draw(NONZERO)
            matrix = _identity_plus(n, i, j, c) * matrix * _identity_plus(n, i, j, -c)
    return matrix


def test_clear_denominators():
    assert clear_denominators([]) == (1, [])
    assert clear_denominators([Fraction(1, 2), 3, Fraction(-5, 6), 0]) == (6, [3, 18, -5, 0])


@SETTINGS
@given(matrices())
def test_trace_kernel_matches_rational_power_loop(matrix):
    traces, witness = traces_by_matrix_powers(matrix)
    report = trace_radical_test(matrix)
    assert report.traces == traces
    assert report.in_radical == (witness is not None)
    assert report.nilpotency_witness == witness


@SETTINGS
@given(nilpotent_matrices())
def test_trace_kernel_reports_the_nilpotency_index(matrix):
    report = trace_radical_test(matrix)
    assert report.in_radical
    assert (report.traces, report.nilpotency_witness) == traces_by_matrix_powers(matrix)


@st.composite
def multipolys(draw, nvars, max_exp, min_terms=1, max_terms=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    terms = draw(st.dictionaries(exps, NONZERO, min_size=min_terms, max_size=max_terms))
    return MultiPolyQ(nvars, terms)


@st.composite
def gvc_inputs(draw):
    """1-3 variables; an operator with 1-3 rational terms, mixed partials
    of order up to 3 per variable; p, q with rational coefficients."""
    nvars = draw(st.integers(1, 3))
    op = ConstCoeffOp(draw(multipolys(nvars, 3)))
    p = draw(multipolys(nvars, 2))
    q = draw(multipolys(nvars, 2, min_terms=0, max_terms=2))
    return op, p, q, draw(st.integers(1, 4))


@SETTINGS
@given(gvc_inputs())
def test_gvc_kernel_matches_operator_application(case):
    op, p, q, m_max = case
    report = gvc_probe(op, p, q, m_max)
    assert (report.hypothesis_violations, report.conclusion_violations) == \
        gvc_by_operator_application(op, p, q, m_max)


def _on(nvars, indices, exps):
    """The exponent tuple over nvars variables with exps at indices, 0 elsewhere."""
    full = [0] * nvars
    for i, e in zip(indices, exps):
        full[i] = e
    return tuple(full)


@st.composite
def sliced_polys(draw, nvars, touched, rest):
    """g(x_rest) * h(x_touched), plus at most one other term: every slice of
    the product over touched is a rational multiple of h, and so are most
    slices of its powers and of their products with another such poly."""
    def part(indices, max_terms):
        exps = st.tuples(*[st.integers(0, 2)] * len(indices))
        return draw(st.dictionaries(exps, NONZERO, min_size=1, max_size=max_terms))

    g, h = part(rest, 2), part(touched, 2)
    terms = {_on(nvars, rest + touched, ge + he): gc * hc
             for ge, gc in g.items() for he, hc in h.items()}
    if draw(st.booleans()):
        extra = _on(nvars, range(nvars), draw(st.tuples(*[st.integers(0, 2)] * nvars)))
        terms[extra] = terms.get(extra, 0) + draw(NONZERO)
    return MultiPolyQ(nvars, terms)


@st.composite
def sliced_gvc_inputs(draw):
    """An operator whose symbol uses a strict subset of 2-3 variables (the
    empty set gives a constant operator), and p, q whose slices over that
    subset are mostly rational multiples of one another."""
    nvars = draw(st.integers(2, 3))
    touched = tuple(sorted(draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))))
    rest = tuple(i for i in range(nvars) if i not in touched)
    exps = st.tuples(*[st.integers(0, 2)] * len(touched)).map(
        lambda e: _on(nvars, touched, e))
    symbol = draw(st.dictionaries(exps, NONZERO, min_size=1, max_size=3))
    p = draw(sliced_polys(nvars, touched, rest))
    q = draw(sliced_polys(nvars, touched, rest))
    return ConstCoeffOp(MultiPolyQ(nvars, symbol)), p, q, draw(st.integers(1, 6))


@SETTINGS
@given(sliced_gvc_inputs())
def test_sliced_gvc_kernel_matches_operator_application(case):
    op, p, q, m_max = case
    report = gvc_probe(op, p, q, m_max)
    assert (report.hypothesis_violations, report.conclusion_violations) == \
        gvc_by_operator_application(op, p, q, m_max)


@st.composite
def moment_polys(draw):
    """Rational coefficients, possibly the zero polynomial."""
    return Poly(draw(st.lists(RATIONAL, max_size=5)))


@SETTINGS
@given(st.sampled_from(list(MomentRule)), moment_polys(), st.integers(0, 9))
def test_power_moment_kernel_matches_expansion(rule, f, power):
    value = power_moment(rule, f, power)
    assert isinstance(value, Rational)
    assert value == power_moment_by_expansion(rule, f, power)


def test_power_moment_kernel_on_zero_moments():
    # (t - 1)^m under t^i -> i! gives the derangement numbers, 0 at m = 1;
    # 1/2 - t has unit moment 0 at every odd power; the zero polynomial has
    # moment 0 at every positive power.
    f = Poly((Fraction(1, 2), -1))
    for m in range(8):
        unit = power_moment(MomentRule.UNIT_INTERVAL, f, m)
        assert unit == power_moment_by_expansion(MomentRule.UNIT_INTERVAL, f, m)
        assert (unit == 0) == (m % 2 == 1)
    assert power_moment(MomentRule.EXPONENTIAL, Poly((-1, 1)), 1) == 0
    for rule in MomentRule:
        assert power_moment(rule, Poly(), 0) == 1
        assert power_moment(rule, Poly(), 3) == 0
