"""Property tests of the integer probe kernels against the rational
references they replaced: the MatrixQ power loop for `trace_radical_test`
(packed rows included, at their width bound), repeated `ConstCoeffOp.apply`
for `gvc_probe` (on whole polynomials, on slices over the variables the
operator touches, and on the factor of p when p has one slice), and the
`Poly.__pow__` termwise sum for `power_moment`; and `imagep.ZXPoly`
results built by its private constructor against the public one."""

import random
from fractions import Fraction

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mzspaces.certificates import power_moment
from mzspaces.imagep import ZXPoly, apply_d, imd_decide, j_ideal_witness
from mzspaces.probes import (
    ConstCoeffOp,
    MatrixQ,
    MultiPolyQ,
    _gvc_plan,
    _integer_terms,
    _slices,
    gvc_probe,
    trace_radical_test,
)
from mzspaces.scalars import Rational, clear_denominators
from mzspaces.selftest import (
    gvc_by_operator_application,
    power_moment_by_expansion,
    traces_by_matrix_powers,
)
from mzspaces.sparse import add_tuples
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


# The packed rows have digits of whole bytes that hold R^n, R the largest
# absolute row sum (`scalars.digit_width`); c^n for the diagonal c I is the
# largest entry that bound admits at the last power.  The byte-exact bound
# is tested in test_packed_kernel_properties.py.
WIDE = st.integers(-10**30, 10**30)


@st.composite
def wide_matrices(draw):
    """Entries up to +-10^30, some of them divided by 1-3, at n <= 8."""
    n = draw(st.integers(1, 8))
    return MatrixQ([[Fraction(draw(WIDE), draw(st.integers(1, 3))) for _ in range(n)]
                    for _ in range(n)])


@SETTINGS
@given(wide_matrices())
@example(MatrixQ([[10**30 * (i == j) for j in range(8)] for i in range(8)]))
@example(MatrixQ([[(2**100 - 1) * (i == j) for j in range(8)] for i in range(8)]))
@example(MatrixQ([[-(2**100) * (i == j) for j in range(8)] for i in range(8)]))
@example(MatrixQ([[10**30] * 8 for _ in range(8)]))
@example(MatrixQ([[(-1) ** (i + j) * 10**30 for j in range(8)] for i in range(8)]))
@example(MatrixQ([[-10**30]]))
def test_packed_trace_kernel_at_its_width_bound(matrix):
    report = trace_radical_test(matrix)
    traces, witness = traces_by_matrix_powers(matrix)
    assert report.traces == traces
    assert (report.in_radical, report.nilpotency_witness) == (witness is not None, witness)


def _jordan_nilpotent(n, index, rng):
    """A nilpotent n x n matrix of nilpotency index `index`: Jordan blocks of
    sizes index, then at most index each, conjugated by elementary matrices
    I + c E_ij with rational c."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    size = index
    while start < n:
        for i in range(start, start + size - 1):
            rows[i][i + 1] = Fraction(1)
        start += size
        size = min(index, n - start, rng.randint(1, index))
    matrix = MatrixQ(rows)
    for _ in range(3 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        matrix = _identity_plus(n, i, j, c) * matrix * _identity_plus(n, i, j, -c)
    return matrix


def test_trace_kernel_finds_every_nilpotency_index():
    rng = random.Random(19)
    for n in range(1, 9):
        for index in range(1, n + 1):
            matrix = _jordan_nilpotent(n, index, rng)
            report = trace_radical_test(matrix)
            assert report.in_radical
            assert report.nilpotency_witness == index
            assert (report.traces, index) == traces_by_matrix_powers(matrix)


def test_trace_kernel_on_the_one_by_one_and_zero_matrices():
    for entry in (0, 1, -1, Fraction(-7, 3), 10**30):
        report = trace_radical_test(MatrixQ([[entry]]))
        assert report.traces == (entry,)
        assert report.in_radical == (entry == 0)
        assert report.nilpotency_witness == (1 if entry == 0 else None)
    for n in (1, 2, 5, 48):
        report = trace_radical_test(MatrixQ([[0] * n for _ in range(n)]))
        assert report == (True, (0,) * n, 1)


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


def _sum(first, *rest):
    return sum(rest, first)


@st.composite
def factored_gvc_inputs(draw):
    """An operator in a nonempty strict subset S of 2-3 variables, a p with
    one distinct slice over S (p = h(x_R) s(x_S)), and a q, the sum of two
    or three `sliced_polys`, with at least two distinct slices."""
    nvars = draw(st.integers(2, 3))
    touched = tuple(sorted(draw(st.sets(st.integers(0, nvars - 1), min_size=1,
                                        max_size=nvars - 1))))
    rest = tuple(i for i in range(nvars) if i not in touched)
    exps = st.tuples(*[st.integers(0, 2)] * len(touched)).map(
        lambda e: _on(nvars, touched, e))
    op = ConstCoeffOp(MultiPolyQ(nvars, draw(st.dictionaries(exps, NONZERO, min_size=1,
                                                             max_size=3))))
    p = draw(sliced_polys(nvars, touched, rest))
    q = _sum(*(draw(sliced_polys(nvars, touched, rest)) for _ in range(draw(st.integers(2, 3)))))
    m_max = draw(st.integers(1, 4))
    _, _, q_parts, split = _gvc_plan(op, p, q, m_max)
    assume(split is None and len(q_parts) >= 2)  # the factored path
    return op, p, q, m_max


@SETTINGS
@given(factored_gvc_inputs())
def test_gvc_shortcut_matches_operator_application(case):
    op, p, q, m_max = case
    report = gvc_probe(op, p, q, m_max)
    assert (report.hypothesis_violations, report.conclusion_violations) == \
        gvc_by_operator_application(op, p, q, m_max)


@st.composite
def two_slice_gvc_inputs(draw):
    """An operator in x1 alone and p = x2^a f(x1) + x3^b g(x1) with f and g
    not rational multiples of each other: two distinct slices."""
    symbol, f, g = (draw(st.dictionaries(st.integers(0, 3), NONZERO, min_size=1, max_size=3))
                    for _ in range(3))
    op = ConstCoeffOp(MultiPolyQ(3, {(e, 0, 0): c for e, c in symbol.items()}))
    a, b = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    p = _sum(MultiPolyQ(3, {(e, a, 0): c for e, c in f.items()}),
             MultiPolyQ(3, {(e, 0, b): c for e, c in g.items()}))
    return op, p, draw(multipolys(3, 2, min_terms=0, max_terms=2)), draw(st.integers(1, 5))


@SETTINGS
@given(two_slice_gvc_inputs())
def test_a_p_with_two_slices_stays_on_the_general_path(case):
    op, p, q, m_max = case
    split = ((0,), (1, 2))  # unless the operator is a constant
    assume(any(exps[0] for exps in op.symbol_poly.terms))
    assume(len(list(_slices(_integer_terms(p), *split))) == 2)
    assert _gvc_plan(op, p, q, m_max)[3] == split  # the sliced path
    report = gvc_probe(op, p, q, m_max)
    assert (report.hypothesis_violations, report.conclusion_violations) == \
        gvc_by_operator_application(op, p, q, m_max)


@st.composite
def moment_polys(draw):
    """Rational coefficients, possibly the zero polynomial."""
    return Poly(draw(st.lists(RATIONAL, max_size=5)))


@SETTINGS
@given(st.sampled_from(("unit", "exp")), moment_polys(), st.integers(0, 9))
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
        unit = power_moment("unit", f, m)
        assert unit == power_moment_by_expansion("unit", f, m)
        assert (unit == 0) == (m % 2 == 1)
    assert power_moment("exp", Poly((-1, 1)), 1) == 0
    for rule in ("unit", "exp"):
        assert power_moment(rule, Poly(), 0) == 1
        assert power_moment(rule, Poly(), 3) == 0


@st.composite
def zx_pairs(draw):
    """Two polynomials over F_p, p in {2, 3, 5}, in 1-3 variable pairs."""
    p, n = draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, p + 1)] * n)
    terms = st.lists(st.tuples(st.tuples(exps, exps), st.integers(1, p - 1)), max_size=4)
    return ZXPoly(n, p, draw(terms)), ZXPoly(n, p, draw(terms))


def _public(f: ZXPoly) -> ZXPoly:
    """f rebuilt through the public constructor, with every check."""
    return ZXPoly(f.nvars, f.modulus, f.terms)


def _is_valid(f: ZXPoly) -> bool:
    return all(len(z) == len(x) == f.nvars and min(z + x, default=0) >= 0
               and 0 < c < f.modulus for (z, x), c in f.terms.items())


@SETTINGS
@given(zx_pairs())
def test_derived_zxpoly_results_match_the_public_constructor(pair):
    """Arithmetic results skip the public constructor's checks; each must
    be the polynomial that constructor builds from the same terms, with
    residues in [1, p), and equal to the result formed through it."""
    f, g = pair
    n, p = f.nvars, f.modulus
    expected = {
        "sum": ZXPoly(n, p, [*f.terms.items(), *g.terms.items()]),
        "negation": ZXPoly(n, p, {k: -c for k, c in f.terms.items()}),
        "product": ZXPoly(n, p, [((add_tuples(z1, z2), add_tuples(x1, x2)), c1 * c2)
                                 for (z1, x1), c1 in f.terms.items()
                                 for (z2, x2), c2 in g.terms.items()]),
        "frobenius": ZXPoly(n, p, {(tuple(e * p for e in z), tuple(e * p for e in x)): c
                                   for (z, x), c in f.terms.items()}),
    }
    derived = {"sum": f + g, "negation": -f, "product": f * g, "frobenius": f.frobenius()}
    for i in range(n):
        derived[f"partial {i}"] = f.partial_x(i)
        expected[f"partial {i}"] = ZXPoly(n, p, [
            ((z, x[:i] + (x[i] - 1,) + x[i + 1:]), c * x[i])
            for (z, x), c in f.terms.items() if x[i]])
        derived[f"shift {i}"] = f.shift_zeta(i)
        expected[f"shift {i}"] = ZXPoly(n, p, [
            ((z[:i] + (z[i] + 1,) + z[i + 1:], x), c) for (z, x), c in f.terms.items()])
        derived[f"apply_d {i}"] = apply_d(i, f)
        expected[f"apply_d {i}"] = _public(derived[f"partial {i}"]) - _public(derived[f"shift {i}"])
    derived["power"] = f**3
    expected["power"] = _public(f * f) * f
    for name, result in derived.items():
        assert _is_valid(result), name
        assert result == _public(result) == expected[name], name
    for certificate in (imd_decide(f), j_ideal_witness(f)):
        for preimage in getattr(certificate, "preimages", ()):
            assert _is_valid(preimage)
            assert preimage == _public(preimage)
