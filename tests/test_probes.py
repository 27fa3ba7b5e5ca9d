import random
from fractions import Fraction
from itertools import permutations

import pytest

from mzspaces import probes
from mzspaces.errors import DomainError
from mzspaces.probes import (
    ConstCoeffOp,
    MatrixQ,
    MultiPolyQ,
    gvc_probe,
    laurent_apply_op,
    laurent_image_membership,
    laurent_mz_class,
    laurent_preimage,
    radical_vminus1_membership,
    _slices,
    trace_radical_test,
)
from mzspaces.sparse import LaurentPoly
from mzspaces.upoly import Poly


def _char_poly_by_permutation_expansion(matrix: MatrixQ) -> Poly:
    """det(tI - C) as an exact polynomial, summed over all permutations."""
    n = matrix.dimension
    entries = [[Poly([-matrix.rows[i][j], 1]) if i == j
                else Poly([-matrix.rows[i][j]])
                for j in range(n)] for i in range(n)]
    total = Poly([])
    for sigma in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if sigma[i] > sigma[j])
        term = Poly([1])
        for i in range(n):
            term = term * entries[i][sigma[i]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def _elementary(n, i, j, c):
    rows = [[Fraction(1) if a == b else Fraction(0) for b in range(n)]
            for a in range(n)]
    rows[i][j] = Fraction(c)
    return MatrixQ(rows)


def _dense_nilpotent(rng, n=4):
    """Conjugate a strictly upper triangular matrix by unimodular factors."""
    rows = [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
             for j in range(n)] for i in range(n)]
    m = MatrixQ(rows)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        m = _elementary(n, i, j, c) * m * _elementary(n, i, j, -c)
    return m


def test_matrix_basics():
    a = MatrixQ([[1, 2], [3, 4]])
    i2 = MatrixQ.identity(2)
    assert a * i2 == a
    assert i2 * a == a
    assert a.trace() == 5
    b = a * a
    assert b == MatrixQ([[7, 10], [15, 22]])
    with pytest.raises(DomainError):
        MatrixQ([[1, 2], [3]])


def test_upper_shift_is_in_radical():
    shift = MatrixQ([
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ])
    report = trace_radical_test(shift)
    assert report.in_radical
    assert report.traces == (0, 0, 0, 0)
    assert report.nilpotency_witness == 4


def test_identity_is_not_in_radical():
    report = trace_radical_test(MatrixQ.identity(3))
    assert not report.in_radical
    assert report.traces[0] == 3
    assert report.nilpotency_witness is None


def test_traceless_but_not_nilpotent():
    # Zero first trace is not enough; the higher power traces catch it.
    c = MatrixQ([[1, 0], [0, -1]])
    report = trace_radical_test(c)
    assert not report.in_radical
    assert report.traces == (0, 2)


def test_trace_verdict_agrees_with_charpoly_and_power():
    # Three-way agreement: vanishing power traces, characteristic polynomial
    # equal to t^n, and C^n = 0 are the same condition over Q.
    rng = random.Random(40403)
    cases = []
    for _ in range(25):
        cases.append(MatrixQ([[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                              for _ in range(4)]))
    for _ in range(25):
        cases.append(_dense_nilpotent(rng))
    seen_nilpotent = 0
    for c in cases:
        report = trace_radical_test(c)
        char = _char_poly_by_permutation_expansion(c)
        power = c
        for _ in range(3):
            power = power * c
        is_nilpotent = power.is_zero
        assert report.in_radical == is_nilpotent
        assert (char == Poly.monomial(4)) == is_nilpotent
        seen_nilpotent += is_nilpotent
    assert 0 < seen_nilpotent < len(cases)


def test_laurent_operator_action():
    lam = Fraction(3)
    g = LaurentPoly({-2: Fraction(5), 0: Fraction(1), 4: Fraction(-1)})
    out = laurent_apply_op(lam, g)
    assert out == LaurentPoly({-3: Fraction(5), -1: Fraction(3), 3: Fraction(-7)})


def test_laurent_membership_and_preimage_agree():
    rng = random.Random(60601)
    lams = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1),
            Fraction(1, 2), Fraction(7, 3), Fraction(-5, 4)]
    for _ in range(150):
        lam = rng.choice(lams)
        g = LaurentPoly({rng.randint(-5, 5): Fraction(rng.randint(-4, 4))
                         for _ in range(rng.randint(0, 4))})
        member = laurent_image_membership(lam, g)
        pre = laurent_preimage(lam, g)
        assert member == (pre is not None)
        if pre is not None:
            assert laurent_apply_op(lam, pre) == g


def test_laurent_obstruction_is_the_residue_coefficient():
    lam = Fraction(2)
    blocked = LaurentPoly({-3: Fraction(1)})  # t^(-lam-1)
    assert not laurent_image_membership(lam, blocked)
    assert laurent_preimage(lam, blocked) is None
    passing = LaurentPoly({-2: Fraction(1), 0: Fraction(4)})
    assert laurent_image_membership(lam, passing)


def test_laurent_mz_classification_frozen():
    table = [
        (Fraction(-2), False),
        (Fraction(-1), True),
        (Fraction(0), False),
        (Fraction(1), False),
        (Fraction(1, 2), True),
        (Fraction(7, 3), True),
    ]
    for lam, expected in table:
        assert laurent_mz_class(lam) == expected, lam


def test_radical_of_the_special_image():
    assert radical_vminus1_membership(LaurentPoly({}))
    assert radical_vminus1_membership(LaurentPoly({1: Fraction(1), 5: Fraction(2)}))
    assert radical_vminus1_membership(LaurentPoly({-1: Fraction(1), -3: Fraction(2)}))
    assert not radical_vminus1_membership(LaurentPoly({0: Fraction(1)}))
    assert not radical_vminus1_membership(LaurentPoly({-1: Fraction(1), 2: Fraction(1)}))
    # One-sided elements really keep every power inside the image.
    g = LaurentPoly({1: Fraction(2), 3: Fraction(-1)})
    power = LaurentPoly({0: Fraction(1)})
    for _ in range(6):
        power = power * g
        assert laurent_image_membership(Fraction(-1), power)
    # A mixed-support element escapes at some power.
    h = LaurentPoly({-1: Fraction(1), 1: Fraction(1)})
    escaped = False
    power = LaurentPoly({0: Fraction(1)})
    for _ in range(6):
        power = power * h
        if not laurent_image_membership(Fraction(-1), power):
            escaped = True
    assert escaped


def _x_plus_y():
    return (MultiPolyQ.variable(2, 0) + MultiPolyQ.variable(2, 1))


def test_multipoly_and_operator_basics():
    x = MultiPolyQ.variable(2, 0)
    y = MultiPolyQ.variable(2, 1)
    f = (x + y) ** 2
    assert f.coefficient((1, 1)) == 2
    assert f.coefficient((2, 0)) == 1
    assert f.total_degree == 2
    mixed = ConstCoeffOp(MultiPolyQ(2, {(1, 1): Fraction(1)}))
    assert mixed.apply(f) == MultiPolyQ.constant(2, 2)
    laplace = ConstCoeffOp(MultiPolyQ(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}))
    assert laplace.apply(x ** 2 + y ** 2) == MultiPolyQ.constant(2, 4)
    assert laplace.apply(x * y).is_zero


def test_operator_application_is_linear_and_composes():
    rng = random.Random(11011)
    dx = ConstCoeffOp(MultiPolyQ(2, {(1, 0): Fraction(1)}))
    dy = ConstCoeffOp(MultiPolyQ(2, {(0, 1): Fraction(1)}))
    mixed = ConstCoeffOp(MultiPolyQ(2, {(1, 1): Fraction(1)}))
    for _ in range(40):
        f = MultiPolyQ(2, {(rng.randint(0, 3), rng.randint(0, 3)):
                           Fraction(rng.randint(-4, 4)) for _ in range(4)})
        g = MultiPolyQ(2, {(rng.randint(0, 3), rng.randint(0, 3)):
                           Fraction(rng.randint(-4, 4)) for _ in range(4)})
        assert mixed.apply(f + g) == mixed.apply(f) + mixed.apply(g)
        assert mixed.apply(f) == dx.apply(dy.apply(f))
        assert dx.apply(dy.apply(f)) == dy.apply(dx.apply(f))


def test_gvc_probe_mixed_derivative_frozen():
    op = ConstCoeffOp(MultiPolyQ(2, {(1, 1): Fraction(1)}))
    q = MultiPolyQ.variable(2, 0)
    report = gvc_probe(op, _x_plus_y(), q, 12)
    assert report.m_max == 12
    assert report.hypothesis_violations == ()
    assert report.conclusion_violations == (1,)
    assert report.conclusion_transition == 2


def test_gvc_probe_laplacian_violates_hypothesis():
    laplace = ConstCoeffOp(MultiPolyQ(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}))
    x = MultiPolyQ.variable(2, 0)
    y = MultiPolyQ.variable(2, 1)
    report = gvc_probe(laplace, x ** 2 + y ** 2, x, 4)
    assert 1 in report.hypothesis_violations


def test_gvc_probe_trivial_conclusion_from_start():
    # Q = P makes the conclusion a shifted instance of the hypothesis.
    op = ConstCoeffOp(MultiPolyQ(2, {(1, 1): Fraction(1)}))
    p = _x_plus_y()
    report = gvc_probe(op, p, MultiPolyQ.constant(2, 0), 6)
    assert report.conclusion_violations == ()
    assert report.conclusion_transition == 1


def test_gvc_probe_open_ended_when_last_m_violates():
    laplace = ConstCoeffOp(MultiPolyQ(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}))
    x = MultiPolyQ.variable(2, 0)
    y = MultiPolyQ.variable(2, 1)
    # Q = P = x^2+y^2: conclusion fails at every m, so no transition exists.
    report = gvc_probe(laplace, x ** 2 + y ** 2, x ** 2 + y ** 2, 3)
    assert report.conclusion_transition is None


def test_gvc_probe_on_slices_keeps_signs():
    # The Laplacian in x1, x2 leaves x3 alone.  (x1^2 - x2^2)^m changes sign
    # when x1 and x2 are swapped for odd m, and the Laplacian commutes with
    # that swap, so its m-th power kills the m-th power exactly for odd m.
    x1, x2, x3 = (MultiPolyQ.variable(3, i) for i in range(3))
    laplace = ConstCoeffOp(MultiPolyQ(3, {(2, 0, 0): 1, (0, 2, 0): 1}))
    report = gvc_probe(laplace, x3 * (x1 * x1 - x2 * x2), x3 * x3, 4)
    assert report.hypothesis_violations == report.conclusion_violations == (2, 4)
    assert gvc_probe(laplace, x3 * (x1 * x1 + x2 * x2), x3, 3).hypothesis_violations == (1, 2, 3)


def test_gvc_probe_constant_and_zero_operators():
    # Neither touches a variable: a nonzero constant kills nothing nonzero,
    # and the zero operator kills everything.
    p, q = MultiPolyQ.variable(2, 0), MultiPolyQ.variable(2, 1)
    report = gvc_probe(ConstCoeffOp(MultiPolyQ.constant(2, Fraction(5, 2))), p, q, 3)
    assert (report.hypothesis_violations, report.conclusion_violations) == ((1, 2, 3), (1, 2, 3))
    report = gvc_probe(ConstCoeffOp(MultiPolyQ(2)), p, q, 3)
    assert (report.hypothesis_violations, report.conclusion_violations) == ((), ())


def test_slices_differing_by_an_integer_factor_come_once():
    # x3^5 (x1^2 - x2^2) - 3 x3 (x1^2 - x2^2) + 4 x3^7 over (x1, x2): two
    # slices, each divided by its content with its least term made positive.
    f = {(2, 0, 5): 1, (0, 2, 5): -1, (2, 0, 1): -3, (0, 2, 1): 3, (0, 0, 7): 4}
    assert list(_slices(f, (0, 1), (2,))) == [{(0, 2): 1, (2, 0): -1}, {(0, 0): 1}]


def test_gvc_probe_rejects_bad_m_max():
    op = ConstCoeffOp(MultiPolyQ(2, {(1, 1): Fraction(1)}))
    with pytest.raises(DomainError):
        gvc_probe(op, _x_plus_y(), _x_plus_y(), 0)


def _gvc_meter_cases():
    """(op, p, q, m_max) on each path of the kill tests: the whole power, p
    with two slices over the variables the operator touches, and p with
    one (p = x3 s(x1, x2))."""
    x1, x2, x3 = (MultiPolyQ.variable(3, i) for i in range(3))
    laplace = ConstCoeffOp(MultiPolyQ(3, {(2, 0, 0): 1, (0, 2, 0): 1}))
    return {
        "whole": (ConstCoeffOp(MultiPolyQ(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})),
                  x1 * x1 + x2 * x3 - x3.scale(Fraction(1, 2)), x1 + x2, 6),
        "sliced": (laplace, x3 * (x1 * x1 - x2 * x2) + x1 * x2, x3, 6),
        "factored": (laplace, x3 * (x1 * x1 + x1 * x2), x3 * x1 + x2, 6),
    }


GVC_METER_CASES = _gvc_meter_cases()


@pytest.mark.parametrize("case", GVC_METER_CASES)
def test_gvc_meter_charges_before_it_spends(monkeypatch, case):
    """The operator applications and products that run, charged as the
    meter charges them, cost what a whole run costs when the budget admits
    it and never more than the budget when it stops the run; a run stops
    at the same m, having spent the same, every time."""
    op, p, q, m_max = GVC_METER_CASES[case]
    spent = [0]
    apply, times = probes._int_apply, probes.mul

    def bits(f):
        return max(map(abs, f.values()), default=0).bit_length()

    def counted_apply(symbol, f):
        spent[0] += len(f) * len(symbol) * (probes.GVC_OP_BITS + bits(f))
        return apply(symbol, f)

    def counted_mul(a, b, add_keys):
        spent[0] += len(a) * len(b) * (probes.GVC_OP_BITS + bits(a) + bits(b))
        return times(a, b, add_keys)

    monkeypatch.setattr(probes, "_int_apply", counted_apply)
    monkeypatch.setattr(probes, "mul", counted_mul)
    report = gvc_probe(op, p, q, m_max)
    total = spent[0]
    monkeypatch.setattr(probes, "GVC_MAX_COST", total)
    spent[0] = 0
    assert gvc_probe(op, p, q, m_max) == report and spent[0] == total
    for budget in (total - 1, total // 2, total // 5):
        monkeypatch.setattr(probes, "GVC_MAX_COST", budget)
        stops = []
        for _ in range(2):
            spent[0] = 0
            with pytest.raises(DomainError, match=f"cost budget {budget} at m = ") as stop:
                gvc_probe(op, p, q, m_max)
            assert spent[0] <= budget
            stops.append((str(stop.value), spent[0]))
        assert stops[0] == stops[1]
