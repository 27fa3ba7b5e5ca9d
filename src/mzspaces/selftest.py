"""Seeded invariant battery behind `mz selftest`, plus the random instance
generators it shares with the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .certificates import certify_unit_interval, power_moment
from .errors import DomainError
from .functionals import FunctionalNF, _moments, evaluate, from_moments, to_moments
from .imagep import ImDCertificate, ZXPoly, apply_d, imd_decide, j_ideal_witness
from .mzdecide import SubspaceSpec, decide_mz, normalize, oracle_decide_mz
from .probes import (
    ConstCoeffOp,
    MatrixQ,
    MultiPolyQ,
    gvc_probe,
    laurent_apply_op,
    laurent_image_membership,
    laurent_preimage,
    trace_radical_test,
)
from .quotient import all_idempotents, crt_idempotents
from .scalars import padic_valuation, scalar_inverse
from .sparse import LaurentPoly
from .upoly import Poly, RootData, apply_der_op, apply_euler_op, extended_gcd


# ---------------------------------------------------------------------------
# random instance generators (shared with the test suite)

def random_rational(rng: random.Random, lo=-5, hi=5, max_den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_nonzero_rational(rng: random.Random, lo=-5, hi=5, max_den=3) -> Fraction:
    while True:
        q = random_rational(rng, lo, hi, max_den)
        if q != 0:
            return q


def random_poly(rng: random.Random, max_degree=4, lo=-5, hi=5, nonzero=False) -> Poly:
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(degree + 1)]
    p = Poly(coeffs)
    if nonzero and p.is_zero:
        return Poly((Fraction(rng.randint(1, hi)),))
    return p


def random_root_data(rng: random.Random, max_roots=3, max_mult=3) -> RootData:
    count = rng.randint(1, max_roots)
    roots = []
    while len(roots) < count:
        lam = random_rational(rng, -4, 4, 2)
        if all(lam != seen for seen, _ in roots):
            roots.append((lam, rng.randint(1, max_mult)))
    return RootData(roots)


def random_functional(rng: random.Random, roots: RootData) -> FunctionalNF:
    while True:
        zero_part = Poly()
        parts = {}
        for lam, mult in roots:
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, mult))]
            op = Poly(coeffs)
            if op.is_zero:
                continue
            if lam == 0:
                zero_part = op
            else:
                parts[lam] = op
        fn = FunctionalNF(roots, zero_part, parts)
        if not fn.is_zero:
            return fn


def random_normalized_spec(rng: random.Random, max_roots=3, max_mult=3,
                           max_functionals=3) -> SubspaceSpec:
    while True:
        roots = random_root_data(rng, max_roots, max_mult)
        fns = [random_functional(rng, roots) for _ in range(rng.randint(1, max_functionals))]
        try:
            return normalize(SubspaceSpec(fns))
        except DomainError:
            continue


def random_zxpoly(rng: random.Random, nvars: int, modulus: int, max_terms=4,
                  max_exp=2, in_ideal=False) -> ZXPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        zexp = [rng.randint(0, max_exp) for _ in range(nvars)]
        if in_ideal and all(e == 0 for e in zexp):
            zexp[rng.randrange(nvars)] = rng.randint(1, max_exp)
        xexp = [rng.randint(0, max_exp) for _ in range(nvars)]
        key = (tuple(zexp), tuple(xexp))
        terms[key] = terms.get(key, 0) + rng.randint(1, modulus - 1)
    return ZXPoly(nvars, modulus, terms)


def random_matrix(rng: random.Random, n=4, lo=-3, hi=3) -> MatrixQ:
    return MatrixQ([[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])


# ---------------------------------------------------------------------------
# invariant checks

def _check_valuation_laws(rng):
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        x = random_nonzero_rational(rng, -20, 20, 12)
        y = random_nonzero_rational(rng, -20, 20, 12)
        assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)
        if x + y != 0:
            lhs = padic_valuation(x + y, p)
            low = min(padic_valuation(x, p), padic_valuation(y, p))
            assert lhs >= low
            if padic_valuation(x, p) != padic_valuation(y, p):
                assert lhs == low


def _check_extended_gcd(rng):
    for _ in range(100):
        a = random_poly(rng, 5, nonzero=True)
        b = random_poly(rng, 5, nonzero=True)
        u, v, g = extended_gcd(a, b)
        assert u * a + v * b == g
        assert (a % g).is_zero and (b % g).is_zero
        assert g.lead == 1


def evaluate_by_operators(functional: FunctionalNF, g: Poly):
    """L(g) by applying each operator polynomial to g and evaluating at its
    root: the reference for the closed form behind `evaluate`."""
    total = apply_der_op(functional.zero_part, g)(0)
    for lam, op in functional.parts.items():
        total = total + apply_euler_op(op, g)(lam)
    return total


# Roots 0, 2 and -1/2, each with an operator of the top allowed degree.
_FROZEN_ROOTS = RootData([(Fraction(0), 3), (Fraction(2), 2), (Fraction(-1, 2), 3)])
_FROZEN_FUNCTIONAL = FunctionalNF(
    _FROZEN_ROOTS,
    Poly((Fraction(1), Fraction(-2), Fraction(3, 2))),
    {Fraction(2): Poly((Fraction(1, 3), Fraction(1))),
     Fraction(-1, 2): Poly((Fraction(-1), Fraction(0), Fraction(2)))},
)


def traces_by_matrix_powers(matrix: MatrixQ):
    """(power traces, least vanishing power or None) from the rational
    MatrixQ power loop: the reference for `trace_radical_test`."""
    powers = [matrix]
    for _ in range(matrix.dimension - 1):
        powers.append(powers[-1] * matrix)
    witness = next((m + 1 for m, power in enumerate(powers) if power.is_zero), None)
    return tuple(power.trace() for power in powers), witness


def gvc_by_operator_application(op: ConstCoeffOp, p: MultiPolyQ, q: MultiPolyQ, m_max: int):
    """(hypothesis violations, conclusion violations) by applying op m times
    to the rational MultiPolyQ p^m and q*p^m: the reference for `gvc_probe`."""
    violations = ([], [])
    p_power = MultiPolyQ.constant(p.nvars, 1)
    for m in range(1, m_max + 1):
        p_power = p_power * p
        for target, found in zip((p_power, q * p_power), violations):
            for _ in range(m):
                target = op.apply(target)
            if not target.is_zero:
                found.append(m)
    return tuple(violations[0]), tuple(violations[1])


def power_moment_by_expansion(rule: str, f: Poly, power: int) -> Fraction:
    """The moment of f**power from `Poly.__pow__`, term by term, with t^i
    sent to 1/(i+1) (rule "unit") or i! (rule "exp"): the reference for
    `power_moment`."""
    moment = (lambda i: Fraction(1, i + 1)) if rule == "unit" else factorial
    return sum((c * moment(i) for i, c in enumerate((f**power).coeffs)), Fraction(0))


def oracle_by_enumeration(spec: SubspaceSpec) -> bool:
    """Every idempotent e of k[t]/(f) from `all_idempotents`; one inside the
    kernel must keep each shift t^j e mod f, j < deg f, inside it: the
    reference for `oracle_decide_mz`."""
    f = spec.roots.poly()
    for e in all_idempotents(spec.roots):
        if any(evaluate(fn, e) != 0 for fn in spec.functionals):
            continue
        for _ in range(spec.roots.degree):
            if any(evaluate(fn, e) != 0 for fn in spec.functionals):
                return False
            e = (e * Poly.monomial(1)) % f
    return True


def _check_point_evaluation_laws(rng):
    for _ in range(50):
        lam = random_nonzero_rational(rng, -4, 4, 2)
        i = rng.randint(1, 3)
        j = rng.randint(i + 1, i + 3)
        u = random_poly(rng, 3)
        annihilated = Poly((-lam, 1)) ** j * u
        assert apply_euler_op(Poly.monomial(i), annihilated)(lam) == 0
        shifted = Poly.monomial(j) * u
        assert apply_der_op(Poly.monomial(i), shifted)(0) == 0


def _check_idempotent_laws(rng):
    for _ in range(30):
        roots = random_root_data(rng)
        f = roots.poly()
        items = list(crt_idempotents(roots).values())
        for e in items:
            assert (e * e) % f == e
        assert sum(items, Poly()) == Poly((1,))
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                assert ((items[i] * items[j]) % f).is_zero
        assert sum(1 for _ in all_idempotents(roots)) == 2 ** len(roots)


def _check_moment_roundtrip(rng):
    for _ in range(30):
        roots = random_root_data(rng)
        fn = random_functional(rng, roots)
        assert from_moments(to_moments(fn, roots.degree), roots) == fn


def _check_closed_form_moments(rng):
    count = _FROZEN_ROOTS.degree + 4
    expected = tuple(evaluate_by_operators(_FROZEN_FUNCTIONAL, Poly.monomial(n))
                     for n in range(count))
    assert to_moments(_FROZEN_FUNCTIONAL, count) == expected
    for _ in range(10):
        g = random_poly(rng, count + 4)
        assert evaluate(_FROZEN_FUNCTIONAL, g) == evaluate_by_operators(_FROZEN_FUNCTIONAL, g)


# Roots 0, 2, -1/2 and 5/3, the int 2 among Fractions.  The constant terms
# of the first two functionals both cancel over {2, -1/2} and over no other
# subset; those of the first and the third never both cancel.
_INTEGER_ROOTS = RootData([(Fraction(0), 3), (2, 2), (Fraction(-1, 2), 3),
                           (Fraction(5, 3), 2)])
_INTEGER_FUNCTIONALS = (
    FunctionalNF(_INTEGER_ROOTS, Poly((1, Fraction(-2), Fraction(3, 2))),
                 {2: Poly((1, Fraction(1, 3))), Fraction(-1, 2): Poly((-1, 0, 2)),
                  Fraction(5, 3): Poly((Fraction(7, 2), -1))}),
    FunctionalNF(_INTEGER_ROOTS, Poly((Fraction(-4, 9),)),
                 {2: Poly((Fraction(3, 2),)), Fraction(-1, 2): Poly((Fraction(-3, 2), 1)),
                  Fraction(5, 3): Poly((2, 0))}),
    FunctionalNF(_INTEGER_ROOTS, Poly((Fraction(-4, 9),)),
                 {2: Poly((Fraction(5, 2),)), Fraction(-1, 2): Poly((Fraction(-3, 2), 1)),
                  Fraction(5, 3): Poly((2, 0))}),
)


def modulus_by_field_arithmetic(roots: RootData) -> Poly:
    """prod (t - root)^mult by `Poly` products: the reference for
    `RootData.poly`."""
    out = Poly((1,))
    for lam, m in roots:
        out = out * Poly((-lam, 1)) ** m
    return out


def idempotent_by_field_arithmetic(modulus: Poly, lam, mult: int) -> Poly:
    """The root idempotent of lam by field operations on the rational
    coefficients: the cofactor and its Taylor coefficients at lam by `Poly`
    division by t - lam, the series inverse divided by its constant term:
    the reference for `quotient.integer_idempotent` and `crt_idempotents`."""
    linear = Poly((-lam, 1))
    cofactor = modulus
    for _ in range(mult):
        cofactor, rem = divmod(cofactor, linear)
        if not rem.is_zero:
            raise AssertionError("modulus is divisible by each root factor")
    taylor = []
    work = cofactor
    for _ in range(mult):
        work, rem = divmod(work, linear)
        taylor.append(rem.coefficient(0))
    inv_lead = scalar_inverse(taylor[0])
    series = [inv_lead]
    for k in range(1, mult):
        acc = sum(taylor[j] * series[k - j] for j in range(1, k + 1))
        series.append(-acc * inv_lead)
    inverse = Poly()
    for b in reversed(series):
        inverse = inverse * linear + Poly((b,))
    return inverse * cofactor


def moments_by_field_arithmetic(functional: FunctionalNF, count: int):
    """[L(t^n) for n < count] by the closed form in Q: a running power
    lam^n times P_lam(n) at each nonzero root, n! [P_0]_n at 0: the
    reference for `functionals.integer_moments`."""
    out = [0] * count
    factorial_n = 1
    for n, c in enumerate(functional.zero_part.coeffs[:count]):
        if n:
            factorial_n *= n
        out[n] = c * factorial_n
    for lam, op in functional.parts.items():
        power = 1
        for n in range(count):
            out[n] = out[n] + op(n) * power
            power = power * lam
    return out


def _check_integer_kernels(rng):
    roots = _INTEGER_ROOTS
    f = roots.poly()
    assert f == modulus_by_field_arithmetic(roots)
    idempotents = crt_idempotents(roots)
    for lam, mult in roots:
        assert idempotents[lam] == idempotent_by_field_arithmetic(f, lam, mult)
    for fn in _INTEGER_FUNCTIONALS:
        for count in (0, 1, roots.degree + 4):
            assert _moments(fn, count) == moments_by_field_arithmetic(fn, count)
        assert evaluate(fn, Poly()) == 0
        assert from_moments(to_moments(fn, roots.degree), roots) == fn
    first, second, third = _INTEGER_FUNCTIONALS
    planted = normalize(SubspaceSpec((first, second)))
    mz = normalize(SubspaceSpec((first, third)))
    for spec, verdict in ((planted, False), (mz, True)):
        assert decide_mz(spec).is_mz is verdict
        assert oracle_decide_mz(spec) is verdict
        assert oracle_by_enumeration(spec) is verdict


def _check_kernel_law(rng):
    for _ in range(20):
        roots = random_root_data(rng)
        fn = random_functional(rng, roots)
        g = random_poly(rng, 6)
        assert evaluate(fn, g * roots.poly()) == 0


def _check_decision_agreement(rng):
    for _ in range(50):
        spec = random_normalized_spec(rng)
        verdict = decide_mz(spec)
        assert verdict.is_mz == oracle_decide_mz(spec)
        if not verdict.is_mz:
            g = verdict.witness_idempotent
            f = spec.roots.poly()
            assert ((g * g) % f) == (g % f)
            assert all(v == 0 for v in (evaluate(fn, g) for fn in spec.functionals))
            product = (verdict.witness_multiplier * g) % f
            assert any(evaluate(fn, product) != 0 for fn in spec.functionals)


def _check_certificates(rng):
    derangements = [1, 0, 1, 2, 9, 44, 265, 1854, 14833]
    for m, expected in enumerate(derangements):
        assert power_moment("exp", Poly((-1, 1)), m) == expected
    for coeffs in [(Fraction(-1, 2), 1), (1, 1, 1), (2, -1, 0, 1)]:
        cert = certify_unit_interval(Poly(coeffs))
        assert cert.exponent <= 500
        assert padic_valuation(cert.value, cert.prime) == -1


def _check_trace_probe(rng):
    for _ in range(10):
        strict = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                strict[i][j] = Fraction(rng.randint(-3, 3))
        report = trace_radical_test(MatrixQ(strict))
        assert report.in_radical and report.nilpotency_witness is not None
    for _ in range(10):
        m = random_matrix(rng)
        power4 = m * m * m * m
        if not power4.is_zero:
            assert not trace_radical_test(m).in_radical


def _check_probe_kernels(rng):
    half, third = Fraction(1, 2), Fraction(1, 3)
    # A rational nilpotent of index 3, conjugated by I + E_20/3, and a
    # traceless non-nilpotent rational matrix.
    strict = MatrixQ([[0, half, -1], [0, 0, Fraction(2, 3)], [0, 0, 0]])
    conj = MatrixQ([[1, 0, 0], [0, 1, 0], [third, 0, 1]])
    conj_inv = MatrixQ([[1, 0, 0], [0, 1, 0], [-third, 0, 1]])
    for matrix, witness in ((conj * strict * conj_inv, 3),
                            (MatrixQ([[half, 1], [third, -half]]), None)):
        report = trace_radical_test(matrix)
        assert (report.traces, report.nilpotency_witness) == traces_by_matrix_powers(matrix)
        assert report.nilpotency_witness == witness
    # (1/2) d1 d2 - (2/3) d1^2 on p = x/3 + (3/2) y^2, q = (5/7) x y: the
    # hypothesis holds for every m, the conclusion fails for m = 1..3 only.
    op = ConstCoeffOp(MultiPolyQ(2, {(1, 1): half, (2, 0): Fraction(-2, 3)}))
    p = MultiPolyQ(2, {(1, 0): third, (0, 2): Fraction(3, 2)})
    q = MultiPolyQ(2, {(1, 1): Fraction(5, 7)})
    report = gvc_probe(op, p, q, 5)
    assert (report.hypothesis_violations, report.conclusion_violations) == ((), (1, 2, 3))
    assert gvc_by_operator_application(op, p, q, 5) == ((), (1, 2, 3))
    f = Poly((Fraction(1, 3), Fraction(-1, 2), 1))
    for rule in ("unit", "exp"):
        for power in range(6):
            assert power_moment(rule, f, power) == power_moment_by_expansion(rule, f, power)


def _check_laurent_probe(rng):
    for _ in range(20):
        lam = rng.choice([Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(7, 3)])
        g = LaurentPoly({rng.randint(-4, 4): Fraction(rng.randint(-5, 5)) for _ in range(3)})
        member = laurent_image_membership(lam, g)
        h = laurent_preimage(lam, g)
        assert member == (h is not None)
        if h is not None:
            assert laurent_apply_op(lam, h) == g


def _check_gvc_probe(rng):
    op = ConstCoeffOp(MultiPolyQ(2, {(1, 1): Fraction(1)}))
    p = MultiPolyQ(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    q = MultiPolyQ(2, {(1, 0): Fraction(1)})
    report = gvc_probe(op, p, q, 6)
    assert report.hypothesis_violations == ()
    assert report.conclusion_violations == (1,)
    assert report.conclusion_transition == 2


def _check_image_roundtrip(rng):
    for _ in range(50):
        nvars = rng.randint(1, 2)
        p = rng.choice([2, 3])
        qs = [random_zxpoly(rng, nvars, p) for _ in range(nvars)]
        b = ZXPoly.zero(nvars, p)
        for i, q in enumerate(qs):
            b = b + apply_d(i, q)
        result = imd_decide(b)
        assert isinstance(result, ImDCertificate)
        assert result.reconstruct() == b


def _check_image_theorem(rng):
    from .imagep import charp_theorem_check

    for _ in range(10):
        nvars = rng.randint(1, 2)
        p = rng.choice([2, 3])
        f = random_zxpoly(rng, nvars, p, max_terms=3, max_exp=1, in_ideal=True)
        g = random_zxpoly(rng, nvars, p, max_terms=2, max_exp=1)
        report = charp_theorem_check(f, g)
        assert report.hypothesis_holds and report.conclusion_holds
        witness = j_ideal_witness(f**p)
        assert witness is not None and witness.reconstruct() == f**p


_CHECKS = (
    ("valuation-laws", _check_valuation_laws),
    ("extended-gcd", _check_extended_gcd),
    ("point-evaluation-laws", _check_point_evaluation_laws),
    ("idempotent-laws", _check_idempotent_laws),
    ("closed-form-moments", _check_closed_form_moments),
    ("moment-roundtrip", _check_moment_roundtrip),
    ("integer-kernels", _check_integer_kernels),
    ("kernel-law", _check_kernel_law),
    ("decision-agreement", _check_decision_agreement),
    ("certificates", _check_certificates),
    ("trace-probe", _check_trace_probe),
    ("probe-kernels", _check_probe_kernels),
    ("laurent-probe", _check_laurent_probe),
    ("gvc-probe", _check_gvc_probe),
    ("image-roundtrip", _check_image_roundtrip),
    ("image-theorem", _check_image_theorem),
)


def run_selftest(seed: int):
    """Run every invariant check with its own derived seed; returns
    (all_passed, per-check list)."""
    results = []
    passed = True
    for name, check in _CHECKS:
        rng = random.Random(f"{seed}:{name}")
        try:
            check(rng)
            results.append({"name": name, "ok": True})
        except AssertionError as exc:
            passed = False
            results.append({"name": name, "ok": False, "detail": str(exc) or "assertion failed"})
    return passed, results
