"""End-to-end acceptance battery: ten exact-arithmetic checks, one printed
pass/fail line each.  Run with -s to see the lines."""

import math
import random
from fractions import Fraction
from itertools import permutations

from mzspaces.certificates import certify_unit_interval, power_moment
from mzspaces.functionals import evaluate
from mzspaces.imagep import ImDCertificate, ObstructionReport, ZXPoly, apply_d, imd_decide
from mzspaces.mzdecide import decide_mz, oracle_decide_mz
from mzspaces.probes import (
    ConstCoeffOp,
    MatrixQ,
    MultiPolyQ,
    gvc_probe,
    laurent_mz_class,
    trace_radical_test,
)
from mzspaces.quotient import crt_idempotents
from mzspaces.scalars import padic_valuation
from mzspaces.selftest import (
    random_normalized_spec,
    random_root_data,
    random_zxpoly,
)
from mzspaces.upoly import Poly


def _report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} {label}: {detail}")
    assert ok, f"criterion {number} {label}: {detail}"


def test_criterion_01_decision_matches_oracle():
    rng = random.Random(1001)
    agreements = 0
    total = 200
    for _ in range(total):
        spec = random_normalized_spec(rng)
        if decide_mz(spec).is_mz == oracle_decide_mz(spec):
            agreements += 1
    _report(1, "subset criterion vs idempotent oracle", agreements == total,
            f"{agreements}/{total} seeded specs agree")


def test_criterion_02_sign_difference_witness():
    from mzspaces.functionals import FunctionalNF
    from mzspaces.mzdecide import SubspaceSpec, normalize
    from mzspaces.upoly import RootData

    roots = RootData([(Fraction(1), 1), (Fraction(-1), 1)])
    fn = FunctionalNF(roots, parts={Fraction(1): Poly([1]), Fraction(-1): Poly([-1])})
    spec = normalize(SubspaceSpec([fn]))
    verdict = decide_mz(spec)
    checks = []
    checks.append(not verdict.is_mz)
    checks.append(set(verdict.witness_subset) == {Fraction(1), Fraction(-1)})
    checks.append(verdict.witness_idempotent == Poly([1]))
    # Re-verify by direct evaluation, independent of the decider.
    checks.append(evaluate(fn, verdict.witness_idempotent) == 0)
    product = verdict.witness_multiplier * verdict.witness_idempotent
    checks.append(evaluate(fn, product) != 0)
    _report(2, "sign-difference witness", all(checks),
            f"verdict false, subset {{1,-1}}, idempotent 1, multiplier value "
            f"{evaluate(fn, product)}")


def test_criterion_03_unit_interval_certificates():
    cases = [Poly([Fraction(-1, 2), 1]), Poly([1, 1, 1]), Poly([2, -1, 0, 1])]
    found = []
    ok = True
    for f in cases:
        cert = certify_unit_interval(f)
        value = power_moment("unit", f, cert.exponent)
        ok = ok and cert.exponent <= 500
        ok = ok and value == cert.value != 0
        ok = ok and padic_valuation(value, cert.prime) == -1
        found.append(f"(p={cert.prime}, m={cert.exponent})")
    _report(3, "unit-interval certificates", ok, ", ".join(found))


def test_criterion_04_derangement_moments():
    frozen = (1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961)
    t_minus_1 = Poly([-1, 1])
    ok = True
    for m in range(11):
        value = power_moment("exp", t_minus_1, m)
        ok = ok and value == frozen[m]
        if m <= 6:
            by_inclusion_exclusion = sum(
                (-1) ** k * math.comb(m, k) * math.factorial(m - k)
                for k in range(m + 1)
            )
            ok = ok and value == by_inclusion_exclusion
    _report(4, "derangement moments", ok, "m=0..10 frozen, m<=6 cross-checked")


def test_criterion_05_image_roundtrip_and_rejection():
    rng = random.Random(5005)
    accepted = 0
    for _ in range(200):
        p = rng.choice([2, 3])
        nvars = rng.choice([1, 2])
        b = ZXPoly.zero(nvars, p)
        for i in range(nvars):
            b = b + apply_d(i, random_zxpoly(rng, nvars, p, max_exp=2))
        result = imd_decide(b)
        if isinstance(result, ImDCertificate) and result.reconstruct() == b:
            accepted += 1
    rejected = 0
    for _ in range(50):
        p = rng.choice([2, 3])
        nvars = rng.choice([1, 2])
        b = random_zxpoly(rng, nvars, p, max_exp=2)
        top = (b.x_degree or 0) + 1
        xexp = tuple(top if i == 0 else 0 for i in range(nvars))
        b = b + ZXPoly.monomial(nvars, p, (0,) * nvars, xexp)
        result = imd_decide(b)
        if (isinstance(result, ObstructionReport)
                and all(e == 0 for e in result.zeta_exps)
                and sum(result.x_exps) == b.x_degree
                and b.terms.get((tuple(result.zeta_exps), tuple(result.x_exps)))
                == result.coefficient):
            rejected += 1
    ok = accepted == 200 and rejected == 50
    _report(5, "image membership round-trip", ok,
            f"{accepted}/200 members certified, {rejected}/50 units rejected")


def test_criterion_06_charp_theorem_boundary():
    rng = random.Random(6006)
    good = 0
    total = 50
    for _ in range(total):
        p = rng.choice([2, 3])
        nvars = rng.choice([1, 2])
        f = random_zxpoly(rng, nvars, p, max_terms=3, max_exp=1, in_ideal=True)
        g = random_zxpoly(rng, nvars, p, max_terms=2, max_exp=1)
        power_ok = isinstance(imd_decide(f ** p), ImDCertificate)
        boundary = imd_decide(g * f ** (p * p))
        boundary_ok = (isinstance(boundary, ImDCertificate)
                       and boundary.reconstruct() == g * f ** (p * p))
        if power_ok and boundary_ok:
            good += 1
    _report(6, "char-p theorem at the boundary power", good == total,
            f"{good}/{total} pairs accepted at m=p and m=p^2")


def test_criterion_07_trace_examples():
    one_hot_ok = 0
    positions = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for (i, j) in positions:
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        rows[i][j] = Fraction(1)
        c = MatrixQ(rows)
        report = trace_radical_test(c)
        fourth = c * c * c * c
        if report.in_radical and fourth.is_zero:
            one_hot_ok += 1
    rng = random.Random(7007)
    escapes = 0
    attempts = 0
    while attempts < 50:
        c = MatrixQ([[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                     for _ in range(4)])
        fourth = c * c * c * c
        if fourth.is_zero:
            continue  # only genuinely non-nilpotent samples count
        attempts += 1
        report = trace_radical_test(c)
        if not report.in_radical and any(t != 0 for t in report.traces):
            escapes += 1
    ok = one_hot_ok == 6 and escapes == 50
    _report(7, "power-trace nilpotency test", ok,
            f"{one_hot_ok}/6 patterns in radical, {escapes}/50 non-nilpotent flagged")


def test_criterion_08_laurent_classification():
    lams = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1),
            Fraction(1, 2), Fraction(7, 3)]
    expected = (False, True, False, False, True, True)
    got = tuple(laurent_mz_class(lam) for lam in lams)
    _report(8, "weighted-derivation image classification", got == expected,
            f"{got}")


def test_criterion_09_operator_power_probe():
    mixed = ConstCoeffOp(MultiPolyQ(2, {(1, 1): Fraction(1)}))
    x = MultiPolyQ.variable(2, 0)
    y = MultiPolyQ.variable(2, 1)
    report = gvc_probe(mixed, x + y, x, 12)
    first_ok = (report.hypothesis_violations == ()
                and report.conclusion_transition == 2)
    laplace = ConstCoeffOp(MultiPolyQ(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}))
    report2 = gvc_probe(laplace, x ** 2 + y ** 2, x, 4)
    second_ok = 1 in report2.hypothesis_violations
    _report(9, "operator power probe", first_ok and second_ok,
            "transition at m=2; squared-length input violates at m=1")


def test_criterion_10_idempotent_laws():
    rng = random.Random(10010)
    ok_rings = 0
    total = 100
    for _ in range(total):
        roots = random_root_data(rng)
        f = roots.poly()
        items = list(crt_idempotents(roots).values())
        laws = all((e * e) % f == e for e in items)
        laws = laws and sum(items, Poly()) == Poly([1])
        for a_idx in range(len(items)):
            for b_idx in range(a_idx + 1, len(items)):
                laws = laws and ((items[a_idx] * items[b_idx]) % f).is_zero
        if laws:
            ok_rings += 1
    _report(10, "idempotent laws", ok_rings == total,
            f"{ok_rings}/{total} split moduli verified")
