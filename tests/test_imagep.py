import random
from itertools import permutations

import pytest

from mzspaces.cli import zx_from_json, zx_to_json
from mzspaces.errors import DomainError
from mzspaces.imagep import (
    ImDCertificate,
    ObstructionReport,
    ZXPoly,
    apply_d,
    charp_theorem_check,
    imd_decide,
    j_ideal_witness,
)


def _random_zx(rng, nvars, p, max_terms=4, max_exp=2, in_ideal=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        zexp = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if in_ideal and all(e == 0 for e in zexp):
            slot = rng.randrange(nvars)
            zexp = tuple(e + (1 if i == slot else 0) for i, e in enumerate(zexp))
        xexp = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[(zexp, xexp)] = terms.get((zexp, xexp), 0) + rng.randint(1, p - 1)
    return ZXPoly(nvars, p, terms)


def test_zxpoly_reduces_mod_p():
    f = ZXPoly(1, 3, {((0,), (1,)): 5})
    assert f.terms == {((0,), (1,)): 2}
    g = ZXPoly(1, 3, {((0,), (1,)): 3})
    assert g.is_zero
    total = ZXPoly(1, 3, [(((0,), (1,)), 2), (((0,), (1,)), 1)])
    assert total.is_zero


def test_zxpoly_validation():
    with pytest.raises(DomainError):
        ZXPoly(1, 4)
    with pytest.raises(DomainError):
        ZXPoly(0, 3)
    with pytest.raises(DomainError):
        ZXPoly(2, 3, {((0,), (0,)): 1})  # exponent vectors too short
    with pytest.raises(DomainError):
        ZXPoly(1, 3, {((-1,), (0,)): 1})
    a = ZXPoly(1, 2, {((0,), (0,)): 1})
    b = ZXPoly(1, 3, {((0,), (0,)): 1})
    with pytest.raises(DomainError):
        a + b


def test_zxpoly_ring_laws_and_frobenius():
    rng = random.Random(1231)
    for p in (2, 3):
        for _ in range(25):
            f = _random_zx(rng, 2, p)
            g = _random_zx(rng, 2, p)
            h = _random_zx(rng, 2, p)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) ** p == f ** p + g ** p  # Frobenius in char p


def test_degrees():
    f = ZXPoly(2, 3, {((1, 0), (2, 1)): 1, ((0, 0), (0, 1)): 2})
    assert f.x_degree == 3
    assert f.total_degree == 4
    assert ZXPoly.zero(2, 3).total_degree is None


def test_partial_and_shift():
    # d/dx of x^3 is 3x^2, which vanishes mod 3.
    f = ZXPoly.monomial(1, 3, (0,), (3,))
    assert f.partial_x(0).is_zero
    g = ZXPoly.monomial(1, 3, (0,), (2,))
    assert g.partial_x(0) == ZXPoly(1, 3, {((0,), (1,)): 2})
    assert g.shift_zeta(0) == ZXPoly.monomial(1, 3, (1,), (2,))


def test_apply_d_on_monomial():
    # D(q) = dq/dx - zeta*q.
    q = ZXPoly.monomial(1, 3, (0,), (1,))  # x
    out = apply_d(0, q)
    assert out == ZXPoly(1, 3, {((0,), (0,)): 1, ((1,), (1,)): 2})


def test_operator_power_collapses_to_zeta_power():
    # Applying D_i p times equals multiplication by -zeta_i^p.
    rng = random.Random(777)
    for p in (2, 3):
        for nvars in (1, 2):
            for _ in range(20):
                q = _random_zx(rng, nvars, p)
                i = rng.randrange(nvars)
                out = q
                for _ in range(p):
                    out = apply_d(i, out)
                shifted = q
                for _ in range(p):
                    shifted = shifted.shift_zeta(i)
                assert out == -shifted


def test_imd_decide_frozen_member():
    # zeta^2 x over F_3 comes from the single preimage 2 + 2 zeta x.
    b = ZXPoly.monomial(1, 3, (2,), (1,))
    result = imd_decide(b)
    assert isinstance(result, ImDCertificate)
    assert result.preimages[0] == ZXPoly(1, 3, {((0,), (0,)): 2, ((1,), (1,)): 2})
    assert result.reconstruct() == b


def test_imd_decide_frozen_rejections():
    # A unit coefficient at the top x-degree is an immediate obstruction.
    b = ZXPoly.monomial(1, 3, (0,), (2,))
    result = imd_decide(b)
    assert isinstance(result, ObstructionReport)
    assert result.x_degree == 2
    assert result.zeta_exps == (0,)
    assert result.x_exps == (2,)
    assert result.coefficient == 1

    constant = ZXPoly.one(2, 2)
    result = imd_decide(constant)
    assert isinstance(result, ObstructionReport)
    assert result.x_degree == 0


def test_imd_decide_zero_is_member():
    result = imd_decide(ZXPoly.zero(2, 3))
    assert isinstance(result, ImDCertificate)
    assert result.reconstruct().is_zero


def test_imd_roundtrip_random():
    rng = random.Random(893)
    for _ in range(120):
        p = rng.choice([2, 3])
        nvars = rng.choice([1, 2])
        parts = [_random_zx(rng, nvars, p) for _ in range(nvars)]
        b = ZXPoly.zero(nvars, p)
        for i, q in enumerate(parts):
            b = b + apply_d(i, q)
        result = imd_decide(b)
        assert isinstance(result, ImDCertificate), b
        assert result.reconstruct() == b


def test_member_top_x_degree_terms_keep_a_zeta_factor():
    # The whole top-x-degree layer of an accepted input lies inside the ideal
    # generated by the zeta variables; a zeta-free term up there would be an
    # immediate obstruction, so genuine members never carry one.
    rng = random.Random(1201)
    checked = 0
    while checked < 60:
        p = rng.choice([2, 3])
        nvars = rng.choice([1, 2])
        b = ZXPoly.zero(nvars, p)
        for i in range(nvars):
            b = b + apply_d(i, _random_zx(rng, nvars, p))
        if b.is_zero:
            continue
        assert isinstance(imd_decide(b), ImDCertificate)
        top = b.x_degree
        for (zexp, xexp), _coeff in b.terms.items():
            if sum(xexp) == top:
                assert any(e > 0 for e in zexp), (b.terms, zexp, xexp)
        checked += 1


def test_imd_rejection_reports_a_term_of_the_input():
    rng = random.Random(424242)
    for _ in range(60):
        p = rng.choice([2, 3])
        nvars = rng.choice([1, 2])
        b = _random_zx(rng, nvars, p)
        # Plant a unit coefficient at a fresh top x-degree.
        top = (b.x_degree or 0) + 1
        xexp = tuple(top if i == 0 else 0 for i in range(nvars))
        b = b + ZXPoly.monomial(nvars, p, (0,) * nvars, xexp)
        result = imd_decide(b)
        assert isinstance(result, ObstructionReport)
        assert all(e == 0 for e in result.zeta_exps)
        assert sum(result.x_exps) == b.x_degree
        key = (tuple(result.zeta_exps), tuple(result.x_exps))
        assert b.terms[key] == result.coefficient


def test_imd_verdict_is_order_independent():
    rng = random.Random(5665)
    for _ in range(30):
        p = rng.choice([2, 3])
        b = _random_zx(rng, 2, p, max_terms=3)
        verdicts = []
        for order in permutations(range(2)):
            result = imd_decide(b, var_order=list(order))
            member = isinstance(result, ImDCertificate)
            if member:
                assert result.reconstruct() == b
            verdicts.append(member)
        assert len(set(verdicts)) == 1


def test_imd_rejects_bad_var_order():
    b = ZXPoly.one(2, 3)
    with pytest.raises(DomainError):
        imd_decide(b, var_order=[0, 0])
    with pytest.raises(DomainError):
        imd_decide(b, var_order=[0])
    with pytest.raises(DomainError):
        imd_decide(b, var_order=[1, 2])


def test_j_ideal_witness():
    rng = random.Random(31007)
    for p in (2, 3):
        # Every term must reach zeta exponent p in some variable.
        b = ZXPoly(2, p, {((p, 0), (1, 0)): 1, ((0, p + 1), (0, 2)): p - 1})
        cert = j_ideal_witness(b)
        assert cert is not None
        assert cert.reconstruct() == b
        low = ZXPoly.monomial(2, p, (1, 1), (0, 0))
        assert j_ideal_witness(low) is None
    # Random elements of the p-th power ideal always carry a witness.
    for _ in range(20):
        p = rng.choice([2, 3])
        f = _random_zx(rng, 2, p)
        b = f.shift_zeta(0)
        for _ in range(p - 1):
            b = b.shift_zeta(0)
        cert = j_ideal_witness(b)
        assert cert is not None and cert.reconstruct() == b


def test_theorem_check_positive_and_negative():
    rng = random.Random(61)
    p = 2
    f = _random_zx(rng, 2, p, in_ideal=True, max_terms=3)
    g = _random_zx(rng, 2, p, max_terms=2)
    report = charp_theorem_check(f, g)
    assert report.hypothesis_holds
    assert report.conclusion_holds
    first, second = report.boundary_certificates
    assert first.reconstruct() == g * f ** (p * p)
    assert second.reconstruct() == g * f ** (p * p + 1)

    bad = ZXPoly.one(1, 2)  # f = 1 fails the hypothesis: 1 is never a member
    report = charp_theorem_check(bad, ZXPoly.one(1, 2))
    assert not report.hypothesis_holds
    assert report.obstruction is not None
    assert report.conclusion_holds is None


def test_zxpoly_json_roundtrip():
    rng = random.Random(4002)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        f = _random_zx(rng, 2, p)
        data = zx_to_json(f)
        assert zx_from_json(data, 2, p) == f
    assert zx_from_json([], 1, 2).is_zero
