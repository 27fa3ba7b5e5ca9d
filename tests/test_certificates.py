import contextlib
import io
import json
import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mzspaces import certificates
from mzspaces.cli import main
from mzspaces.certificates import (
    PAdicCertificate,
    certify_exponential,
    certify_unit_interval,
    expansion_size,
    power_moment,
)
from mzspaces.errors import DomainError
from mzspaces.scalars import clear_denominators, is_prime, padic_valuation
from mzspaces.selftest import power_moment_by_expansion
from mzspaces.upoly import Poly

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
# Denominators up to 7, so that some candidate primes divide one and are skipped.
RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=7)
M_MIN = st.integers(1, 40)

DERANGEMENTS = (1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961)


def _derangements_inclusion_exclusion(m: int) -> int:
    return sum((-1) ** k * math.comb(m, k) * math.factorial(m - k)
               for k in range(m + 1))


def _derangements_brute(m: int) -> int:
    return sum(1 for sigma in permutations(range(m))
               if all(sigma[i] != i for i in range(m)))


def _unit_moment_by_antiderivative(f: Poly, m: int) -> Fraction:
    power = f ** m
    upper = Fraction(0)
    for i, c in enumerate(power.coeffs):
        upper += Fraction(c, i + 1)  # antiderivative term at t=1; t=0 gives 0
    return upper


def test_moment_rules_on_monomials():
    for i in range(8):
        assert power_moment_by_expansion("unit", Poly.monomial(i), 1) == Fraction(1, i + 1)
        assert power_moment_by_expansion("exp", Poly.monomial(i), 1) == math.factorial(i)


def test_power_moment_rejects_an_unknown_rule():
    with pytest.raises(DomainError, match="moment rule must be 'unit' or 'exp', got 'x'"):
        power_moment("x", Poly([0, 1]), 2)


def test_power_moment_monomial_and_unit_cases():
    t = Poly.variable()
    for m in range(6):
        assert power_moment("unit", t, m) == Fraction(1, m + 1)
        assert power_moment("exp", t, m) == math.factorial(m)
    assert power_moment("unit", Poly([2, 3]), 0) == 1
    assert power_moment("exp", Poly([2, 3]), 0) == 1


def test_power_moment_rejects_negative_power():
    with pytest.raises(DomainError):
        power_moment("unit", Poly([0, 1]), -1)


def test_derangement_numbers_frozen_and_cross_checked():
    t_minus_1 = Poly([-1, 1])
    for m in range(11):
        value = power_moment("exp", t_minus_1, m)
        assert value == DERANGEMENTS[m]
        assert value == _derangements_inclusion_exclusion(m)
        if m <= 6:
            assert value == _derangements_brute(m)


def test_derangement_recurrence_holds_far_out():
    t_minus_1 = Poly([-1, 1])
    values = [power_moment("exp", t_minus_1, m) for m in range(25)]
    for n in range(2, 25):
        assert values[n] == (n - 1) * (values[n - 1] + values[n - 2])


def test_unit_power_moment_matches_antiderivative():
    cases = [Poly([Fraction(-1, 2), 1]), Poly([1, 1, 1]), Poly([2, -1, 0, 1])]
    for f in cases:
        for m in range(6):
            assert power_moment("unit", f, m) == \
                _unit_moment_by_antiderivative(f, m)


def test_unit_certificate_frozen_linear():
    cert = certify_unit_interval(Poly([Fraction(-1, 2), 1]))
    assert (cert.prime, cert.exponent) == (3, 2)
    assert cert.value == Fraction(1, 12)
    assert cert.valuation == -1


def test_unit_certificate_frozen_quadratic():
    cert = certify_unit_interval(Poly([1, 1, 1]))
    assert (cert.prime, cert.exponent) == (3, 1)
    assert cert.value == Fraction(11, 6)
    assert cert.valuation == -1


def test_unit_certificate_frozen_cubic():
    cert = certify_unit_interval(Poly([2, -1, 0, 1]))
    assert (cert.prime, cert.exponent) == (7, 2)
    assert cert.value == Fraction(323, 105)
    assert cert.valuation == -1


def test_unit_moment_vanishes_exactly_at_odd_powers_for_symmetric_root():
    # (t - 1/2)^m integrates to zero over the unit interval precisely when m
    # is odd, so any certificate for this input has to land on an even
    # exponent. Guards against "every exponent works" shortcuts.
    f = Poly([Fraction(-1, 2), 1])
    for m in range(12):
        moment = power_moment("unit", f, m)
        assert (moment == 0) == (m % 2 == 1)
    cert = certify_unit_interval(f)
    assert cert.exponent % 2 == 0


def test_unit_certificate_lead_term_carries_the_whole_pole():
    # Split the moment into per-coefficient terms c_i / (i+1). The lead term
    # alone hits the denominator p = m*deg(f) + 1; every other term stays
    # p-integral, which is what forces the total valuation to -1.
    for coeffs in [(Fraction(-1, 2), 1), (1, 1, 1), (2, -1, 0, 1)]:
        f = Poly(coeffs)
        cert = certify_unit_interval(f)
        expanded = f ** cert.exponent
        total = Fraction(0)
        for i, c in enumerate(expanded.coeffs):
            if c == 0:
                continue
            term = Fraction(c) / (i + 1)
            total += term
            if i == expanded.degree:
                assert i + 1 == cert.prime
                assert padic_valuation(term, cert.prime) == -1
            else:
                assert padic_valuation(term, cert.prime) >= 0
        assert total == cert.value


def test_unit_certificates_reverify_independently():
    for f in (Poly([Fraction(-1, 2), 1]), Poly([1, 1, 1]), Poly([2, -1, 0, 1])):
        cert = certify_unit_interval(f)
        assert cert.exponent <= 500
        recomputed = _unit_moment_by_antiderivative(f, cert.exponent)
        assert recomputed == cert.value
        assert recomputed != 0
        assert padic_valuation(recomputed, cert.prime) == -1
        assert cert.prime == cert.exponent * f.degree + 1
        for c in f.coeffs:
            assert Fraction(c).denominator % cert.prime != 0


def test_unit_certificate_respects_m_min():
    cert = certify_unit_interval(Poly([Fraction(-1, 2), 1]), m_min=3)
    assert (cert.prime, cert.exponent) == (5, 4)
    assert cert.value == Fraction(1, 80)


def test_unit_certificate_requires_monic_nonconstant():
    # 1 + 2t is not monic: p = 2 divides the leading 2, so m = 2, p = 3,
    # where (1 + 2t)^2 = 1 + 4t + 4t^2 has the moment 1 + 2 + 4/3 = 13/3.
    cert = certify_unit_interval(Poly([1, 2]))
    assert (cert.prime, cert.exponent, cert.valuation, cert.value) == (3, 2, -1, Fraction(13, 3))
    with pytest.raises(DomainError):
        certify_unit_interval(Poly([5]))
    with pytest.raises(DomainError):
        certify_unit_interval(Poly([Fraction(-1, 2), 1]), m_min=0)


def test_exponential_certificate_frozen_cases():
    cert = certify_exponential(Poly([0, 1, 1]))  # t + t^2
    assert (cert.prime, cert.exponent) == (2, 1)
    assert cert.value == 3
    assert cert.valuation == 0

    cert = certify_exponential(Poly([0, 0, 1, 1]))  # t^2 + t^3
    assert (cert.prime, cert.exponent) == (3, 1)
    assert cert.value == 8
    assert cert.valuation == 0


def test_exponential_certificate_reverifies():
    f = Poly([0, 1, 0, 2])  # t + 2t^3
    cert = certify_exponential(f)
    r = f.low_order
    assert cert.prime == r * cert.exponent + 1
    value = power_moment("exp", f, cert.exponent)
    assert value == cert.value != 0
    assert padic_valuation(value, cert.prime) == cert.valuation
    # The certificate prime exceeds r*m, so the factorial part is a p-unit.
    assert cert.valuation == 0


def test_exponential_certificate_input_validation():
    with pytest.raises(DomainError):
        certify_exponential(Poly([1, 1]))  # nonzero constant term: no root at 0
    # 2t + t^2: p = 2 divides the lowest coefficient 2, so m = 2, p = 3, and
    # (2t + t^2)^2 = 4t^2 + 4t^3 + t^4 has the moment 4*2! + 4*3! + 4! = 56.
    cert = certify_exponential(Poly([0, 2, 1]))
    assert (cert.prime, cert.exponent, cert.valuation, cert.value) == (3, 2, 0, 56)
    with pytest.raises(DomainError):
        certify_exponential(Poly([0, 1]))  # single monomial
    with pytest.raises(DomainError):
        certify_exponential(Poly([]))


def test_certificate_dataclass_rejects_wrong_valuation():
    with pytest.raises(DomainError):
        PAdicCertificate(prime=3, exponent=1, valuation=-2, value=Fraction(11, 6))
    with pytest.raises(DomainError):
        PAdicCertificate(prime=3, exponent=1, valuation=-1, value=Fraction(0))


def _first_admissible(f: Poly, step: int, m_min: int) -> int:
    """The least m >= m_min with p = step*m + 1 prime and dividing neither a
    coefficient denominator of f nor the numerator of its t^step coefficient."""
    blockers = [Fraction(c).denominator for c in f.coeffs]
    blockers.append(Fraction(f.coefficient(step)).numerator)
    m = m_min
    while not (is_prime(step * m + 1) and all(b % (step * m + 1) for b in blockers)):
        m += 1
    return m


@SETTINGS
@given(st.lists(RATIONAL, min_size=1, max_size=4), M_MIN)
def test_unit_certificate_is_at_the_first_admissible_m(lower, m_min):
    f = Poly([*lower, 1])
    m = _first_admissible(f, f.degree, m_min)
    cert = certify_unit_interval(f, m_min)
    assert (cert.exponent, cert.prime) == (m, f.degree * m + 1)
    assert cert.valuation == -1


@SETTINGS
@given(st.integers(1, 3), st.lists(RATIONAL, min_size=1, max_size=3).filter(lambda c: c[-1] != 0),
       M_MIN)
def test_exponential_certificate_is_at_the_first_admissible_m(r, higher, m_min):
    f = Poly([0] * r + [1] + higher)
    m = _first_admissible(f, r, m_min)
    cert = certify_exponential(f, m_min)
    assert (cert.exponent, cert.prime) == (m, r * m + 1)
    assert cert.valuation == 0


@SETTINGS
@given(st.sampled_from(("unit", "exp")), st.integers(0, 2),
       st.lists(RATIONAL, min_size=1, max_size=4), M_MIN)
def test_any_certificate_is_at_the_first_admissible_m(rule, zeros, tail, m_min):
    """Non-monic f of degree up to 4, any lowest coefficient: a certificate
    sits at the first m >= m_min whose p divides no denominator and not the
    numerator of the rule's coefficient, with the rule's valuation and the
    reference value; every other input is a domain error (exit 2), never an
    internal one."""
    coeffs = ([Fraction(0)] * (zeros + (rule == "exp")) + tail)[:5]
    argv = ["certify", "--rule", rule, "--poly", json.dumps([str(c) for c in coeffs]),
            "--m-min", str(m_min)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report = json.loads(out.getvalue())
    f = Poly(coeffs)
    try:
        cert = (certify_unit_interval if rule == "unit" else certify_exponential)(f, m_min)
    except DomainError as exc:
        assert f.degree < 1 or (rule == "exp" and f.degree == f.low_order), exc
        assert (code, report["error"]) == (2, {"kind": "domain", "message": str(exc)})
        return
    step = f.degree if rule == "unit" else f.low_order
    m = _first_admissible(f, step, m_min)
    assert (cert.exponent, cert.prime) == (m, step * m + 1)
    assert cert.valuation == (-1 if rule == "unit" else 0)
    assert cert.value == power_moment_by_expansion(rule, f, m)
    assert code == 0
    assert (report["p"], report["m"], report["valuation"], report["value"]) == \
        (cert.prime, m, cert.valuation, str(cert.value))


@SETTINGS
@given(st.lists(st.one_of(RATIONAL, st.integers(-10**30, 10**30)), max_size=6),
       st.integers(0, 14))
def test_kronecker_expansion_matches_poly_powers(coeffs, power):
    f = Poly(coeffs)
    for rule in ("unit", "exp"):
        assert power_moment(rule, f, power) == power_moment_by_expansion(rule, f, power)
    base = clear_denominators(f.coeffs)[1]
    if base and power:
        terms, bits = expansion_size(base, power)
        expanded = (Poly(base) ** power).coeffs
        assert len(expanded) == terms
        assert all(abs(c) < 2 ** (bits - 1) for c in expanded)


def _no_expansion(*_args):
    raise AssertionError("power_moment ran above the size cap")


def test_expansion_caps_are_checked_before_expanding(monkeypatch):
    # (1 + t)^10 at p = 11: 11 coefficients of up to 21 bits, 231 bits in all.
    f = Poly([1, 1])
    assert certify_unit_interval(f, 10).exponent == 10
    monkeypatch.setattr(certificates, "MAX_EXPANSION_BITS", 231)
    monkeypatch.setattr(certificates, "MAX_EXPANSION_TERMS", 11)
    assert certify_unit_interval(f, 10).exponent == 10
    monkeypatch.setattr(certificates, "power_moment", _no_expansion)
    for name, cap in (("MAX_EXPANSION_BITS", 230), ("MAX_EXPANSION_TERMS", 10)):
        with monkeypatch.context() as patch:
            patch.setattr(certificates, name, cap)
            with pytest.raises(DomainError, match="at m = 10 the expansion of .* has 11 "
                                                  "coefficients of up to 21 bits, 231 bits"):
                certify_unit_interval(f, 10)
