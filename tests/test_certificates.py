import copy
import math
import pickle
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mzspaces import certificates
from mzspaces.certificates import (
    MomentRule,
    PAdicCertificate,
    certify_exponential,
    certify_unit_interval,
    expansion_size,
    power_moment,
)
from mzspaces.errors import DomainError, SearchExhaustedError
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
        assert MomentRule.UNIT_INTERVAL.moment(i) == Fraction(1, i + 1)
        assert MomentRule.EXPONENTIAL.moment(i) == math.factorial(i)


def test_moment_rules_are_two_members_that_survive_copies():
    """MomentRule behaves as the enum it replaced: iterating it yields both
    rules, and a copy or a pickle of a rule is the rule itself."""
    assert [rule.value for rule in MomentRule] == ["unit", "exp"]
    for rule in MomentRule:
        assert copy.deepcopy(rule) is rule
        assert pickle.loads(pickle.dumps(rule)) is rule


def test_power_moment_monomial_and_unit_cases():
    t = Poly.variable()
    for m in range(6):
        assert power_moment(MomentRule.UNIT_INTERVAL, t, m) == Fraction(1, m + 1)
        assert power_moment(MomentRule.EXPONENTIAL, t, m) == math.factorial(m)
    assert power_moment(MomentRule.UNIT_INTERVAL, Poly([2, 3]), 0) == 1
    assert power_moment(MomentRule.EXPONENTIAL, Poly([2, 3]), 0) == 1


def test_power_moment_rejects_negative_power():
    with pytest.raises(DomainError):
        power_moment(MomentRule.UNIT_INTERVAL, Poly([0, 1]), -1)


def test_derangement_numbers_frozen_and_cross_checked():
    t_minus_1 = Poly([-1, 1])
    for m in range(11):
        value = power_moment(MomentRule.EXPONENTIAL, t_minus_1, m)
        assert value == DERANGEMENTS[m]
        assert value == _derangements_inclusion_exclusion(m)
        if m <= 6:
            assert value == _derangements_brute(m)


def test_derangement_recurrence_holds_far_out():
    t_minus_1 = Poly([-1, 1])
    values = [power_moment(MomentRule.EXPONENTIAL, t_minus_1, m) for m in range(25)]
    for n in range(2, 25):
        assert values[n] == (n - 1) * (values[n - 1] + values[n - 2])


def test_unit_power_moment_matches_antiderivative():
    cases = [Poly([Fraction(-1, 2), 1]), Poly([1, 1, 1]), Poly([2, -1, 0, 1])]
    for f in cases:
        for m in range(6):
            assert power_moment(MomentRule.UNIT_INTERVAL, f, m) == \
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
        moment = power_moment(MomentRule.UNIT_INTERVAL, f, m)
        assert (moment == 0) == (m % 2 == 1)
    cert = certify_unit_interval(f, 1, 600)
    assert cert.exponent % 2 == 0


def test_unit_certificate_lead_term_carries_the_whole_pole():
    # Split the moment into per-coefficient terms c_i / (i+1). The lead term
    # alone hits the denominator p = m*deg(f) + 1; every other term stays
    # p-integral, which is what forces the total valuation to -1.
    for coeffs in [(Fraction(-1, 2), 1), (1, 1, 1), (2, -1, 0, 1)]:
        f = Poly(coeffs)
        cert = certify_unit_interval(f, 1, 600)
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
    with pytest.raises(DomainError):
        certify_unit_interval(Poly([1, 2]))
    with pytest.raises(DomainError):
        certify_unit_interval(Poly([5]))
    with pytest.raises(DomainError):
        certify_unit_interval(Poly([Fraction(-1, 2), 1]), m_min=0)


def test_unit_certificate_search_can_exhaust():
    # At m=1 the candidate prime 2 divides the denominator of -1/2, so a
    # bound of 1 leaves nothing to try.
    with pytest.raises(SearchExhaustedError):
        certify_unit_interval(Poly([Fraction(-1, 2), 1]), search_bound=1)


@pytest.mark.parametrize("search_bound", [0, -1])
def test_certificate_search_bound_must_be_positive(search_bound):
    with pytest.raises(DomainError, match="search_bound must be >= 1"):
        certify_unit_interval(Poly([Fraction(-1, 2), 1]), search_bound=search_bound)
    with pytest.raises(DomainError, match="search_bound must be >= 1"):
        certify_exponential(Poly([0, 1, 1]), search_bound=search_bound)


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
    value = power_moment(MomentRule.EXPONENTIAL, f, cert.exponent)
    assert value == cert.value != 0
    assert padic_valuation(value, cert.prime) == cert.valuation
    # The certificate prime exceeds r*m, so the factorial part is a p-unit.
    assert cert.valuation == 0


def test_exponential_certificate_input_validation():
    with pytest.raises(DomainError):
        certify_exponential(Poly([1, 1]))  # nonzero constant term: no root at 0
    with pytest.raises(DomainError):
        certify_exponential(Poly([0, 2, 1]))  # lowest coefficient not 1
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
    """The least m >= m_min with p = step*m + 1 prime and dividing no
    coefficient denominator of f."""
    denominators = [Fraction(c).denominator for c in f.coeffs]
    m = m_min
    while not (is_prime(step * m + 1) and all(d % (step * m + 1) for d in denominators)):
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
@given(st.lists(st.one_of(RATIONAL, st.integers(-10**30, 10**30)), max_size=6),
       st.integers(0, 14))
def test_kronecker_expansion_matches_poly_powers(coeffs, power):
    f = Poly(coeffs)
    for rule in MomentRule:
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
