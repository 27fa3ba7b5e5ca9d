import math
import random
from fractions import Fraction

import pytest

from mzspaces.certificates import (
    certify_exponential,
    certify_unit_interval,
    power_moment,
)
from mzspaces.cli import format_rational, parse_rational
from mzspaces.errors import DomainError
from mzspaces.functionals import FunctionalNF, from_moments
from mzspaces.probes import MatrixQ, trace_radical_test
from mzspaces.scalars import (
    PADIC_INF,
    Rational,
    is_prime,
    padic_valuation,
    scalar_inverse,
)
from mzspaces.upoly import Poly, RootData, rational_roots

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for n in range(2, int(limit ** 0.5) + 1):
        if flags[n]:
            for k in range(n * n, limit + 1, n):
                flags[k] = False
    return flags


def test_is_prime_matches_sieve_below_ten_thousand():
    flags = _sieve(10_000)
    for n in range(10_000 + 1):
        assert is_prime(n) == flags[n], n


def test_is_prime_beyond_trial_division_limit():
    # 10**6 + 3 is the first prime past the trial-division cutoff.
    assert is_prime(10**6 + 3)
    assert not is_prime(10**6 + 1)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    # Carmichael numbers must not fool the witness set.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 294409):
        assert not is_prime(n), n


def test_is_prime_rejects_the_twelve_base_strong_pseudoprime():
    # The least strong pseudoprime to the prime bases 2..37 is composite and
    # below the 3.3e24 limit of the 13-base set, so is_prime must reject it.
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    assert is_prime(2**61 - 1)


@pytest.mark.parametrize("n, factors", [
    (3215031751, (151, 751, 28351)),  # a strong pseudoprime to the bases 2, 3, 5 and 7
    (1152271, (43, 127, 211)),  # a Carmichael number prime to all 13 bases
])
def test_composites_past_the_division_by_the_bases_reach_miller_rabin(n, factors):
    assert math.prod(factors) == n and n >= 43 * 43
    assert not is_prime(n)


def test_padic_valuation_frozen_values():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(12, 3) == 1
    assert padic_valuation(Fraction(1, 12), 2) == -2
    assert padic_valuation(Fraction(-9, 8), 3) == 2
    assert padic_valuation(Fraction(-9, 8), 2) == -3
    assert padic_valuation(7, 5) == 0
    assert padic_valuation(0, 7) == PADIC_INF
    assert padic_valuation(0, 7) == math.inf


def test_padic_valuation_rejects_composite_modulus():
    with pytest.raises(DomainError):
        padic_valuation(10, 6)
    with pytest.raises(DomainError):
        padic_valuation(10, 1)


def test_valuation_is_additive_and_ultrametric():
    rng = random.Random(90125)
    for _ in range(300):
        p = rng.choice(SMALL_PRIMES)
        a = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        b = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        if a == 0 or b == 0:
            continue
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)
        if a + b != 0:
            floor = min(padic_valuation(a, p), padic_valuation(b, p))
            assert padic_valuation(a + b, p) >= floor
            if padic_valuation(a, p) != padic_valuation(b, p):
                assert padic_valuation(a + b, p) == floor


def test_rational_arithmetic_is_exact_on_huge_denominators():
    # No rounding anywhere: add-then-subtract and multiply-then-divide
    # recover the input bit for bit even with nine-digit denominators.
    rng = random.Random(404)
    for _ in range(200):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        b = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_parse_and_format_roundtrip():
    rng = random.Random(4001)
    for _ in range(200):
        q = Fraction(rng.randint(-500, 500), rng.randint(1, 90))
        assert parse_rational(format_rational(q)) == q
    assert parse_rational("7") == 7
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(5) == 5
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-8, 2)) == "-4"


def test_parse_rational_keeps_integers_as_ints():
    # Only num/den builds a Rational, even when it reduces to an integer.
    for text, value in ((5, 5), ("7", 7), ("-3", -3), ("-0", 0)):
        parsed = parse_rational(text)
        assert type(parsed) is int and parsed == value
    for text, value in (("-3/4", Fraction(-3, 4)), ("6/3", Fraction(2))):
        parsed = parse_rational(text)
        assert type(parsed) is Rational and parsed == value


def test_parse_rational_rejects_garbage():
    for bad in ("", "one", "1/0", "2.5.1", "1//2", None,
                "1e10000000", "1e-2", "1_0", " 0.5 ", "0.5", 0.5, "-", "1/-2", "+1",
                "\u0663", "1/ 2", " 1", float("inf")):
        with pytest.raises(DomainError):
            parse_rational(bad)


def test_scalar_inverse_over_each_coefficient_kind():
    assert scalar_inverse(1) == 1
    assert scalar_inverse(-1) == -1
    assert scalar_inverse(4) == Fraction(1, 4)
    assert scalar_inverse(Fraction(3, 7)) == Fraction(7, 3)



# One float scalar in each library entry point that reads scalars through
# the integer kernels; every one is rejected by scalars.require_rational.
# The decision procedure reads its scalars from functionals, which check
# theirs where they are built.
@pytest.mark.parametrize("call", [
    lambda: FunctionalNF(RootData([(Fraction(1, 2), 1)]), parts={Fraction(1, 2): Poly([0.5])}),
    lambda: from_moments([1.0], RootData([(1, 1)])),
    lambda: power_moment("unit", Poly([0.5, 1]), 2),
    lambda: certify_unit_interval(Poly([0.5, 1])),
    lambda: certify_exponential(Poly([0, 1, 0.5])),
    lambda: rational_roots(Poly([0.5, 1])),
    lambda: trace_radical_test(MatrixQ([[0.5, 1], [0, 0]])),
], ids=["FunctionalNF", "from_moments", "power_moment", "certify_unit_interval",
        "certify_exponential", "rational_roots", "MatrixQ"])
def test_float_scalars_are_rejected_by_the_one_guard(call):
    with pytest.raises(DomainError, match="needs rational scalars"):
        call()


# bool is a subclass of int, and a float converts to a Fraction exactly, but
# neither is a rational scalar: each is refused, not read as 1 or 1/2.
@pytest.mark.parametrize("call", [
    lambda: RootData([(True, 1), (2, 1)]),
    lambda: certify_unit_interval(Poly([True, 1])),
    lambda: padic_valuation(0.5, 2),
    lambda: padic_valuation(True, 2),
    lambda: MatrixQ([[True]]),
], ids=["RootData-bool-root", "certify_unit_interval-bool-coefficient",
        "padic_valuation-float", "padic_valuation-bool", "MatrixQ-bool-entry"])
def test_booleans_and_floats_are_not_rational_scalars(call):
    with pytest.raises(DomainError, match="needs rational scalars"):
        call()
