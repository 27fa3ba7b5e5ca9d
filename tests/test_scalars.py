import math
import random
from fractions import Fraction

import pytest

from mzspaces.cli import format_rational, parse_rational
from mzspaces.errors import DomainError
from mzspaces.scalars import (
    PADIC_INF,
    PrimeFieldScalar,
    is_prime,
    padic_valuation,
    scalar_inverse,
)

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
    a = PrimeFieldScalar(3, 7)
    assert scalar_inverse(a) * a == PrimeFieldScalar(1, 7)


def test_prime_field_scalar_field_laws():
    rng = random.Random(7200)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        a = PrimeFieldScalar(rng.randrange(p), p)
        b = PrimeFieldScalar(rng.randrange(p), p)
        c = PrimeFieldScalar(rng.randrange(p), p)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == PrimeFieldScalar(0, p)
        if b != PrimeFieldScalar(0, p):
            assert (a / b) * b == a
        assert a ** p == a  # Fermat


def test_prime_field_scalar_mixes_with_ints():
    a = PrimeFieldScalar(4, 7)
    assert a + 5 == PrimeFieldScalar(2, 7)
    assert 5 + a == PrimeFieldScalar(2, 7)
    assert 2 * a == PrimeFieldScalar(1, 7)
    assert a - 11 == PrimeFieldScalar(0, 7)
    assert 1 / a == PrimeFieldScalar(2, 7)
    assert a ** -1 == PrimeFieldScalar(2, 7)


def test_prime_field_scalar_rejects_bad_modulus_and_mixing():
    with pytest.raises(DomainError):
        PrimeFieldScalar(1, 6)
    a = PrimeFieldScalar(1, 5)
    b = PrimeFieldScalar(1, 7)
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(ZeroDivisionError):
        a / PrimeFieldScalar(0, 5)
    with pytest.raises(ZeroDivisionError):
        PrimeFieldScalar(0, 5) ** -1
