import random
from fractions import Fraction

import pytest

from mzspaces.cli import laurent_from_json, poly_from_json, poly_to_json
from mzspaces.errors import DoesNotSplitError, DomainError
from mzspaces.sparse import LaurentPoly
from mzspaces.upoly import (
    NEG_INF,
    Poly,
    RootData,
    apply_der_op,
    apply_euler_op,
    extended_gcd,
    rational_roots,
)


def _random_poly(rng, max_degree=5, nonzero=False):
    while True:
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                  for _ in range(rng.randint(0, max_degree) + 1)]
        p = Poly(coeffs)
        if not nonzero or not p.is_zero:
            return p


def test_constructor_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0]).coeffs == ()
    assert Poly([]).is_zero
    assert Poly([0, 0, 3]).degree == 2


def test_degree_conventions():
    assert Poly([]).degree == NEG_INF
    assert Poly([5]).degree == 0
    assert Poly.variable().degree == 1
    assert Poly.monomial(4).degree == 4
    assert Poly.monomial(4).lead == 1


def test_low_order_counts_root_zero_multiplicity():
    assert Poly([0, 0, 1, 2]).low_order == 2
    assert Poly([3, 1]).low_order == 0
    t = Poly.variable()
    assert (t ** 5).low_order == 5


def test_ring_laws_random():
    rng = random.Random(20260817)
    for _ in range(150):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == Poly([])


def test_divmod_is_exact_division_with_remainder():
    rng = random.Random(555)
    for _ in range(150):
        a = _random_poly(rng)
        b = _random_poly(rng, nonzero=True)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly([1, 1]), Poly([]))


def test_pow_matches_repeated_multiplication():
    rng = random.Random(808)
    for _ in range(40):
        a = _random_poly(rng, max_degree=3)
        acc = Poly([1])
        for k in range(6):
            assert a ** k == acc
            acc = acc * a


def test_call_uses_horner_exactly():
    p = Poly([Fraction(1, 2), 0, 1])  # 1/2 + t^2
    assert p(Fraction(1, 3)) == Fraction(1, 2) + Fraction(1, 9)
    assert p(0) == Fraction(1, 2)
    assert Poly([])(7) == 0


def test_derivative_and_euler():
    t = Poly.variable()
    p = (t ** 3).scale(2) + t  # 2t^3 + t
    assert p.derivative() == Poly([1, 0, 6])
    assert p.euler() == Poly([0, 1, 0, 6])  # t*p' = t + 6t^3
    # Euler operator is diagonal on monomials: D(t^n) = n t^n.
    for n in range(6):
        assert (t ** n).euler() == (t ** n).scale(n)


def test_apply_der_op_and_euler_op():
    t = Poly.variable()
    g = t ** 4
    # (d/dt)^2 applied to t^4 is 12 t^2.
    assert apply_der_op(Poly([0, 0, 1]), g) == (t ** 2).scale(12)
    # D^2 applied to t^4 is 16 t^4.
    assert apply_euler_op(Poly([0, 0, 1]), g) == g.scale(16)
    # Operator polynomials act linearly.
    op = Poly([2, 1])
    assert apply_der_op(op, g) == g.scale(2) + g.derivative()
    assert apply_euler_op(op, g) == g.scale(2) + g.euler()


def test_operator_application_is_linear_in_both_arguments():
    rng = random.Random(77)
    for _ in range(40):
        op_a = _random_poly(rng, max_degree=3)
        op_b = _random_poly(rng, max_degree=3)
        f1 = _random_poly(rng, max_degree=4)
        f2 = _random_poly(rng, max_degree=4)
        c = Fraction(rng.randint(-3, 3))
        for apply_fn in (apply_der_op, apply_euler_op):
            assert apply_fn(op_a, f1 + f2) == apply_fn(op_a, f1) + apply_fn(op_a, f2)
            assert apply_fn(op_a, f1.scale(c)) == apply_fn(op_a, f1).scale(c)
            assert apply_fn(op_a + op_b, f1) == apply_fn(op_a, f1) + apply_fn(op_b, f1)
            assert apply_fn(op_a.scale(c), f1) == apply_fn(op_a, f1).scale(c)


def test_point_evaluation_sees_exactly_the_root_order():
    # Applying T^i and evaluating at the root kills factors of order above i
    # but never one of order exactly i. Euler ops pair with nonzero roots,
    # derivative ops with the root at zero.
    rng = random.Random(515)
    for _ in range(60):
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        if lam == 0:
            continue
        i = rng.randint(1, 3)
        j = rng.randint(i + 1, i + 3)
        u = _random_poly(rng, max_degree=3)
        linear = Poly([-lam, Fraction(1)])
        assert apply_euler_op(Poly.monomial(i), linear ** j * u)(lam) == 0
        assert apply_der_op(Poly.monomial(i), Poly.monomial(j) * u)(0) == 0
        if u(lam) != 0:
            assert apply_euler_op(Poly.monomial(i), linear ** i * u)(lam) != 0
        if u(0) != 0:
            assert apply_der_op(Poly.monomial(i), Poly.monomial(i) * u)(0) != 0


def test_extended_gcd_bezout_and_normalization():
    rng = random.Random(99)
    for _ in range(500):
        a = _random_poly(rng, max_degree=4)
        b = _random_poly(rng, max_degree=4)
        if a.is_zero and b.is_zero:
            continue
        u, v, g = extended_gcd(a, b)
        assert u * a + v * b == g
        assert not g.is_zero
        assert g.lead == 1  # monic normalization
        assert (a % g).is_zero
        assert (b % g).is_zero


def test_extended_gcd_coprime_gives_unit():
    t = Poly.variable()
    u, v, g = extended_gcd(t - Poly([1]), t + Poly([1]))
    assert g == Poly([1])
    assert u * (t - Poly([1])) + v * (t + Poly([1])) == Poly([1])


def test_root_data_basics():
    roots = RootData([(Fraction(1), 2), (Fraction(-1), 1)])
    assert roots.degree == 3
    assert roots.multiplicity(Fraction(1)) == 2
    assert roots.multiplicity(Fraction(7)) == 0
    t = Poly.variable()
    assert roots.poly() == (t - Poly([1])) ** 2 * (t + Poly([1]))


def test_root_data_rejects_bad_input():
    with pytest.raises(DomainError):
        RootData([])
    with pytest.raises(DomainError):
        RootData([(Fraction(1), 0)])
    with pytest.raises(DomainError):
        RootData([(Fraction(1), 1), (Fraction(1), 2)])


# Library callers meet no silent coercion: a multiplicity is an int and not a
# bool, and a root is an int or a Fraction.
@pytest.mark.parametrize("pairs, text", [
    ([(1, 1.5), (2, "3")], "multiplicity 1.5"),
    ([(1, 1), (2, "3")], "multiplicity '3'"),
    ([(1, True)], "multiplicity True"),
    ([(0.5, 1)], "root data needs rational scalars"),
    ([(Fraction(1), 1), ("2", 1)], "root data needs rational scalars"),
])
def test_root_data_rejects_coercible_input(pairs, text):
    with pytest.raises(DomainError, match=text):
        RootData(pairs)


def test_rational_roots_frozen_cases():
    t = Poly.variable()
    f = (t ** 2) * (t - Poly([1]))  # t^3 - t^2
    roots = rational_roots(f)
    assert list(roots) == [(Fraction(0), 2), (Fraction(1), 1)]

    g = (t - Poly([Fraction(1, 2)])) * (t + Poly([Fraction(3)])) ** 2
    roots = rational_roots(g)
    assert list(roots) == [(Fraction(-3), 2), (Fraction(1, 2), 1)]

    # Scaling by a constant must not change the roots.
    assert list(rational_roots(g.scale(Fraction(-7, 3)))) == list(roots)


def test_rational_roots_random_reconstruction():
    rng = random.Random(31337)
    for _ in range(60):
        count = rng.randint(1, 3)
        chosen = {}
        while len(chosen) < count:
            lam = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2]))
            chosen[lam] = rng.randint(1, 3)
        f = Poly([rng.choice([1, 2, -3])])
        t = Poly.variable()
        for lam, mult in chosen.items():
            f = f * (t - Poly([lam])) ** mult
        found = rational_roots(f)
        assert dict(found) == chosen
        assert list(found.roots) == sorted(chosen)


def test_rational_roots_reports_nonsplit_cofactor():
    t = Poly.variable()
    f = (t ** 2 + Poly([1])) * (t - Poly([2]))
    with pytest.raises(DoesNotSplitError) as info:
        rational_roots(f)
    assert info.value.cofactor == t ** 2 + Poly([1])


def test_rational_roots_rejects_constants():
    with pytest.raises(DomainError):
        rational_roots(Poly([3]))
    with pytest.raises(DomainError):
        rational_roots(Poly([]))


def test_laurent_arithmetic():
    x = LaurentPoly({1: Fraction(1)})
    inv = LaurentPoly({-1: Fraction(1)})
    assert x * inv == LaurentPoly({0: Fraction(1)})
    s = LaurentPoly({-2: Fraction(3), 1: Fraction(-1)})
    assert s + s == s * LaurentPoly({0: Fraction(2)})
    assert (s - s).is_zero
    assert s.coefficient(-2) == 3
    assert s.coefficient(5) == 0
    assert s.exponents == (-2, 1)


def test_poly_json_roundtrip():
    rng = random.Random(2024)
    for _ in range(50):
        p = _random_poly(rng)
        data = poly_to_json(p)
        assert all(isinstance(s, str) for s in data)
        assert poly_from_json(data) == p


def test_laurent_json_roundtrip():
    g = LaurentPoly({-3: Fraction(1, 2), 0: Fraction(-2), 4: Fraction(7)})
    assert laurent_from_json({"-3": "1/2", "0": -2, "4": "7"}) == g
    assert laurent_from_json({"-007": "1", "0": "2"}) == LaurentPoly({-7: 1, 0: 2})


@pytest.mark.parametrize("key", ["1_0", " -2 ", "+3", "--1", "", "\u0663", "1e3"])
def test_laurent_exponent_keys_are_ascii_integers(key):
    with pytest.raises(DomainError, match="bad Laurent exponent"):
        laurent_from_json({key: "1"})


def test_laurent_exponent_error_does_not_repeat_a_huge_key():
    with pytest.raises(DomainError) as info:
        laurent_from_json({"1" * 5000: "1"})
    assert str(info.value) == "bad Laurent exponent a 5000-character string: too many digits"
