"""Property tests of the sparse term-dict kernel against references that do
not use it: dense `Poly` arithmetic (upoly imports nothing from sparse),
plain repeated products, and a ZX product summed over the integers by hand
and reduced mod p only at the end.  The ring operations of the one core
(`SparsePoly`) are checked on all three types against the bare kernel."""

import random
from fractions import Fraction
from functools import partial, reduce
from operator import add

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mzspaces.errors import DomainError
from mzspaces.imagep import ZXPoly
from mzspaces.probes import MultiPolyQ
from mzspaces.scalars import Rational
from mzspaces.sparse import LaurentPoly, accumulate, add_tuples, collect, mul, power, shifted
from mzspaces.upoly import Poly

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
DENSE = st.lists(RATIONAL, max_size=7)
# Few distinct keys, so that like terms meet and some sums cancel to 0.
PAIRS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12)


def _terms(coeffs):
    return {(i,): c for i, c in enumerate(coeffs) if c}


def _dense(terms):
    if not terms:
        return Poly()
    coeffs = [0] * (max(i for (i,) in terms) + 1)
    for (i,), c in terms.items():
        coeffs[i] = c
    return Poly(coeffs)


@SETTINGS
@given(DENSE, DENSE)
def test_mul_on_one_tuple_keys_is_the_dense_product(a, b):
    product = mul(_terms(a), _terms(b), add_tuples)
    assert _dense(product) == Poly(a) * Poly(b)
    assert all(c != 0 for c in product.values())


@SETTINGS
@given(PAIRS, st.randoms(use_true_random=False), st.sampled_from([None, 2, 3, 7]))
def test_collect_is_order_independent_and_drops_zeros(pairs, rng, modulus):
    expected = {}
    for key in {key for key, _ in pairs}:
        total = sum(c for k, c in pairs if k == key)
        if modulus is not None:
            total %= modulus
        if total:
            expected[key] = total
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert collect(pairs, modulus) == expected
    assert collect(shuffled, modulus) == expected
    stored = {}
    for key, c in shuffled:
        accumulate(stored, key, c, modulus)
    assert stored == expected


@SETTINGS
@given(DENSE, st.integers(0, 9))
def test_power_is_the_repeated_product(coeffs, exponent):
    x = Poly(coeffs)
    assert power(x, exponent, Poly((1,))) == reduce(Poly.__mul__, [x] * exponent, Poly((1,)))
    laurent = LaurentPoly({i - 3: c for i, c in enumerate(coeffs)})
    repeated = LaurentPoly({0: 1})
    for _ in range(exponent):
        repeated = repeated * laurent
    assert laurent**exponent == repeated


@st.composite
def zx_terms(draw, nvars, modulus):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    keys = draw(st.lists(st.tuples(exps, exps), max_size=6, unique=True))
    return {key: draw(st.integers(1, modulus - 1)) for key in keys}


@st.composite
def zx_pairs(draw):
    nvars, modulus = draw(st.integers(1, 2)), draw(st.sampled_from([2, 3, 5]))
    return nvars, modulus, draw(zx_terms(nvars, modulus)), draw(zx_terms(nvars, modulus))


@SETTINGS
@given(zx_pairs())
def test_zx_product_mod_p_is_the_integer_product_reduced(case):
    nvars, p, a, b = case
    integer = {}
    for (z1, x1), c1 in a.items():
        for (z2, x2), c2 in b.items():
            key = (tuple(s + t for s, t in zip(z1, z2)), tuple(s + t for s, t in zip(x1, x2)))
            integer[key] = integer.get(key, 0) + c1 * c2
    reduced = {key: c % p for key, c in integer.items() if c % p}
    product = ZXPoly(nvars, p, a) * ZXPoly(nvars, p, b)
    assert product.terms == reduced
    pair_keys = lambda u, v: (add_tuples(u[0], v[0]), add_tuples(u[1], v[1]))  # noqa: E731
    assert mul(a, b, pair_keys, p) == reduced


def test_shifted_and_the_powers_keep_their_errors():
    assert shifted((2, 0, 5), 1, 3) == (2, 3, 5)
    assert shifted((2, 0, 5), 2, -5) == (2, 0, 0)
    cases = [(LaurentPoly({1: 1}), LaurentPoly({0: 1}), "Laurent powers here must be >= 0"),
             (MultiPolyQ(1, {(1,): 1}), MultiPolyQ.constant(1, 1), "powers must be >= 0"),
             (ZXPoly(1, 3, {((1,), (0,)): 1}), ZXPoly.one(1, 3), "powers must be >= 0")]
    for x, one, text in cases:
        with pytest.raises(DomainError, match=text):
            x ** -1
        assert x**0 == one


def test_multivariate_power_matches_repeated_products():
    rng = random.Random(5)
    for _ in range(20):
        f = MultiPolyQ(2, {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3), 2)
                           for _ in range(3)})
        repeated = MultiPolyQ.constant(2, 1)
        for e in range(5):
            assert f**e == repeated
            repeated = repeated * f


def _pair_keys(u, v):
    return add_tuples(u[0], v[0]), add_tuples(u[1], v[1])


@st.composite
def laurent_case(draw):
    terms = st.dictionaries(st.integers(-3, 3), RATIONAL, max_size=5)
    return LaurentPoly, add, None, 0, draw(terms), draw(terms)


@st.composite
def multi_case(draw):
    n = draw(st.integers(1, 2))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), RATIONAL, max_size=5)
    return partial(MultiPolyQ, n), add_tuples, None, (0,) * n, draw(terms), draw(terms)


@st.composite
def zx_case(draw):
    n, p = draw(st.integers(1, 2)), draw(st.sampled_from([2, 3, 5]))
    zeros = (0,) * n
    return (partial(ZXPoly, n, p), _pair_keys, p, (zeros, zeros),
            draw(zx_terms(n, p)), draw(zx_terms(n, p)))


@pytest.mark.parametrize("case", [laurent_case(), multi_case(), zx_case()],
                         ids=["LaurentPoly", "MultiPolyQ", "ZXPoly"])
@SETTINGS
@given(data=st.data())
def test_core_ring_operations_are_the_kernel(case, data):
    build, add_keys, p, one, a, b = data.draw(case)
    f, g = build(a), build(b)
    k = data.draw(st.integers(0, 4))
    negated = {key: -c for key, c in g.terms.items()}
    expected = {
        "sum": collect([*f.terms.items(), *g.terms.items()], p),
        "difference": collect([*f.terms.items(), *negated.items()], p),
        "negation": collect(negated.items(), p),
        "product": mul(f.terms, g.terms, add_keys, p),
        "power": reduce(lambda h, _: mul(h, f.terms, add_keys, p), range(k), {one: 1}),
    }
    results = {"sum": f + g, "difference": f - g, "negation": -g, "product": f * g,
               "power": f**k}
    for name, result in results.items():
        assert result.terms == expected[name], name
        assert result == build(result.terms) == build(expected[name]), name
        assert result.is_zero == (not expected[name]), name


@pytest.mark.parametrize("left, right, text", [
    (MultiPolyQ(1, {(1,): 1}), MultiPolyQ(2, {(1, 0): 1}), "variable count mismatch"),
    (ZXPoly(1, 3, {((1,), (0,)): 1}), ZXPoly(2, 3, {((1, 0), (0, 0)): 1}),
     "mixed variable counts or moduli"),
    (ZXPoly(1, 3, {((1,), (0,)): 1}), ZXPoly(1, 5, {((1,), (0,)): 1}),
     "mixed variable counts or moduli"),
], ids=["MultiPolyQ", "ZXPoly-nvars", "ZXPoly-modulus"])
def test_mixing_rings_keeps_each_message(left, right, text):
    for operation in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(DomainError, match=text):
            operation(left, right)
        with pytest.raises(DomainError, match=text):
            operation(right, left)
    assert left != right


# Each constructor takes an exponent as an int (no bool, no int() of a float
# or a str) and a coefficient as a rational scalar, or an int residue over F_p.
CONSTRUCTORS = {
    "LaurentPoly": (LaurentPoly, 1, (1.5, "1", True)),
    "MultiPolyQ": (partial(MultiPolyQ, 2), (1, 0), ((1.5, 1), ("1", 0), (True, 0), [1, 0])),
    "ZXPoly": (partial(ZXPoly, 1, 3), ((1,), (0,)),
               (((1.5,), (0,)), ((1,), ("1",)), ((True,), (0,)))),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructors_take_int_exponents_and_checked_coefficients(name):
    build, key, bad_keys = CONSTRUCTORS[name]
    for bad in bad_keys:
        with pytest.raises(DomainError):
            build([(bad, 1)])
    bad_coefficients = (0.5, 0.0, "1", True)
    good_coefficients = (2, Rational(2), Fraction(2))
    if name == "ZXPoly":
        bad_coefficients += (Rational(2), Fraction(2))
        good_coefficients = (2, -1, 3**40 + 2)
    for bad in bad_coefficients:
        with pytest.raises(DomainError):
            build({key: bad})
    for good in good_coefficients:
        assert build({key: good}).terms == {key: good % 3 if name == "ZXPoly" else good}
