import math
import random
from fractions import Fraction

import pytest

from mzspaces.cli import functional_from_json, functional_to_json
from mzspaces.errors import DomainError
from mzspaces.functionals import (
    FunctionalNF,
    dependency_relation,
    evaluate,
    from_moments,
    largest_ideal_exponents,
    to_moments,
)
from mzspaces.quotient import crt_idempotents
from mzspaces.selftest import random_functional, random_root_data
from mzspaces.upoly import Poly, RootData


def _roots(*pairs):
    return RootData([(Fraction(a), m) for a, m in pairs])


def test_monomial_values_at_root_zero():
    # With operator b0 + b1 d/dt + b2 (d/dt)^2 at the root 0, the value on
    # t^n is b_n * n! for n below the multiplicity and 0 from degree 3 on.
    roots = _roots((0, 3))
    fn = FunctionalNF(roots, zero_part=Poly([2, -1, Fraction(1, 3)]))
    values = to_moments(fn, 6)
    assert values == (2, -1, Fraction(2, 3), 0, 0, 0)
    for n, b in enumerate([2, -1, Fraction(1, 3)]):
        assert values[n] == b * math.factorial(n)


def test_monomial_values_at_nonzero_root():
    # With operator c0 + c1 D at the root lam, the value on t^n is
    # (c0 + c1 n) lam^n.
    lam = Fraction(3, 2)
    roots = RootData([(lam, 2)])
    fn = FunctionalNF(roots, parts={lam: Poly([1, 4])})
    for n in range(7):
        expected = (1 + 4 * n) * lam ** n
        assert evaluate(fn, Poly.monomial(n)) == expected


def test_evaluate_is_linear():
    rng = random.Random(5151)
    roots = _roots((0, 2), (1, 2), (-2, 1))
    fn = FunctionalNF(
        roots,
        zero_part=Poly([1, Fraction(-1, 2)]),
        parts={Fraction(1): Poly([0, 3]), Fraction(-2): Poly([5])},
    )
    for _ in range(60):
        g = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
        h = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
        c = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        assert evaluate(fn, g + h) == evaluate(fn, g) + evaluate(fn, h)
        assert evaluate(fn, g.scale(c)) == c * evaluate(fn, g)


def test_functional_kills_multiples_of_char_poly():
    rng = random.Random(333)
    roots = _roots((0, 2), (2, 1), (-1, 2))
    f = roots.poly()
    fn = FunctionalNF(
        roots,
        zero_part=Poly([1, 1]),
        parts={Fraction(2): Poly([Fraction(1, 2)]), Fraction(-1): Poly([0, 1])},
    )
    for _ in range(40):
        g = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 21))])
        assert evaluate(fn, f * g) == 0
    # Same annihilation law quantified over random functionals, with the
    # multiplier degree pushed to 20.
    for _ in range(25):
        rand_roots = random_root_data(rng)
        rand_fn = random_functional(rng, rand_roots)
        g = Poly([rng.randint(-4, 4) for _ in range(21)])
        assert evaluate(rand_fn, rand_roots.poly() * g) == 0


def test_value_on_crt_idempotent_is_constant_term():
    # L(g_lam) recovers P_lam(0) for every root, including 0.
    roots = _roots((0, 2), (1, 1), (-1, 1))
    idem = crt_idempotents(roots)
    fn = FunctionalNF(
        roots,
        zero_part=Poly([Fraction(5, 3), 1]),
        parts={Fraction(1): Poly([-2]), Fraction(-1): Poly([Fraction(7, 2)])},
    )
    assert evaluate(fn, idem[Fraction(0)]) == Fraction(5, 3)
    assert evaluate(fn, idem[Fraction(1)]) == -2
    assert evaluate(fn, idem[Fraction(-1)]) == Fraction(7, 2)


def test_from_moments_frozen_symmetric_pair():
    roots = _roots((1, 1), (-1, 1))
    fn = from_moments([Fraction(2), Fraction(0)], roots)
    assert fn.zero_part.is_zero
    assert fn.parts == {Fraction(1): Poly([1]), Fraction(-1): Poly([1])}


def test_from_moments_frozen_double_zero():
    roots = _roots((0, 2))
    fn = from_moments([Fraction(0), Fraction(1)], roots)
    assert fn.zero_part == Poly([0, 1])
    assert fn.parts == {}


def test_moments_roundtrip_random():
    rng = random.Random(171717)
    for _ in range(60):
        count = rng.randint(1, 3)
        chosen = {}
        while len(chosen) < count:
            lam = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            chosen[lam] = rng.randint(1, 3)
        roots = RootData(sorted(chosen.items()))
        n = roots.degree
        values = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n)]
        fn = from_moments(values, roots)
        assert to_moments(fn, n) == tuple(values)
        # Moments beyond n obey the recurrence implicitly: rebuild and compare.
        again = from_moments(to_moments(fn, n), roots)
        assert again == fn


def test_from_moments_rejects_a_wrong_count():
    roots = _roots((1, 1), (-1, 1))
    for values in ([Fraction(1)], [Fraction(1)] * 3):
        with pytest.raises(DomainError, match="moment count must equal the characteristic degree"):
            from_moments(values, roots)


# A float or a string coefficient would fail inside the integer kernels, and
# a bool would be read as 1: each is refused where the functional is built.
@pytest.mark.parametrize("coeff", [0.5, "1", True], ids=["float", "str", "bool"])
def test_functional_coefficients_must_be_rational(coeff):
    with pytest.raises(DomainError, match="needs rational scalars"):
        FunctionalNF(RootData([(1, 2)]), parts={1: Poly([coeff])})


def test_functional_nf_validation():
    roots = _roots((1, 2),)
    with pytest.raises(DomainError):
        FunctionalNF(roots, zero_part=Poly([1]))  # 0 is not a root
    with pytest.raises(DomainError):
        FunctionalNF(roots, parts={Fraction(1): Poly([0, 0, 1])})  # degree too high
    with pytest.raises(DomainError):
        FunctionalNF(roots, parts={Fraction(5): Poly([1])})  # not a root
    zero_fn = FunctionalNF(roots)
    assert zero_fn.is_zero
    dropped = FunctionalNF(roots, parts={Fraction(1): Poly([])})
    assert dropped.parts == {}


def test_largest_ideal_exponents_frozen():
    roots = _roots((0, 3), (1, 2), (2, 2))
    f1 = FunctionalNF(roots, zero_part=Poly([0, 1]),
                      parts={Fraction(1): Poly([3])})
    f2 = FunctionalNF(roots, parts={Fraction(1): Poly([0, 1])})
    exps = largest_ideal_exponents([f1, f2])
    # 1 + max operator degree per root; untouched roots drop to 0.
    assert exps == {Fraction(0): 2, Fraction(1): 2, Fraction(2): 0}


def test_largest_ideal_exponents_requires_common_roots():
    a = FunctionalNF(_roots((1, 1)), parts={Fraction(1): Poly([1])})
    b = FunctionalNF(_roots((2, 1)), parts={Fraction(2): Poly([1])})
    with pytest.raises(DomainError):
        largest_ideal_exponents([a, b])


def test_dependency_relation_detects_collinear_functionals():
    roots = _roots((1, 1), (-1, 1))
    f1 = FunctionalNF(roots, parts={Fraction(1): Poly([1]), Fraction(-1): Poly([1])})
    f2 = FunctionalNF(roots, parts={Fraction(1): Poly([2]), Fraction(-1): Poly([2])})
    relation = dependency_relation([f1, f2], roots.degree)
    assert relation is not None
    c1, c2 = relation
    # The relation must actually annihilate all moments.
    for n in range(roots.degree):
        g = Poly.monomial(n)
        assert c1 * evaluate(f1, g) + c2 * evaluate(f2, g) == 0
    # An independent pair reports nothing.
    f3 = FunctionalNF(roots, parts={Fraction(1): Poly([1]), Fraction(-1): Poly([-1])})
    assert dependency_relation([f1, f3], roots.degree) is None


def test_functional_json_roundtrip():
    roots = _roots((0, 2), (1, 1), (Fraction(-1, 2), 2))
    fn = FunctionalNF(
        roots,
        zero_part=Poly([Fraction(1, 3), -2]),
        parts={Fraction(1): Poly([4]), Fraction(-1, 2): Poly([0, Fraction(2, 7)])},
    )
    data = functional_to_json(fn)
    assert set(data) == {"P0", "parts"}
    assert functional_from_json(data, roots) == fn
