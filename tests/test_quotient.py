import random
from fractions import Fraction

from mzspaces.quotient import all_idempotents, crt_idempotents
from mzspaces.upoly import Poly, RootData


def _roots(*pairs):
    return RootData([(Fraction(a), m) for a, m in pairs])


def test_crt_idempotents_frozen_two_simple_roots():
    # Modulus t(t-1): the idempotents are 1-t at 0 and t at 1.
    idem = crt_idempotents(_roots((0, 1), (1, 1)))
    assert idem[Fraction(0)] == Poly([1, -1])
    assert idem[Fraction(1)] == Poly([0, 1])


def test_crt_idempotents_frozen_single_root():
    # One primary component: the only idempotent is 1.
    idem = crt_idempotents(_roots((2, 3)))
    assert idem[Fraction(2)] == Poly([1])


def test_crt_idempotents_frozen_double_root():
    # Modulus t^2(t-1): 1-t^2 at the double root 0, t^2 at 1.
    idem = crt_idempotents(_roots((0, 2), (1, 1)))
    assert idem[Fraction(0)] == Poly([1, 0, -1])
    assert idem[Fraction(1)] == Poly([0, 0, 1])


def test_crt_idempotents_frozen_symmetric_pair():
    # Modulus t^2-1: (1+t)/2 at 1 and (1-t)/2 at -1.
    idem = crt_idempotents(_roots((1, 1), (-1, 1)))
    assert idem[Fraction(1)] == Poly([Fraction(1, 2), Fraction(1, 2)])
    assert idem[Fraction(-1)] == Poly([Fraction(1, 2), Fraction(-1, 2)])


def _random_root_data(rng, max_roots=3, max_mult=3):
    count = rng.randint(1, max_roots)
    chosen = {}
    while len(chosen) < count:
        lam = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2]))
        chosen[lam] = rng.randint(1, max_mult)
    return RootData(sorted(chosen.items()))


def test_crt_idempotent_laws_random():
    rng = random.Random(61803)
    for _ in range(100):
        roots = _random_root_data(rng)
        f = roots.poly()
        idem = crt_idempotents(roots)
        assert list(idem) == list(roots.roots)
        items = list(idem.items())
        total = Poly()
        for lam, e in items:
            assert e.degree < f.degree
            assert (e * e) % f == e
            total = total + e
            # g_lam acts as 1 at lam: it is 1 + (t-lam)-multiple of high order.
            assert e(lam) == 1
        assert total == Poly([1])
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                assert ((items[i][1] * items[j][1]) % f).is_zero


def test_all_idempotents_counts_and_laws():
    rng = random.Random(271828)
    for _ in range(25):
        roots = _random_root_data(rng)
        f = roots.poly()
        every = list(all_idempotents(roots))
        count = len(roots)
        assert len(every) == 2 ** count
        seen = set()
        for e in every:
            assert (e * e) % f == e
            seen.add(e.coeffs)
        assert len(seen) == 2 ** count
        assert every[0].is_zero
        assert every[-1] == Poly([1])
        # Size-then-lexicographic order: the root idempotents follow zero.
        assert every[1:count + 1] == list(crt_idempotents(roots).values())

