"""Property tests of scalars.Rational against the stdlib Fraction: each
operation on int, Rational and Fraction operands, and the decision, the
moments and the idempotents on stdlib Fraction inputs and on the same
values as text read by the CLI, against the Fraction references in
`selftest`."""

import copy
import json
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mzspaces import cli
from mzspaces.errors import DomainError
from mzspaces.functionals import FunctionalNF, from_moments, to_moments
from mzspaces.mzdecide import SubspaceSpec, decide_mz, normalize
from mzspaces.quotient import crt_idempotents
from mzspaces.scalars import Rational
from mzspaces.selftest import (
    idempotent_by_field_arithmetic,
    modulus_by_field_arithmetic,
    moments_by_field_arithmetic,
    oracle_by_enumeration,
)
from mzspaces.upoly import Poly, RootData

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

NONZERO = st.integers(-12, 12).filter(bool)
RATIONAL = st.builds(Rational, st.integers(-60, 60), NONZERO)
OPERAND = st.one_of(st.integers(-60, 60), RATIONAL,
                    st.builds(Fraction, st.integers(-60, 60), NONZERO))


def _fraction(x) -> Fraction:
    return Fraction(x.numerator, x.denominator)


def _same(got, want: Fraction):
    """Equal in value, as text and as hash, and a Rational even when integral."""
    assert type(got) is Rational
    assert got == want and want == got
    assert str(got) == str(want)
    assert hash(got) == hash(want)


@SETTINGS
@given(OPERAND, OPERAND)
def test_binary_operations_match_fraction(a, b):
    assume(type(a) is Rational or type(b) is Rational)
    fa, fb = _fraction(a), _fraction(b)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        try:
            want = op(fa, fb)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(a, b)
            continue
        _same(op(a, b), want)
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(a, b) is op(fa, fb)


@SETTINGS
@given(RATIONAL, st.integers(-5, 5))
def test_unary_operations_match_fraction(q, exponent):
    f = _fraction(q)
    _same(-q, -f)
    _same(abs(q), abs(f))
    assert str(q) == str(f) and hash(q) == hash(f)
    assert int(q) == int(f) and bool(q) is bool(f)
    try:
        want = f**exponent
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            q**exponent
    else:
        _same(q**exponent, want)
    # Equal values are one dict key, whichever of int, Rational and Fraction.
    assert {f: "f"}[q] == "f" and {q: "q"}[f] == "q"
    for copied in (copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        _same(copied, f)


def test_no_silent_coercion():
    half = Rational(1, 2)
    for bad in (0.5, "1/2", None, 1j):
        with pytest.raises(TypeError):
            Rational(bad)
        with pytest.raises(TypeError):
            half + bad
        with pytest.raises(TypeError):
            bad * half
    with pytest.raises(TypeError):
        half < 0.5
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)
    assert type(Rational(4, 2) / 2) is Rational
    # The hash of a denominator that the hash modulus divides.
    modulus = 2**61 - 1
    assert hash(Rational(3, modulus)) == hash(Fraction(3, modulus))


@SETTINGS
@given(OPERAND)
def test_fraction_of_numerator_and_denominator_converts_back(x):
    """Rational is not a numbers.Rational, so Fraction(x) refuses it; the
    documented way back is Fraction(x.numerator, x.denominator), for an
    int too, and Rational(Fraction) is the way forth."""
    if type(x) is Rational:
        with pytest.raises(TypeError):
            Fraction(x)
    back = Fraction(x.numerator, x.denominator)
    assert type(back) is Fraction
    assert back == x and str(back) == str(x) and hash(back) == hash(x)
    forth = Rational(back)
    _same(forth, back)
    assert (forth.numerator, forth.denominator) == (x.numerator, x.denominator)


COEFF = st.one_of(st.builds(Fraction, st.integers(-5, 5)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=9))


@st.composite
def fraction_inputs(draw):
    """(roots, functionals): distinct stdlib Fraction roots with
    multiplicities, and 1-2 functionals, each {root: operator coefficients}."""
    lams = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                         min_size=1, max_size=4, unique=True))
    roots = [(lam, draw(st.integers(1, 3))) for lam in lams]
    functionals = [{lam: [draw(COEFF) for _ in range(draw(st.integers(0, mult)))]
                    for lam, mult in roots} for _ in range(draw(st.integers(1, 2)))]
    if len(lams) > 1 and draw(st.booleans()):  # the first two roots balance
        for fn in functionals:
            c = draw(COEFF)
            fn[lams[0]] = [c, *fn[lams[0]][1:]]
            fn[lams[1]] = [-c, *fn[lams[1]][1:]]
    return roots, functionals


def _fraction_spec(roots, functionals) -> SubspaceSpec:
    data = RootData(roots)
    return SubspaceSpec([FunctionalNF(data, Poly(fn.get(0, [])),
                                      {lam: Poly(c) for lam, c in fn.items() if lam != 0})
                         for fn in functionals])


def _text_spec(roots, functionals) -> SubspaceSpec:
    """The same spec written as JSON text and read back by the CLI."""
    data = {"roots": [[str(lam), mult] for lam, mult in roots],
            "functionals": [{"P0": [str(c) for c in fn.get(0, [])],
                             "parts": {str(lam): [str(c) for c in cs]
                                       for lam, cs in fn.items() if lam != 0}}
                            for fn in functionals]}
    return cli._spec_from_json(json.loads(json.dumps(data)))


def _decision(spec):
    try:
        normalized = normalize(spec)
    except DomainError as exc:
        return str(exc), None
    return normalized, decide_mz(normalized)


@SETTINGS
@given(fraction_inputs())
def test_library_on_fraction_and_on_cli_text_matches_the_fraction_references(inputs):
    by_fraction, by_text = _fraction_spec(*inputs), _text_spec(*inputs)
    roots = by_fraction.roots
    modulus = modulus_by_field_arithmetic(roots)
    count = roots.degree + 2
    for fn_fraction, fn_text in zip(by_fraction.functionals, by_text.functionals):
        want = tuple(moments_by_field_arithmetic(fn_fraction, count))
        for fn in (fn_fraction, fn_text):
            got = to_moments(fn, count)
            assert got == want and list(map(str, got)) == list(map(str, want))
        assert from_moments(want[:roots.degree], roots) == fn_fraction
        back = from_moments(to_moments(fn_text, roots.degree), by_text.roots)
        assert back == fn_text
    references = {lam: idempotent_by_field_arithmetic(modulus, lam, mult) for lam, mult in roots}
    for data in (roots, by_text.roots):
        got = crt_idempotents(data)
        assert list(got.values()) == list(references.values())
        assert [cli.poly_to_json(e) for e in got.values()] == \
            [cli.poly_to_json(e) for e in references.values()]
    (normalized, verdict), (_, text_verdict) = _decision(by_fraction), _decision(by_text)
    assert text_verdict == verdict
    if verdict is None:  # the same rejection on both sides
        assert normalized == _decision(by_text)[0]
        return
    assert verdict.is_mz is oracle_by_enumeration(normalized)
    if not verdict.is_mz:
        f = modulus_by_field_arithmetic(normalized.roots)
        expected = sum((idempotent_by_field_arithmetic(f, lam, normalized.roots.multiplicity(lam))
                        for lam in verdict.witness_subset), Poly())
        assert verdict.witness_idempotent == expected
