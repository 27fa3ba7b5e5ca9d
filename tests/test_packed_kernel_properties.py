"""Property tests of the packed-integer kernel in `scalars` and the
products built on it: `pack`/`unpack`/`packed_digit` round trips up to the
width bound, `int_poly_mul` against the schoolbook `Poly.__mul__`,
`certificates._expand_power` against repeated `int_poly_mul`, and the trace
test's packed rows with a diagonal entry at the last byte of its width."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mzspaces.certificates import _expand_power
from mzspaces.probes import MatrixQ, trace_radical_test
from mzspaces.scalars import digit_width, pack, packed_digit, unpack
from mzspaces.selftest import traces_by_matrix_powers
from mzspaces.upoly import Poly, int_poly_mul

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def digit_lists(draw):
    """(values, width): 0-12 signed digits of width 1-5 bytes, drawn from
    the whole range +-(2^(8 width - 1) - 1), its two ends and zero."""
    width = draw(st.integers(1, 5))
    top = (1 << (8 * width - 1)) - 1
    value = st.one_of(st.integers(-top, top), st.sampled_from((top, -top, 0, 1, -1)))
    return draw(st.lists(value, max_size=12)), width


EDGE = (1 << 15) - 1  # the largest digit of width 2


@SETTINGS
@given(digit_lists())
@example(([], 1))
@example(([0], 1))
@example(([-127], 1))
@example(([EDGE, -EDGE, EDGE, -EDGE], 2))
@example(([-EDGE] * 7, 2))
@example(([0, 0, 0, 5], 3))
def test_pack_round_trips_up_to_the_width_bound(case):
    values, width = case
    packed = pack(values, width)
    assert packed == sum(v << (8 * width * k) for k, v in enumerate(values))
    assert unpack(packed, width, len(values)) == values
    assert [packed_digit(packed, width, k) for k in range(len(values))] == values


@SETTINGS
@given(st.integers(0, 2**200))
@example(0)
@example(127)
@example(128)
@example(2**15 - 1)
@example(2**15)
def test_digit_width_is_the_least_that_holds_the_bound(bound):
    width = digit_width(bound)
    assert bound < 1 << (8 * width - 1)
    assert width == 1 or bound >= 1 << (8 * width - 9)


COEFFS = st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70)), max_size=14)


@SETTINGS
@given(COEFFS, COEFFS)
@example([], [3])
@example([0, 0], [5, -7])
@example([-1], [2**64])
@example([2**63 - 1] * 9, [2**63 - 1] * 12)
@example([(-1) ** k * (2**40 - 1) for k in range(10)], [2**40 - 1] * 10)
def test_int_poly_mul_equals_the_schoolbook_product(a, b):
    product = int_poly_mul(a, b)
    assert len(product) == (len(a) + len(b) - 1 if a and b else 0)
    assert Poly(product) == Poly(a) * Poly(b)


@SETTINGS
@given(st.lists(st.integers(-2**40, 2**40), max_size=6), st.integers(0, 9))
@example([], 0)
@example([], 3)
@example([0], 4)
@example([-1], 7)
@example([2**40] * 6, 9)
def test_expand_power_equals_repeated_products(base, power):
    expected = [1]
    for _ in range(power):
        expected = int_poly_mul(expected, base)
    assert _expand_power(base, power) == expected


# Diagonal c I with c^n just below 2^7 or 2^15, the largest digits of widths
# 1 and 2: the trace test's last power then fills its digit to the top.
@pytest.mark.parametrize("n, c, width", [
    (1, 127, 1), (1, -127, 1), (2, 11, 1), (3, -5, 1),
    (1, 2**15 - 1, 2), (1, -(2**15 - 1), 2), (2, 181, 2), (2, -181, 2), (3, 31, 2), (3, -31, 2),
])
def test_trace_kernel_at_the_byte_width_bound(n, c, width):
    assert digit_width(abs(c) ** n) == width
    matrix = MatrixQ([[c * (i == j) for j in range(n)] for i in range(n)])
    report = trace_radical_test(matrix)
    assert (report.traces, report.nilpotency_witness) == traces_by_matrix_powers(matrix)
