"""Property tests of the one row-reduction kernel behind `solve_linear_system`,
`nullspace_vector` and `left_dependency`, against a rank computed from
minors by cofactor expansion, so no elimination is shared with the code
under test."""

from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mzspaces.linalg import left_dependency, nullspace_vector, solve_linear_system

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

ENTRY = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=3))


def _det(m):
    if not m:
        return Fraction(1)
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j] != 0)


def _rank(matrix):
    rows, cols = len(matrix), len(matrix[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if _det([[matrix[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


@st.composite
def matrices(draw, square=False):
    """1-4 rows and columns, then up to two duplicated or zero rows or columns."""
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 4))
    m = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("copy row", "zero row", "copy col", "zero col")))
        if square:  # keep the matrix square: a row change and a column change together
            kind = draw(st.sampled_from(("copy", "zero")))
            i = draw(st.integers(0, len(m) - 1))
            if kind == "copy":
                m = [row + [row[i]] for row in m] + [list(m[i]) + [m[i][i]]]
            else:
                m = [row + [Fraction(0)] for row in m] + [[Fraction(0)] * (len(m) + 1)]
            continue
        if kind == "copy row":
            m.append(list(m[draw(st.integers(0, len(m) - 1))]))
        elif kind == "zero row":
            m.insert(draw(st.integers(0, len(m))), [Fraction(0)] * len(m[0]))
        elif kind == "copy col":
            j = draw(st.integers(0, len(m[0]) - 1))
            m = [row + [row[j]] for row in m]
        else:
            j = draw(st.integers(0, len(m[0])))
            m = [row[:j] + [Fraction(0)] + row[j:] for row in m]
    return m


@SETTINGS
@given(matrices())
def test_nullspace_vector_exactly_when_columns_outnumber_pivots(a):
    v = nullspace_vector(a)
    if len(a[0]) > _rank(a):
        assert v is not None and any(x != 0 for x in v)
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in a)
    else:
        assert v is None


@SETTINGS
@given(matrices())
def test_left_dependency_exactly_when_rows_are_dependent(a):
    c = left_dependency(a)
    if len(a) > _rank(a):
        assert c is not None and any(x != 0 for x in c)
        assert all(sum(ci * row[j] for ci, row in zip(c, a)) == 0 for j in range(len(a[0])))
    else:
        assert c is None


@SETTINGS
@given(matrices(square=True), st.data())
def test_solve_linear_system_on_square_inputs(a, data):
    b = [data.draw(ENTRY) for _ in a]
    x = solve_linear_system(a, b)
    if _rank(a) == len(a):
        assert x is not None
        assert [sum(r * xi for r, xi in zip(row, x)) for row in a] == b
    else:
        assert x is None
