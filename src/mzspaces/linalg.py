"""Exact Gaussian elimination over Q, pivoting on the first nonzero entry."""

from .scalars import scalar_inverse


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination on the first ncols columns of rows (lists,
    replaced in place).  Returns {pivot column: its row}; each pivot row is 1
    at its pivot and 0 in every other pivot column."""
    pivots = {}
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = scalar_inverse(rows[rank][col])
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    return {col: rows[r] for col, r in pivots.items()}


def solve_linear_system(matrix, rhs):
    """Solve the square system A x = b exactly; None if A is singular."""
    n = len(matrix)
    pivots = _row_reduce([list(row) + [rhs[i]] for i, row in enumerate(matrix)], n)
    if len(pivots) < n:
        return None
    return [pivots[col][n] for col in range(n)]


def nullspace_vector(matrix):
    """One nonzero kernel vector of A (m rows, n cols), or None if injective."""
    if not matrix:
        return None
    ncols = len(matrix[0])
    pivots = _row_reduce([list(r) for r in matrix], ncols)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    vec = [0] * ncols
    vec[free] = 1
    for col, row in pivots.items():
        vec[col] = -row[free]
    return vec


def left_dependency(matrix):
    """Nonzero c with c . A = 0 row-wise, or None when the rows are independent."""
    if not matrix:
        return None
    transposed = [[row[i] for row in matrix] for i in range(len(matrix[0]))]
    return nullspace_vector(transposed)
