"""The coefficient matrix and its exact linear algebra: the reference the
closed-form solver is tested against.

Stacking the pair sums of n abscissae in lexicographic pair order gives a
0/1 matrix C of shape (n choose 2) x n whose top n x n block is
invertible for n >= 3; ``solve_x`` is that block's inverse written in
closed form.  Nothing in the package needs the matrix itself, so it lives
with the tests.
"""

from fractions import Fraction
from typing import Sequence

from rds.errors import BadN
from rds.rat import Rat
from rds.solver import indices_set, solve_x


def coefficient_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The (n choose 2) x n 0/1 rows, row i marking pair (m_i, n_i)."""
    rows = []
    for (i, j) in indices_set(n):
        row = [0] * n
        row[i - 1] = 1
        row[j - 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def exact_det(rows: Sequence[Sequence[Rat]]) -> Fraction:
    """Determinant of a square matrix; zero when it is singular."""
    return _eliminate(rows)[1]


def exact_rank(rows: Sequence[Sequence[Rat]]) -> int:
    """Rank of a matrix of any shape."""
    return _eliminate(rows)[0]


def _eliminate(rows: Sequence[Sequence[Rat]]) -> tuple[int, Fraction]:
    """(rank, det) by exact forward elimination with partial pivoting.

    det is the signed product of the pivots when the matrix is square and
    of full rank, and zero otherwise.
    """
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    det = Fraction(1)
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        top = m[rank]
        det *= top[col]
        for r in range(rank + 1, n_rows):
            if m[r][col] != 0:
                factor = Fraction(m[r][col], top[col])
                m[r] = [a - factor * b for a, b in zip(m[r], top)]
        rank += 1
        if rank == n_rows:
            break
    return rank, det if rank == n_rows == n_cols else Fraction(0)


def head_inverse(n: int) -> list[list[Rat]]:
    """Exact inverse of the top n x n block of the coefficient matrix.

    Row 1 is (1,1,0,...,0,-1)/2, row 2 is (1,-1,0,...,0,1)/2, row 3 is
    (-1,1,0,...,0,1)/2 and row i >= 4 is (-1,-1,...,2 at column i-1,...,1)/2.
    """
    if n < 3:
        raise BadN(f"head inverse needs n >= 3, got {n}")
    # column j is the closed form on the j-th unit head
    columns = [solve_x([int(k == j) for k in range(n)]) for j in range(n)]
    return [list(row) for row in zip(*columns)]
