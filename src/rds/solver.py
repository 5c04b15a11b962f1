"""Closed-form construction and verification of rational distance sets.

Points live on y = x^2 and are identified by their abscissae x_i.  For a
pair (i, j) the distance is |x_j - x_i| * sqrt(1 + (x_i + x_j)^2), so the
set has all distances rational exactly when every pairwise sum x_i + x_j
is a Pythagorean ratio.  Stacking the pair sums in lexicographic pair
order gives a 0/1 coefficient matrix C of shape (n choose 2) x n; its top
n x n block is invertible for n >= 3, which yields the closed-form solver
and forces every tail entry to be a linear combination of the first n.
That closed form is written once, in integers, as ``solve_x_scaled``:
``solve_x`` puts a rational head over one denominator and calls it, and
``head_inverse`` is its action on the unit heads.

Index conventions: pairs are 1-based and ordered (1,2),(1,3),...,(n-1,n);
a psi vector is positional, so psi_n is the entry for pair (2,3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from .errors import BadLength, BadN, DuplicatePoint, MissingFreeParam
from .pythagorean import is_pythagorean_ratio
from .rat import Rat, isqrt


def indices_set(n: int) -> list[tuple[int, int]]:
    """The ordered 2-combinations of 1..n in lexicographic order."""
    if n < 2:
        raise BadN(f"need n >= 2, got {n}")
    return list(combinations(range(1, n + 1), 2))


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@dataclass(frozen=True)
class CoeffMatrix:
    """The (n choose 2) x n 0/1 matrix with row i marking pair (m_i, n_i)."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def top_block(self) -> list[list[int]]:
        return [list(r) for r in self.rows[: self.n]]

    def top_block_det(self) -> int:
        if self.n < 3:
            raise BadN("the top block is square only for n >= 3")
        det = exact_det(self.top_block())
        assert det.denominator == 1
        return det.numerator

    def rank(self) -> int:
        return exact_rank(self.rows)


def coefficient_matrix(n: int) -> CoeffMatrix:
    rows = []
    for (i, j) in indices_set(n):
        row = [0] * n
        row[i - 1] = 1
        row[j - 1] = 1
        rows.append(tuple(row))
    return CoeffMatrix(n=n, rows=tuple(rows))


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


def solve_x(head: Sequence[Rat], free: Rat | None = None) -> list[Rat]:
    """Abscissae from an independent ratio vector.

    For n = 2 the head is the single ratio psi_12 and ``free`` supplies the
    free coordinate r, giving (r, psi_12 - r).  For n >= 3 the head has n
    entries; it is put over the lcm P of its denominators and the closed
    form ``solve_x_scaled`` gives the abscissae over 2P.
    """
    if len(head) == 1:
        if free is None:
            raise MissingFreeParam("n = 2 needs the free parameter r")
        return [free, head[0] - free]
    if len(head) < 3:
        raise BadLength(f"head must have 1 or >= 3 entries, got {len(head)}")
    nums, den = _over_lcm(head)
    return [Fraction(v, 2 * den) for v in solve_x_scaled(nums)]


def solve_x_scaled(nums: Sequence[int]) -> list[int]:
    """The closed form x = f(psi), for a head over one common denominator.

    With psi_j = nums[j] / P for a single P > 0 and n = len(nums) >= 3,
    returns the numerators of the abscissae over the denominator 2P; the
    halves of the closed form go into that denominator, so no step leaves
    the integers.
    """
    n1, n2, nn = nums[0], nums[1], nums[-1]
    x = [n1 + n2 - nn, n1 - n2 + nn, -n1 + n2 + nn]
    base = -n1 - n2 + nn
    for v in nums[2:-1]:
        x.append(base + 2 * v)
    return x


def _over_lcm(x: Sequence[Rat]) -> tuple[list[int], int]:
    """x as integer numerators over the lcm of its denominators."""
    den = math.lcm(*(v.denominator for v in x))
    return [v.numerator * (den // v.denominator) for v in x], den


def complete_psi(head: Sequence[Rat]) -> list[Rat]:
    """Extend an n-entry head to the full (n choose 2) ratio vector.

    Tail entries are the forced linear combinations; they are returned
    whether or not they are valid ratios.  For n = 3 the head already is
    the whole vector.
    """
    n = len(head)
    if n < 3:
        raise BadLength(f"completion needs n >= 3, got {n}")
    psi = list(head)
    pn = head[-1]
    p1, p2 = head[0], head[1]
    total = pair_count(n)
    sub_pairs = indices_set(n - 3) if n >= 5 else []
    for i in range(1, total - n + 1):
        if i <= n - 3:
            psi.append(pn + head[i + 1] - p2)
        elif i <= 2 * n - 6:
            psi.append(pn + head[i + 4 - n] - p1)
        else:
            m_i, n_i = sub_pairs[i + 6 - 2 * n - 1]
            psi.append(pn + head[m_i + 1] + head[n_i + 1] - p1 - p2)
    return psi


@dataclass(frozen=True)
class PsiVector:
    """A full length-C(n,2) ratio vector split into head and forced tail."""

    n: int
    entries: tuple[Rat, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != pair_count(self.n):
            raise BadLength(
                f"psi vector for n={self.n} needs {pair_count(self.n)} entries, "
                f"got {len(self.entries)}"
            )

    @classmethod
    def from_head(cls, head: Sequence[Rat]) -> "PsiVector":
        return cls(n=len(head), entries=tuple(complete_psi(head)))

    @property
    def head(self) -> tuple[Rat, ...]:
        return self.entries[: min(self.n, len(self.entries))]

    @property
    def tail(self) -> tuple[Rat, ...]:
        return self.entries[min(self.n, len(self.entries)):]


class ExistenceCheck(NamedTuple):
    ok: bool
    tail: list[Rat]
    failing: list[int]  # 1-based positions into the full psi vector


def check_existence(head: Sequence[Rat]) -> ExistenceCheck:
    """Test that every forced tail entry is itself a Pythagorean ratio."""
    n = len(head)
    tail = complete_psi(head)[n:]
    failing = [n + k + 1 for k, v in enumerate(tail) if not is_pythagorean_ratio(v)]
    return ExistenceCheck(ok=not failing, tail=tail, failing=failing)


def check_distinct(x: Sequence[Rat]) -> bool:
    """True iff all abscissae are pairwise distinct."""
    return len(set(x)) == len(x)


def check_general_position(x: Sequence[Rat]) -> bool:
    """No four points concyclic.

    Four distinct points of y = x^2 lie on a circle exactly when their
    abscissae sum to zero (the circle-parabola intersection quartic has no
    cubic term); three points on a parabola are never collinear.  For
    n = 3 the convention adopted here excludes the mirror sets {a, -a, 0}.
    The sums are taken on x's numerators over one common denominator,
    which does not change whether a sum is zero.
    """
    n = len(x)
    if n < 3:
        return True
    nums, _ = _over_lcm(x)
    if n == 3:
        return not (0 in nums and sum(nums) == 0)
    return 0 not in map(sum, combinations(nums, 4))


def psi_from_x(x: Sequence[Rat]) -> list[Rat]:
    """Pairwise sums in lexicographic pair order (not validity-checked)."""
    return [x[i] + x[j] for i, j in combinations(range(len(x)), 2)]


class VerifyResult(NamedTuple):
    ok: bool
    distances: list[Rat | None]  # None where a pair distance is irrational
    failing_pairs: list[tuple[int, int]]  # 1-based


def verify_rds(x: Sequence[Rat]) -> VerifyResult:
    """Independent distance oracle on rational abscissae.

    Puts x over the lcm of its denominators and runs the one oracle body,
    ``verify_scaled``, which works in integers with its own square root and
    makes no use of the solver or the completion formulas.
    """
    return verify_scaled(*_over_lcm(x))


def verify_scaled(nums: Sequence[int], den: int) -> VerifyResult:
    """Independent distance oracle on the abscissae nums[i] / den, den > 0.

    The pair sum s = (X_i + X_j) / den is a ratio exactly when
    (X_i + X_j)^2 + den^2 = C^2 for an integer C, because scaling b/a by
    any k != 0 keeps a^2 + b^2 a square or a non-square; the distance is
    then |x_j - x_i| * sqrt(1 + s^2) = |X_j - X_i| * C / den^2.  Everything
    but the distances stays in integers, and nothing uses the solver or
    the completion formulas.
    """
    if not check_distinct(nums):
        raise DuplicatePoint("point abscissae must be pairwise distinct")
    den2 = den * den
    distances: list[Rat | None] = []
    failing: list[tuple[int, int]] = []
    for i, j in combinations(range(len(nums)), 2):
        c, exact = isqrt((nums[i] + nums[j]) ** 2 + den2)
        if exact:
            distances.append(Fraction(abs(nums[j] - nums[i]) * c, den2))
        else:
            distances.append(None)
            failing.append((i + 1, j + 1))
    return VerifyResult(ok=not failing, distances=distances, failing_pairs=failing)


@dataclass(frozen=True)
class Solution:
    """A verified rational distance set with its ratio provenance."""

    n: int
    x: tuple[Rat, ...]
    psi: tuple[Rat, ...]
    distances: tuple[Rat, ...]
    general_position: bool


def solution_from_x(x: Sequence[Rat] | Sequence[int], den: int | None = None) -> Solution:
    """Assemble and oracle-check a Solution from its abscissae.

    The abscissae are rationals, or with ``den`` integer numerators over
    den > 0; the oracle and the general-position test run on integers.
    """
    nums, den = _over_lcm(x) if den is None else (list(x), den)
    result = verify_scaled(nums, den)
    if not result.ok:
        raise ValueError(f"not an RDS: irrational distances at pairs {result.failing_pairs}")
    return Solution(
        n=len(nums),
        x=tuple(Fraction(v, den) for v in nums),
        psi=tuple(Fraction(s, den) for s in psi_from_x(nums)),
        distances=tuple(result.distances),
        general_position=check_general_position(nums),
    )
