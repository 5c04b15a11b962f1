"""Closed-form construction and verification of rational distance sets.

Points live on y = x^2 and are identified by their abscissae x_i.  For a
pair (i, j) the distance is |x_j - x_i| * sqrt(1 + (x_i + x_j)^2), so the
set has all distances rational exactly when every pairwise sum x_i + x_j
is a Pythagorean ratio.  Stacking the pair sums in lexicographic pair
order gives a 0/1 coefficient matrix C of shape (n choose 2) x n; its top
n x n block is invertible for n >= 3, which yields the closed-form solver
and forces every tail entry to be a linear combination of the first n
(``tests/matrix_reference.py`` builds C and checks both).  That closed
form is written once, in integers, as ``solve_x_scaled``: ``solve_x``
puts a rational head over one denominator and calls it.

The distance oracle is written once too, as ``pair_roots``: an integer
square root per pair of abscissae over one denominator.  ``verify_scaled``
turns its roots into a ``Fraction`` verdict, and ``solution_from_x`` keeps
them in an integer-backed ``Solution``, from which every record is
rendered.

Index conventions: pairs are 1-based and ordered (1,2),(1,3),...,(n-1,n);
a psi vector is positional, so psi_n is the entry for pair (2,3).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from .errors import BadLength, BadN, DuplicatePoint, MissingFreeParam
from .pythagorean import is_pythagorean_ratio
from .rat import Rat


def indices_set(n: int) -> list[tuple[int, int]]:
    """The ordered 2-combinations of 1..n in lexicographic order."""
    if n < 2:
        raise BadN(f"need n >= 2, got {n}")
    return list(combinations(range(1, n + 1), 2))


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

    The tail is the paper's three groups of forced entries over the middle
    entries psi_3..psi_(n-1): psi_n + psi_k - psi_2 for each k, then
    psi_n + psi_k - psi_1 for each k, then psi_n + psi_a + psi_b - psi_1 -
    psi_2 for each pair a < b.  They are returned whether or not they are
    valid ratios.  For n = 3 there is no middle, and the head already is
    the whole vector.
    """
    if len(head) < 3:
        raise BadLength(f"completion needs n >= 3, got {len(head)}")
    p1, p2, pn = head[0], head[1], head[-1]
    mid = head[2:-1]
    return (
        list(head)
        + [pn + v - p2 for v in mid]
        + [pn + v - p1 for v in mid]
        + [pn + a + b - p1 - p2 for a, b in combinations(mid, 2)]
    )


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
    return general_position_scaled(_over_lcm(x)[0])


def general_position_scaled(nums: Sequence[int]) -> bool:
    """``check_general_position`` on the numerators of x over one den > 0."""
    if len(nums) == 3:
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

    Puts x over the lcm of its denominators and runs ``verify_scaled``,
    which works in integers with its own square root and makes no use of
    the solver or the completion formulas.
    """
    return verify_scaled(*_over_lcm(x))


def verify_scaled(nums: Sequence[int], den: int) -> VerifyResult:
    """Independent distance oracle on the abscissae nums[i] / den, den > 0.

    The pair roots come from ``pair_roots``, the one oracle body; only the
    distances of this verdict are ``Fraction``s.
    """
    roots = pair_roots(nums, den)
    den2 = den * den
    distances: list[Rat | None] = [
        None if d is None else Fraction(d, den2) for d in distance_nums(nums, roots)
    ]
    pairs = combinations(range(1, len(nums) + 1), 2)
    failing = [pair for pair, c in zip(pairs, roots) if c is None]
    return VerifyResult(ok=not failing, distances=distances, failing_pairs=failing)


def pair_roots(nums: Sequence[int], den: int) -> list[int | None]:
    """The oracle body: per pair, in lexicographic order, the integer root C
    of (X_i + X_j)^2 + den^2, or None where that is not a square.

    The pair sum s = (X_i + X_j) / den of the abscissae nums / den is a
    ratio exactly when (X_i + X_j)^2 + den^2 = C^2 for an integer C,
    because scaling b/a by any k != 0 keeps a^2 + b^2 a square or a
    non-square; the distance |x_j - x_i| * sqrt(1 + s^2) is then
    |X_j - X_i| * C / den^2.  It works in integers with its own square
    root and uses neither the solver nor the completion formulas.
    """
    if not check_distinct(nums):
        raise DuplicatePoint("point abscissae must be pairwise distinct")
    den2 = den * den
    roots: list[int | None] = []
    for a, b in combinations(nums, 2):
        square = (a + b) ** 2 + den2
        c = math.isqrt(square)
        roots.append(c if c * c == square else None)
    return roots


def distance_nums(nums: Sequence[int], roots: Sequence[int | None]) -> list[int | None]:
    """The distance numerators |X_j - X_i| * C over den^2, per pair; None
    where the pair has no root."""
    return [
        None if c is None else abs(b - a) * c
        for (a, b), c in zip(combinations(nums, 2), roots)
    ]


class Solution(NamedTuple):
    """A verified rational distance set, held in integers.

    The abscissae are nums[i] / den with gcd(den, *nums) = 1, so an equal
    set compares equal however it was scaled; roots[k] is the oracle's
    root C for the k-th pair in lexicographic order.  ``x``, ``psi`` and
    ``distances`` are ``Fraction`` views for library callers; the records
    are rendered from the integers.
    """

    nums: tuple[int, ...]
    den: int
    roots: tuple[int, ...]
    general_position: bool

    @property
    def n(self) -> int:
        return len(self.nums)

    @property
    def x(self) -> tuple[Rat, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def psi(self) -> tuple[Rat, ...]:
        return tuple(Fraction(s, self.den) for s in psi_from_x(self.nums))

    @property
    def distances(self) -> tuple[Rat, ...]:
        den2 = self.den * self.den
        return tuple(Fraction(d, den2) for d in distance_nums(self.nums, self.roots))


def solution_from_x(x: Sequence[Rat] | Sequence[int], den: int | None = None) -> Solution:
    """Assemble and oracle-check a Solution from its abscissae.

    The abscissae are rationals, or with ``den`` integer numerators over
    den > 0.  They are reduced by gcd(den, *nums) and run through
    ``pair_roots``; a pair without a root raises ValueError.
    """
    nums, den = _over_lcm(x) if den is None else (x, den)
    g = math.gcd(den, *nums)
    if g > 1:
        nums, den = [v // g for v in nums], den // g
    roots = pair_roots(nums, den)
    if None in roots:
        failing = verify_scaled(nums, den).failing_pairs
        raise ValueError(f"not an RDS: irrational distances at pairs {failing}")
    return Solution(tuple(nums), den, tuple(roots), general_position_scaled(nums))
