"""Primitive Pythagorean triplets and the ratios derived from them.

A triplet (alpha, beta, gamma) has alpha^2 + beta^2 = gamma^2 with
gamma > 0.  Its ratios are the four values +-beta/alpha and +-alpha/beta;
together with the zero ratio these are the building blocks for rational
distance sets.  A fraction b/a is such a ratio exactly when a^2 + b^2 is a
perfect square, reduced or not, which keeps the membership test independent
of any hypotenuse bound.

Generation uses the Euclid parametrization: for coprime m > n > 0 of
opposite parity, (m^2 - n^2, 2mn, m^2 + n^2) enumerates every all-positive
primitive triplet exactly once up to leg order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, EmptyInterval, NotARatio
from .rat import Rat, ZERO, is_perfect_square, isqrt

SIGN_POSITIVE = "positive"
SIGN_NEGATIVE = "negative"
SIGN_ZERO = "zero"
ORDER_NATURAL = "naturally_ordered"
ORDER_OPPOSITE = "oppositely_ordered"
ORDER_NONE = "none"


@dataclass(frozen=True)
class Triplet:
    """An integer Pythagorean triplet with gamma > 0."""

    alpha: int
    beta: int
    gamma: int
    primitive: bool = True

    def __post_init__(self) -> None:
        if self.alpha == 0 or self.beta == 0 or self.gamma <= 0:
            raise ValueError(f"degenerate triplet {(self.alpha, self.beta, self.gamma)}")
        if self.alpha**2 + self.beta**2 != self.gamma**2:
            raise ValueError(f"not Pythagorean: {(self.alpha, self.beta, self.gamma)}")


@dataclass(frozen=True)
class RatioClass:
    """Sign and ordering class of a ratio (|psi| > 1 is naturally ordered)."""

    sign: str
    ordering: str

    @property
    def label(self) -> str:
        return f"{self.sign}/{self.ordering}"


@dataclass(frozen=True)
class RatioPool:
    """All ratios of primitive triplets with hypotenuse <= gamma_bound.

    ``ratios`` is sorted ascending and deduplicated; with the zero ratio
    included its length is 4*T + 1 where T = primitive_count.
    """

    gamma_bound: int
    ratios: tuple[Rat, ...]
    include_zero: bool
    primitive_count: int


def _euclid_pairs(gamma_bound: int) -> Iterator[tuple[int, int]]:
    # m > n > 0, coprime, opposite parity, m^2 + n^2 <= gamma_bound
    m = 2
    while m * m + 1 <= gamma_bound:
        for n in range(1, m):
            if (m - n) % 2 == 1 and math.gcd(m, n) == 1 and m * m + n * n <= gamma_bound:
                yield m, n
        m += 1


def primitive_triplets(gamma_bound: int) -> list[Triplet]:
    """All-positive naturally-ordered primitive triplets with gamma <= bound.

    Sorted by (gamma, alpha); empty for gamma_bound < 5.
    """
    if gamma_bound < 1:
        raise DomainError(f"gamma_bound must be positive, got {gamma_bound}")
    out = []
    for m, n in _euclid_pairs(gamma_bound):
        odd, even = m * m - n * n, 2 * m * n
        a, b = (odd, even) if odd < even else (even, odd)
        out.append(Triplet(a, b, m * m + n * n))
    out.sort(key=lambda t: (t.gamma, t.alpha))
    return out


def ratios_of(t: Triplet) -> set[Rat]:
    """The four ratio variants {beta/alpha, -beta/alpha, alpha/beta, -alpha/beta}."""
    q = Rat(t.beta, t.alpha)
    p = Rat(t.alpha, t.beta)
    return {q, -q, p, -p}


def build_pool(gamma_bound: int, include_zero: bool = True) -> RatioPool:
    """Collect the deduplicated, sorted ratio pool for a hypotenuse bound."""
    triplets = primitive_triplets(gamma_bound)
    ratios: set[Rat] = set()
    for t in triplets:
        ratios.update(ratios_of(t))
    if include_zero:
        ratios.add(ZERO)
    return RatioPool(
        gamma_bound=gamma_bound,
        ratios=tuple(sorted(ratios)),
        include_zero=include_zero,
        primitive_count=len(triplets),
    )


def is_ratio_pair(b: int, a: int) -> bool:
    """True iff b/a is a Pythagorean ratio, for integers b and a != 0.

    a^2 + b^2 is a perfect square exactly when (ka)^2 + (kb)^2 is, for any
    k != 0, so the pair need not be reduced: the search kernels pass
    unreduced numerators and denominators and never build a Fraction.  The
    zero ratio passes without a branch, since 0^2 + a^2 is a square.  This
    test sits in the search kernels' innermost loops, so it stays free of
    helper calls.
    """
    s = a * a + b * b
    r = math.isqrt(s)
    return r * r == s


def is_pythagorean_ratio(q: Rat) -> bool:
    """True iff, for canonical q = b/a, a^2 + b^2 is a perfect square."""
    return is_ratio_pair(q.numerator, q.denominator)


def min_hypotenuse(q: Rat) -> int:
    """Hypotenuse of the primitive triplet realizing a nonzero ratio."""
    if q == 0:
        raise NotARatio("the zero ratio has no realizing triplet")
    a = q.denominator
    b = q.numerator
    root, exact = isqrt(a * a + b * b)
    if not exact:
        raise NotARatio(f"{q} is not a Pythagorean ratio")
    return root


def classify_ratio(q: Rat) -> RatioClass:
    """Sign/ordering class of a ratio; raises NotARatio for non-ratios."""
    if not is_pythagorean_ratio(q):
        raise NotARatio(f"{q} is not a Pythagorean ratio")
    if q == 0:
        return RatioClass(SIGN_ZERO, ORDER_NONE)
    sign = SIGN_POSITIVE if q > 0 else SIGN_NEGATIVE
    ordering = ORDER_NATURAL if abs(q) > 1 else ORDER_OPPOSITE
    return RatioClass(sign, ordering)


def nu(p: int, q: int) -> int:
    """Counting indicator on p/q in (0,1): 1 iff 2q(q-p) is a perfect square.

    When it is, alpha = q - p + sqrt(2q(q-p)) gives the triplet
    (alpha, alpha + p, alpha + q).
    """
    if not 0 < p < q:
        raise DomainError(f"need 0 < p < q, got p={p} q={q}")
    return 1 if is_perfect_square(2 * q * (q - p)) else 0


def nu_triplet(p: int, q: int) -> Triplet | None:
    """The triplet witnessing nu(p, q) == 1, or None."""
    if nu(p, q) == 0:
        return None
    root, _ = isqrt(2 * q * (q - p))
    alpha = q - p + root
    beta, gamma = alpha + p, alpha + q
    primitive = math.gcd(math.gcd(alpha, beta), gamma) == 1
    return Triplet(alpha, beta, gamma, primitive=primitive)


def find_ratio_in_interval(lo: Rat, hi: Rat, gamma_cap: int) -> Rat | None:
    """A pool ratio in the open interval (lo, hi), or None.

    Returns the ratio whose realizing triplet has the smallest hypotenuse
    <= gamma_cap (the zero ratio counts as smallest of all); ties within
    a triplet resolve to the smaller value.  Deterministic.
    """
    if lo >= hi:
        raise EmptyInterval(f"need lo < hi, got [{lo}, {hi}]")
    if lo < 0 < hi:
        return ZERO
    # Staged caps: triplets are scanned in (gamma, alpha) order, so the
    # first hit realizes the minimal hypotenuse; growing the cap only
    # when a stage misses keeps large gamma_cap probes cheap.
    cap = min(100, gamma_cap)
    while True:
        for t in primitive_triplets(cap):
            hits = sorted(r for r in ratios_of(t) if lo < r < hi)
            if hits:
                return hits[0]
        if cap == gamma_cap:
            return None
        cap = min(cap * 10, gamma_cap)
