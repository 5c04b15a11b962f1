"""Triplet generation, ratio pools, classification, nu, density probes."""

import random
from fractions import Fraction
from math import comb, gcd, isqrt as floor_sqrt, pi

import pytest
from hypothesis import example, given, strategies as st

from rds.errors import DomainError, EmptyInterval, NotARatio
from rds.pythagorean import (
    build_pool,
    classify_ratio,
    find_ratio_in_interval,
    is_pythagorean_ratio,
    is_ratio_pair,
    min_hypotenuse,
    nu,
    nu_triplet,
    primitive_triplets,
    ratios_of,
    Triplet,
)


def brute_force_triplets(gamma_bound):
    """Oracle: scan all a < b <= gamma_bound for square a^2 + b^2 <= bound^2."""
    out = []
    for b in range(2, gamma_bound + 1):
        for a in range(1, b):
            c2 = a * a + b * b
            c = floor_sqrt(c2)
            if c * c == c2 and c <= gamma_bound and gcd(a, b) == 1:
                out.append((a, b, c))
    out.sort(key=lambda t: (t[2], t[0]))
    return out


def test_triplets_at_25():
    got = [(t.alpha, t.beta, t.gamma) for t in primitive_triplets(25)]
    assert got == [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)]
    assert got == brute_force_triplets(25)


def test_triplets_below_smallest_hypotenuse():
    assert primitive_triplets(4) == []


def test_triplets_at_100_against_oracle():
    got = [(t.alpha, t.beta, t.gamma) for t in primitive_triplets(100)]
    assert got == brute_force_triplets(100)
    assert len(got) == 16
    assert [c for _, _, c in got] == [5, 13, 17, 25, 29, 37, 41, 53, 61, 65, 65, 73, 85, 85, 89, 97]


def test_triplet_invariants_exhaustive():
    for t in primitive_triplets(500):
        assert t.alpha**2 + t.beta**2 == t.gamma**2
        assert 0 < t.alpha < t.beta
        assert t.gamma <= 500
        assert gcd(t.alpha, t.beta) == gcd(t.beta, t.gamma) == gcd(t.alpha, t.gamma) == 1


def test_ratios_of():
    t = primitive_triplets(5)[0]
    assert ratios_of(t) == {Fraction(4, 3), Fraction(-4, 3), Fraction(3, 4), Fraction(-3, 4)}
    assert ratios_of(primitive_triplets(13)[1]) == {
        Fraction(12, 5), Fraction(-12, 5), Fraction(5, 12), Fraction(-5, 12)
    }


def test_pool_at_25():
    pool = build_pool(25, include_zero=True)
    assert len(pool.ratios) == 17
    assert pool.primitive_count == 4
    assert comb(len(pool.ratios), 3) == 680
    assert build_pool(25, include_zero=False).ratios == tuple(
        r for r in pool.ratios if r != 0
    )
    assert len(build_pool(25, include_zero=False).ratios) == 16
    assert build_pool(4).ratios == (Fraction(0),)


def test_pool_sorted_closed_under_negation_and_reciprocal():
    pool = build_pool(145)
    rs = pool.ratios
    assert list(rs) == sorted(rs)
    s = set(rs)
    for r in rs:
        assert -r in s
        if r != 0:
            assert 1 / r in s
            assert abs(r) != 1
        a, b = r.denominator, r.numerator
        if r != 0:
            c = floor_sqrt(a * a + b * b)
            assert c * c == a * a + b * b


def test_pool_size_law_up_to_200():
    for gamma in range(1, 201):
        pool = build_pool(gamma)
        t_count = len(primitive_triplets(gamma))
        assert len(pool.ratios) == 4 * t_count + 1
        assert pool.primitive_count == t_count
        assert all(abs(r) != 1 for r in pool.ratios)


def test_ratio_membership_examples():
    assert is_pythagorean_ratio(Fraction(4, 3))
    assert is_pythagorean_ratio(Fraction(0))
    assert not is_pythagorean_ratio(Fraction(1, 2))
    # 371^2 + 264^2 = 207337 sits between 455^2 and 456^2
    assert 455**2 < 371**2 + 264**2 < 456**2
    assert not is_pythagorean_ratio(Fraction(-371, 264))


def test_ratio_membership_against_triplet_table_oracle():
    # Oracle: enumerate every triplet with hypotenuse <= 1000 by brute scan.
    # Any canonical b/a with a, b <= 200 that is a ratio is realized by the
    # primitive triplet (a, |b|, c) with c <= sqrt(2)*200 < 1000.
    table = set()
    for c in range(1, 1001):
        c2 = c * c
        for a in range(1, c):
            b2 = c2 - a * a
            b = floor_sqrt(b2)
            if b * b == b2 and b > 0:
                table.add((a, b))
    for a in range(1, 201):
        for b in range(1, 201):
            if gcd(a, b) != 1:
                continue
            expected = (a, b) in table
            assert is_pythagorean_ratio(Fraction(b, a)) == expected
            assert is_pythagorean_ratio(Fraction(-b, a)) == expected


# (b, a) pairs: arbitrary ones, and ones that are ratios by construction
# (Euclid legs, in either role, either sign, not necessarily primitive)
_RATIO_LEGS = st.builds(
    lambda m, n, swap, sign: (
        (sign * 2 * m * n, m * m - n * n) if swap else (sign * (m * m - n * n), 2 * m * n)
    ),
    st.integers(2, 300),
    st.integers(1, 299),
    st.booleans(),
    st.sampled_from([1, -1]),
).filter(lambda ba: ba[1] != 0)
_ANY_PAIR = st.tuples(st.integers(-(10**6), 10**6), st.integers(1, 10**6))


@given(pair=st.one_of(_RATIO_LEGS, _ANY_PAIR), k=st.integers(1, 10**4))
@example(pair=(0, 7), k=3)
@example(pair=(-4, 3), k=5)
@example(pair=(-371, 264), k=2)
def test_integer_ratio_test_is_the_fraction_test_on_any_scaling(pair, k):
    b, a = pair
    expected = is_pythagorean_ratio(Fraction(b, a))
    assert is_ratio_pair(b, a) == expected
    assert is_ratio_pair(k * b, k * a) == expected


def test_min_hypotenuse():
    assert min_hypotenuse(Fraction(4, 3)) == 5
    assert min_hypotenuse(Fraction(56, 33)) == 65
    assert min_hypotenuse(Fraction(-779, 660)) == 1021
    with pytest.raises(NotARatio):
        min_hypotenuse(Fraction(0))
    with pytest.raises(NotARatio):
        min_hypotenuse(Fraction(1, 2))


def test_classify_ratio():
    assert classify_ratio(Fraction(4, 3)) == "positive/naturally_ordered"
    assert classify_ratio(Fraction(-3, 4)) == "negative/oppositely_ordered"
    assert classify_ratio(Fraction(0)) == "zero/none"
    with pytest.raises(NotARatio):
        classify_ratio(Fraction(1, 2))


def test_nu_examples():
    assert nu(1, 2) == 1
    assert nu(7, 8) == 1
    assert nu(1, 3) == 0
    t = nu_triplet(1, 2)
    assert (t.alpha, t.beta, t.gamma) == (3, 4, 5)
    t = nu_triplet(7, 8)
    assert (t.alpha, t.beta, t.gamma) == (5, 12, 13)
    assert nu_triplet(1, 3) is None


def test_nu_domain():
    for p, q in [(0, 1), (2, 2), (3, 2), (-1, 5)]:
        with pytest.raises(DomainError):
            nu(p, q)


def test_nu_against_alpha_scan_oracle():
    # Oracle: solutions of alpha^2 + (alpha+p)^2 = (alpha+q)^2 by direct scan.
    # For q <= 200 the equation forces alpha^2 = 2*alpha*(q-p) + q^2 - p^2
    # <= 400*alpha + 40000, so alpha < 600; scanning to 2000 is exhaustive.
    hits = set()
    for alpha in range(1, 2001):
        for p in range(1, 201):
            beta = alpha + p
            c2 = alpha * alpha + beta * beta
            c = floor_sqrt(c2)
            if c * c == c2:
                q = c - alpha
                if p < q <= 200:
                    hits.add((p, q))
    for q in range(2, 201):
        for p in range(1, q):
            assert nu(p, q) == (1 if (p, q) in hits else 0), (p, q)


def test_find_ratio_in_interval_examples():
    assert find_ratio_in_interval(Fraction(13, 10), Fraction(14, 10), 25) == Fraction(4, 3)
    assert find_ratio_in_interval(Fraction(1, 2), Fraction(11, 20), 25) == Fraction(8, 15)
    assert find_ratio_in_interval(Fraction(1, 2), Fraction(11, 20), 5) is None
    with pytest.raises(EmptyInterval):
        find_ratio_in_interval(Fraction(1, 2), Fraction(1, 2), 10)


@pytest.mark.parametrize("lo, hi", [(-1, 1), (Fraction(1, 2), 1)], ids=["zero-inside", "zero-outside"])
@pytest.mark.parametrize("gamma_cap", [0, -7])
def test_find_ratio_rejects_a_cap_below_1(lo, hi, gamma_cap):
    # checked before the zero ratio is returned, and named as the caller's parameter
    with pytest.raises(DomainError, match=f"^gamma_cap must be positive, got {gamma_cap}$"):
        find_ratio_in_interval(Fraction(lo), Fraction(hi), gamma_cap)


def test_find_ratio_result_is_valid_and_minimal():
    lo, hi = Fraction(22, 7), Fraction(23, 7)
    got = find_ratio_in_interval(lo, hi, 10**4)
    assert got is not None and lo < got < hi
    h = min_hypotenuse(got)
    pool = build_pool(h)
    inside = [r for r in pool.ratios if lo < r < hi]
    assert min(min_hypotenuse(r) for r in inside) == h


def test_density_probe_100_random_subintervals():
    rng = random.Random(314159)
    width = Fraction(1, 50)
    for _ in range(100):
        lo = Fraction(rng.randint(-3 * 600, 3 * 600 - 12), 600)
        hi = lo + width
        got = find_ratio_in_interval(lo, hi, 10**5)
        assert got is not None and lo < got < hi


def test_primitive_triplet_count_asymptotic():
    count = len(primitive_triplets(10**5))
    reference = 10**5 / (2 * pi)
    assert abs(count - reference) <= 0.01 * reference


@pytest.mark.parametrize("sides", [(0, 4, 4), (3, 0, 3), (3, 4, 0), (3, 4, -5), (3, 4, 6)])
def test_triplet_rejects_degenerate_and_non_pythagorean_sides(sides):
    with pytest.raises(ValueError):
        Triplet(*sides)
    with pytest.raises(ValueError):
        Triplet(**dict(zip(("alpha", "beta", "gamma"), sides)))


def test_triplet_is_a_value():
    t = Triplet(alpha=3, beta=4, gamma=5)
    assert t == primitive_triplets(5)[0] == Triplet(3, 4, 5)
    assert (t.alpha, t.beta, t.gamma) == (3, 4, 5)
    assert hash(t) == hash(Triplet(3, 4, 5))
