"""Exact rational core: canonical form, parsing, integer square roots."""

import random
from fractions import Fraction
from math import gcd

import pytest

from rds.errors import NegativeInput, ZeroDenominator
from rds.rat import is_perfect_square, isqrt, normalize, parse_rat


def test_normalize_reduces_to_lowest_terms():
    assert normalize(4, 6) == Fraction(2, 3)


def test_normalize_moves_sign_to_numerator():
    q = normalize(3, -4)
    assert (q.numerator, q.denominator) == (-3, 4)


def test_normalize_zero_is_zero_over_one():
    q = normalize(0, 7)
    assert (q.numerator, q.denominator) == (0, 1)


def test_normalize_rejects_zero_denominator():
    with pytest.raises(ZeroDenominator):
        normalize(1, 0)


def test_normalize_round_trip_under_scaling():
    rng = random.Random(2024)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(1, 10**6)
        k = rng.choice([-1, 1]) * rng.randint(1, 10**3)
        assert normalize(a * k, b * k) == normalize(a, b)


def test_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(4, 3) ** 2 == Fraction(16, 9)
    assert Fraction(-8, 15) < Fraction(7, 24)


def test_arithmetic_canonical_and_agrees_with_naive():
    # naive model: track unreduced (num, den) pairs, compare cross-multiplied
    rng = random.Random(7)
    for _ in range(10**4):
        an, ad = rng.randint(-999, 999), rng.randint(1, 999)
        bn, bd = rng.randint(-999, 999), rng.randint(1, 999)
        a, b = Fraction(an, ad), Fraction(bn, bd)
        checks = [
            (a + b, an * bd + bn * ad, ad * bd),
            (a - b, an * bd - bn * ad, ad * bd),
            (a * b, an * bn, ad * bd),
            (-a, -an, ad),
            (abs(a), abs(an), ad),
            (a * a, an * an, ad * ad),
        ]
        if bn != 0:
            checks.append((a / b, an * bd, ad * bn))
        for got, num, den in checks:
            assert got.numerator * abs(den) == (num if den > 0 else -num) * got.denominator
            assert got.denominator >= 1
            assert gcd(abs(got.numerator), got.denominator) == 1
        assert (a < b) == (an * bd < bn * ad)


def test_parse_and_format_round_trip():
    for text in ["-35/12", "3", "0", "4/3", "-7"]:
        assert str(parse_rat(text)) == text


def test_parse_accepts_non_canonical_and_rejects_garbage():
    assert parse_rat("4/6") == Fraction(2, 3)
    assert parse_rat(" -3/4 ") == Fraction(-3, 4)
    for bad in ["1.5", "1e3", "3/", "/4", "a/b", "1/ 2", ""]:
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_isqrt_examples():
    assert isqrt(25) == (5, True)
    assert isqrt(26) == (5, False)
    # 779**2 + 660**2, hypotenuse 1021 (derived by squaring, see below)
    assert 1021 * 1021 == 1042441
    assert isqrt(1042441) == (1021, True)


def test_isqrt_rejects_negative():
    with pytest.raises(NegativeInput):
        isqrt(-1)


def test_isqrt_agrees_with_linear_scan_oracle():
    # incremental oracle: largest k with k*k <= n, advanced as n grows
    k = 0
    for n in range(10**6 + 1):
        while (k + 1) * (k + 1) <= n:
            k += 1
        root, exact = isqrt(n)
        assert root == k
        assert exact == (k * k == n)


def test_is_perfect_square():
    assert is_perfect_square(144)
    assert is_perfect_square(0)
    assert not is_perfect_square(5)
    assert not is_perfect_square(-4)


def test_isqrt_on_big_integers():
    n = (10**50 + 12345) ** 2
    assert isqrt(n) == (10**50 + 12345, True)
    assert isqrt(n - 1) == (10**50 + 12344, False)
