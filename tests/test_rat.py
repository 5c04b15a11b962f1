"""Exact rational core: canonical form and the num/den text form."""

import random
from fractions import Fraction
from math import gcd

import pytest

from rds.errors import ZeroDenominator
from rds.rat import parse_rat


def test_normalize_reduces_to_lowest_terms():
    assert parse_rat("4/6") == Fraction(2, 3)


def test_normalize_moves_sign_to_numerator():
    q = parse_rat("-3/4")
    assert (q.numerator, q.denominator) == (-3, 4)
    with pytest.raises(ValueError):
        parse_rat("3/-4")  # the text form has no sign on the denominator


def test_normalize_zero_is_zero_over_one():
    for text in ["0/7", "-0/7", "0"]:
        q = parse_rat(text)
        assert (q.numerator, q.denominator) == (0, 1)


def test_normalize_rejects_zero_denominator():
    for text in ["1/0", "0/0", "-5/00"]:
        with pytest.raises(ZeroDenominator):
            parse_rat(text)


def test_normalize_round_trip_under_scaling():
    rng = random.Random(2024)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(1, 10**6)
        k = rng.randint(1, 10**3)
        assert parse_rat(f"{a * k}/{b * k}") == parse_rat(f"{a}/{b}") == Fraction(a, b)


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
    # non-ASCII digits too: int() and \d would take "١/٢" as 1/2
    for bad in ["1.5", "1e3", "3/", "/4", "a/b", "1/ 2", "", "١/٢", "١/٤", "٨/٥", "１２", "1/２"]:
        with pytest.raises(ValueError):
            parse_rat(bad)
