"""Canonical exact rationals and big-integer square root helpers.

``Rat`` is ``fractions.Fraction``: arbitrary precision, always reduced to
lowest terms with a positive denominator, hashable and immutable.  All
arithmetic in the package is done with the native operators; nothing in a
correctness path ever touches floating point.

The wire format for a rational is ``"num/den"`` with the ``/den`` part
omitted when the denominator is 1 (``"-35/12"``, ``"3"``, ``"0"``).  This
is exactly what ``str()`` produces for a Fraction, and ``parse_rat`` is
the strict inverse.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import NegativeInput, ZeroDenominator

Rat = Fraction

ZERO = Fraction(0)

_RAT_RE = re.compile(r"[+-]?\d+(/\d+)?")


def normalize(num: int, den: int) -> Rat:
    """Return the canonical rational num/den; the sign lives on the numerator.

    Raises ZeroDenominator when den == 0.
    """
    if den == 0:
        raise ZeroDenominator(f"denominator is zero for numerator {num}")
    return Fraction(num, den)


def parse_rat(text: str) -> Rat:
    """Parse ``"num/den"`` or ``"num"``; rejects decimals and exponents."""
    s = text.strip()
    if not _RAT_RE.fullmatch(s):
        raise ValueError(f"not a rational in num/den form: {text!r}")
    if "/" in s:
        num_s, den_s = s.split("/")
        return normalize(int(num_s), int(den_s))
    return Fraction(int(s))


def format_over(num: int, den: int) -> str:
    """The canonical text of num/den for integers with den > 0.

    Exactly ``str(Fraction(num, den))``: reduced by the gcd, the sign on
    the numerator, no ``/1`` (``"3"``, ``"0"``); no Fraction is built.
    """
    g = math.gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def isqrt(n: int) -> tuple[int, bool]:
    """Return (floor(sqrt(n)), n is a perfect square).

    Raises NegativeInput when n < 0.
    """
    if n < 0:
        raise NegativeInput(f"isqrt of negative number {n}")
    root = math.isqrt(n)
    return root, root * root == n


def is_perfect_square(n: int) -> bool:
    """True iff n >= 0 and some integer k satisfies k*k == n."""
    if n < 0:
        return False
    root = math.isqrt(n)
    return root * root == n
