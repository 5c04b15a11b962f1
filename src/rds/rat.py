"""Canonical exact rationals and their text form.

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

from .errors import ZeroDenominator

Rat = Fraction

ZERO = Fraction(0)

_RAT_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # ASCII digits only


def parse_rat(text: str) -> Rat:
    """Parse ``"num/den"`` or ``"num"``; rejects decimals and exponents.

    Raises ZeroDenominator when den == 0.
    """
    s = text.strip()
    if not _RAT_RE.fullmatch(s):
        raise ValueError(f"not a rational in num/den form: {text!r}")
    if "/" in s:
        num, den = map(int, s.split("/"))
        if den == 0:
            raise ZeroDenominator(f"denominator is zero for numerator {num}")
        return Fraction(num, den)
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
