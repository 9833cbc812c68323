"""Exact rational arithmetic helpers.

All probability math in this package runs on ``fractions.Fraction``. Floats
are accepted at the boundary and converted by parsing their shortest decimal
representation, so ``0.51`` becomes exactly ``51/100`` rather than the nearest
binary float.
"""
from __future__ import annotations

import re
from decimal import Context
from fractions import Fraction

Rational = Fraction | int | str | float

# The package's one 0 and one 1: its fast paths read them by identity (``v is
# ZERO``), so every module imports these objects rather than building its own.
ZERO = Fraction(0)
ONE = Fraction(1)

# Fraction("1e999999999") builds that power of ten before anything can look
# at the value, so decimal exponents beyond this are refused up front.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def as_fraction(value: Rational) -> Fraction:
    """Convert a number-like value to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent:
            # compare lengths first, so a huge digit string is never converted
            digits = exponent.group(1).replace("_", "").lstrip("0") or "0"
            bound = MAX_DECIMAL_EXPONENT
            if len(digits) > len(str(bound)) or int(digits) > bound:
                raise ValueError(
                    f"decimal exponent in {value[:40]!r} exceeds {MAX_DECIMAL_EXPONENT}"
                )
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {value!r}") from exc
    if isinstance(value, float):
        # repr(float) is the shortest decimal string that round-trips,
        # so this reads 0.1 as 1/10, not as the binary expansion.
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def frac_str(value: Fraction | int) -> str:
    """Canonical string form, e.g. '1/3', '0', '2'."""
    return str(value)


_TWELVE_DIGITS = Context(prec=12)


def decimal_str(value: Fraction | int) -> str:
    """Decimal rendering with 12 significant digits."""
    return ratio_decimal_str(*value.as_integer_ratio())


def ratio_decimal_str(num: int, den: int) -> str:
    """``decimal_str`` of num/den (den > 0), without building the Fraction.
    The context converts both ints exactly before its one rounding."""
    return str(_TWELVE_DIGITS.divide(num, den))
