"""Exact rational parsing and formatting for the JSON interchange format.

Measures and conductances travel as strings ("p/q" or "p") so that JSON
round-trips never lose precision.  All internal arithmetic on these values
uses fractions.Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction


class InputError(ValueError):
    """Bad input: a malformed document, an invalid parameter or an argument
    outside a function's domain.  The command line reports it as exit code 2."""


class RationalFormatError(InputError):
    """A value in an input document is not an exact rational."""


def parse_rational(value, where: str = "value") -> Fraction:
    """Parse "p/q", "p", or a JSON integer into a Fraction.

    Floats are rejected: they are almost always the result of an upstream
    tool corrupting an exact quantity.
    """
    if isinstance(value, bool):
        raise RationalFormatError(f"{where}: booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise RationalFormatError(
            f"{where}: floats are not accepted, use a string \"p/q\" or an integer"
        )
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalFormatError(f"{where}: cannot parse {value!r} as a rational") from exc
    raise RationalFormatError(f"{where}: cannot parse {type(value).__name__} as a rational")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" with positive denominator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scaled_integers(values) -> tuple[list[int], int]:
    """Clear denominators of a list of Fractions.

    Returns (scaled integer values, scale) where scale is the lcm of the
    denominators; value[i] == scaled[i] / scale exactly.  Ratios of sums of
    the scaled integers equal the corresponding ratios of the originals.
    """
    values = [v if type(v) is Fraction else Fraction(v) for v in values]  # Fraction(v) copies
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale
