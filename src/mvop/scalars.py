"""Scalar handling for the two computation modes.

A computation runs either in exact mode (int/Fraction coefficients, zero
tolerances where meaningful) or in float mode (binary64 plus a tolerance
policy). Values parsed from documents may be integers, floats, rational
strings like "3/8", or decimal strings like "0.25" (exact: 1/4).
`parse_scalar` gives such a value as a scalar, and `parse_ratio` as a ratio
of ints, which a block payload is cleared from without a Fraction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .errors import SpecFormatError

Scalar = int | float | Fraction


def is_rational(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def parse_scalar(value) -> Scalar:
    """Parse a document value into int, Fraction, or float.

    Strings are parsed exactly: "3/8" -> Fraction(3, 8), "0.25" -> Fraction(1, 4).
    JSON integers stay int, JSON floats stay float unless NaN or infinite.
    """
    if is_rational(value):
        return value
    parsed = parse_ratio(value)
    if isinstance(parsed, float):
        return parsed
    frac = Fraction(*parsed)
    return int(frac) if frac.denominator == 1 else frac


# the form `format_scalar` writes rationals in, read without building a Fraction
_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(value):
    """A document value as a ratio (p, q) of ints with q > 0, or as a float.

    p / q is the value `parse_scalar` gives, not always in lowest terms, and
    the same values are refused with the same messages. A string of ASCII
    digits "p" or "p/q", with an optional minus sign, is read with two int
    conversions; any other string is read as a Fraction.
    """
    if isinstance(value, bool):
        raise SpecFormatError(f"boolean is not a valid scalar: {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SpecFormatError(f"non-finite scalar {value!r}")
        return float(value)
    if isinstance(value, str):
        try:
            match = _RATIO.fullmatch(value)
            if match and (den := int(match[2] or 1)):
                return int(match[1]), den
            frac = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"cannot parse scalar {value!r}") from exc
        return frac.numerator, frac.denominator
    raise SpecFormatError(f"cannot parse scalar of type {type(value).__name__}")


def _json_integer(value, name: str) -> int:
    """A document field that must be a JSON integer: an int, not a bool, float or string."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecFormatError(f"{name!r} must be an integer, got {value!r}")
    return value


def format_scalar(value, exact: bool):
    """Render a scalar for report output.

    Exact mode renders rationals as "p/q" strings (integers as JSON numbers);
    float mode renders binary64 values, which the JSON writer prints with 17
    significant digits.
    """
    if is_rational(value):
        if exact:
            frac = Fraction(value)
            return int(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
        return float(value)
    return float(value)


@dataclass(frozen=True)
class Tolerances:
    """Float-mode tolerance policy. Exact mode ignores rank/null cutoffs (they are 0).

    rank, the cutoff of every rank decision, is the one setting; the residual
    floors null, comm, adj and psd are fixed.
    """

    rank: float = 1e-10
    null: ClassVar[float] = 1e-10
    comm: ClassVar[float] = 1e-10
    adj: ClassVar[float] = 1e-10
    psd: ClassVar[float] = 1e-10

    def __post_init__(self):
        # NaN fails every comparison; the vacuum norm is 1, so a cutoff >= 1
        # would declare the constant polynomial null
        if not 0 < self.rank < 1:
            raise ValueError(f"tolerance rank must be in (0, 1), got {self.rank!r}")
