"""Scalar handling for the two computation modes.

A computation runs either in exact mode (int/Fraction coefficients, zero
tolerances where meaningful) or in float mode (binary64 plus a tolerance
policy). Values parsed from documents may be integers, floats, rational
strings like "3/8", or decimal strings like "0.25" (exact: 1/4).
"""

from __future__ import annotations

import math
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
    if isinstance(value, bool):
        raise SpecFormatError(f"boolean is not a valid scalar: {value!r}")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SpecFormatError(f"non-finite scalar {value!r}")
        return value
    if isinstance(value, str):
        try:
            frac = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"cannot parse scalar {value!r}") from exc
        if frac.denominator == 1:
            return int(frac)
        return frac
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
        # a NaN tolerance fails every comparison and an infinite one accepts everything
        if not (math.isfinite(self.rank) and self.rank > 0):
            raise ValueError(f"tolerance rank must be positive and finite, got {self.rank!r}")
