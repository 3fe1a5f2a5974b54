"""Sparse multivariate polynomials graded by total degree.

Multi-indices are plain tuples of non-negative ints; a polynomial is a map
from multi-index to coefficient with no stored zeros. Coefficients are either
all exact (int/Fraction) or contaminated to float by any float input. The
monomial order used everywhere is graded lexicographic with x_1 > ... > x_d,
so within one degree (2,0) precedes (1,1) precedes (0,2).
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from functools import lru_cache

from .scalars import Scalar, is_rational

PRUNE_REL = 1e-14  # float mode: drop |c| < PRUNE_REL * max|coeff|


def graded_lex_key(alpha):
    """Sort key realizing the graded-lex order (ascending = canonical listing order)."""
    return (sum(alpha), tuple(-e for e in alpha))


@lru_cache(maxsize=None)
def monomials_of_degree(dimension: int, degree: int) -> tuple:
    """All multi-indices of the given total degree, in graded-lex order."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if dimension == 1:
        return ((degree,),)
    out = []
    for k in range(degree, -1, -1):
        out.extend((k,) + rest for rest in monomials_of_degree(dimension - 1, degree - k))
    return tuple(out)


def monomials_up_to(dimension: int, degree: int) -> list:
    """All multi-indices of total degree <= degree, graded-lex ordered."""
    out = []
    for n in range(degree + 1):
        out.extend(monomials_of_degree(dimension, n))
    return out


def space_dimension(dimension: int, degree: int) -> int:
    """d_n = C(n + d - 1, d - 1), the number of degree-n monomials."""
    return len(monomials_of_degree(dimension, degree))


def _check_index(alpha, dimension):
    if len(alpha) != dimension:
        raise ValueError(f"multi-index {alpha} has length {len(alpha)}, expected {dimension}")
    # an int skips the slower Integral check: a moment cache miss takes this path
    if any(type(e) is not int and not isinstance(e, numbers.Integral) or e < 0 for e in alpha):
        raise ValueError(f"multi-index {alpha} must have non-negative integer entries")


def _prune(terms: dict) -> dict:
    has_float = any(isinstance(c, float) for c in terms.values())
    if not has_float:
        return {a: c for a, c in terms.items() if c != 0}
    terms = {a: float(c) for a, c in terms.items()}
    peak = max((abs(c) for c in terms.values()), default=0.0)
    cut = PRUNE_REL * (peak if peak > 0 else 1.0)
    return {a: c for a, c in terms.items() if abs(c) >= cut}


class Polynomial:
    """Sparse real polynomial in d variables.

    Parameters
    ----------
    dimension : int
        Number of variables d >= 1.
    terms : dict, optional
        Map from multi-index tuple (length d) to coefficient. Zero
        coefficients are dropped; in float mode, coefficients tiny relative
        to the largest one are dropped as well.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms: dict | None = None):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        clean = {}
        if terms:
            for alpha, coeff in terms.items():
                alpha = tuple(alpha)
                _check_index(alpha, dimension)
                clean[alpha] = clean.get(alpha, 0) + coeff
        self.terms = _prune(clean)

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension, {})

    @classmethod
    def one(cls, dimension: int) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: 1})

    @classmethod
    def constant(cls, dimension: int, value) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def monomial(cls, alpha, coeff=1) -> "Polynomial":
        alpha = tuple(alpha)
        return cls(len(alpha), {alpha: coeff})

    @classmethod
    def variable(cls, dimension: int, index: int) -> "Polynomial":
        """x_{index+1}, i.e. the coordinate with 0-based position `index`."""
        if not 0 <= index < dimension:
            raise ValueError(f"variable index {index} out of range for dimension {dimension}")
        alpha = tuple(1 if i == index else 0 for i in range(dimension))
        return cls(dimension, {alpha: 1})

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return all(is_rational(c) for c in self.terms.values())

    def sorted_terms(self):
        """Terms in graded-lex order (ascending degree, descending lex within degree)."""
        return sorted(self.terms.items(), key=lambda item: graded_lex_key(item[0]))

    def map_coefficients(self, fn) -> "Polynomial":
        return Polynomial(self.dimension, {a: fn(c) for a, c in self.terms.items()})

    def to_float(self) -> "Polynomial":
        return self.map_coefficients(float)

    # -- arithmetic ---------------------------------------------------------
    def _require_same_dimension(self, other):
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_dimension(other)
            merged = dict(self.terms)
            for alpha, coeff in other.terms.items():
                merged[alpha] = merged.get(alpha, 0) + coeff
            return Polynomial(self.dimension, merged)
        if isinstance(other, (int, float, Fraction)):
            return self + Polynomial.constant(self.dimension, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.dimension, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        if isinstance(other, (int, float, Fraction)):
            return self + Polynomial.constant(self.dimension, -other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_dimension(other)
            out: dict = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    out[key] = out.get(key, 0) + ca * cb
            return Polynomial(self.dimension, out)
        if isinstance(other, (int, float, Fraction)):
            return Polynomial(self.dimension, {a: c * other for a, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, Fraction)):
            if is_rational(other) and self.is_exact:
                other = Fraction(other)
            return Polynomial(self.dimension, {a: c / other for a, c in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return f"Polynomial({self.dimension}, 0)"
        body = ", ".join(f"{a}: {c}" for a, c in self.sorted_terms())
        return f"Polynomial({self.dimension}, {{{body}}})"

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, point) -> Scalar:
        """Evaluate at a point (length-d sequence); exact in rational mode."""
        point = tuple(point)
        if len(point) != self.dimension:
            raise ValueError(
                f"point has length {len(point)}, expected {self.dimension}"
            )
        total = 0
        for alpha, coeff in self.terms.items():
            value = coeff
            for x, e in zip(point, alpha):
                if e:
                    value = value * x**e
            total = total + value
        return total

    def top_homogeneous(self, n: int) -> list:
        """Coefficient vector of the degree-n part over the degree-n monomials.

        The vector is indexed by ``monomials_of_degree(d, n)`` (graded-lex) and
        zero-padded. Raises if the polynomial has degree above n.
        """
        if self.degree > n:
            raise ValueError(f"polynomial has degree {self.degree} > {n}")
        return [self.terms.get(alpha, 0) for alpha in monomials_of_degree(self.dimension, n)]

