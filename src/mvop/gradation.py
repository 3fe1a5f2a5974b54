"""Degree-graded orthogonal decomposition of a moment functional.

Everything is linear algebra on the moment matrix M, with rows and columns
indexed by the monomials of degree <= max_degree in graded lexicographic
order and entries M[a, b] = Lambda(x^(a+b)). A polynomial is a coefficient
column over those monomials, and Lambda(f g) = f^T M g.

For each degree n the candidates are the monomials of degree n corrected by
their projection onto every lower slice: starting from the unit columns, one
block Gram-Schmidt step per lower level m subtracts
U_m diag(1/nu_m) U_m^T M coef, where U_m holds the orthogonal basis of slice m
and nu_m its squared norms. The Gram matrix G_n = coef^T M coef of the
candidates is the Schur complement of M on the degree-n block; its range
gives an orthogonal basis of the slice, its kernel the degree-n null
directions of the functional. Polynomial objects are built from coefficient
columns only on request. Exact mode runs on `_linalg.Cleared` pairs from the
moment matrix, each of whose distinct moments is cleared once, to each
split; every level's arrays become Fractions once. The gradation keeps those
pairs, guarded by the published level arrays, and `assemble_fock` reads them
while the levels are unchanged (`_computing_levels`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg
from .errors import DepthExceededError
from .measures import MomentFunctional, as_float_functional
from .polynomial import Polynomial, monomials_of_degree, monomials_up_to
from .scalars import Tolerances


def index_weight(alpha) -> Fraction:
    """w(alpha) = alpha! / |alpha|!, the reciprocal multinomial coefficient."""
    num = math.prod(math.factorial(e) for e in alpha)
    return Fraction(num, math.factorial(sum(alpha)))


def resolve_mode(rational: bool, mode: str) -> str:
    """Resolve a requested mode to "exact" or "float", given whether all the data is rational."""
    if mode == "auto":
        return "exact" if rational else "float"
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and not rational:
        raise ValueError("exact mode requires rational data")
    return mode


def _distinct_moments(functional: MomentFunctional, degree: int, shift) -> tuple:
    """(values, where): the distinct moments of `moment_matrix` and the index of each entry."""
    d = functional.dimension
    shift = tuple(shift) if shift is not None else (0,) * d
    # a multi-index is encoded as the integer with digits alpha_j in base
    # `base`, which exceeds every exponent, so encodings add like multi-indices
    base = 2 * degree + max(shift) + 1
    kind = np.int64 if base**d < 2**63 else object
    radix = np.array([base**j for j in range(d)], dtype=kind)
    keys = np.array(monomials_up_to(d, degree), dtype=kind) @ radix
    sums = keys[:, None] + keys[None, :] + np.array(shift, dtype=kind) @ radix
    distinct, where = np.unique(sums, return_inverse=True)
    values = np.array(
        [functional.moment(tuple(int(key) // base**j % base for j in range(d))) for key in distinct],
        dtype=object if functional.exact else float,
    )
    return values, where.reshape(sums.shape)


def moment_matrix(functional: MomentFunctional, degree: int, shift=None) -> np.ndarray:
    """Lambda(x^(a+b+shift)) for a, b over the monomials of degree <= degree.

    Rows and columns follow ``monomials_up_to`` (graded-lex), so the matrix
    of a lower degree is a leading block. Without shift this is the moment
    matrix; with shift = e_i it is the localizing matrix of x_i. Each distinct
    moment is fetched once; the array is object-typed for exact functionals.
    """
    values, where = _distinct_moments(functional, degree, shift)
    return values[where]


def _cleared_moment_matrix(functional: MomentFunctional, degree: int, shift=None):
    """`moment_matrix` in computing form: each distinct moment is cleared once.

    An exact matrix is the pair of the distinct moments' numerators, spread
    by index, over their one denominator; a float matrix is returned as is.
    """
    values, where = _distinct_moments(functional, degree, shift)
    values = _linalg.cleared(values)
    if isinstance(values, _linalg.Cleared):
        return _linalg.Cleared(values.num[where], values.den)
    return values[where]


@dataclass
class DegreeBasis:
    """One degree slice: candidate coefficients, their Gram matrix, and its splitting.

    coef holds one candidate per column, over the monomials of degree
    <= degree (graded-lex rows): column j is x^monomials[j] minus its
    projection onto the lower slices.
    """

    degree: int
    monomials: tuple
    weights: tuple
    coef: np.ndarray
    gram: np.ndarray
    split: _linalg.GramSplit

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    @property
    def rank(self) -> int:
        return self.split.rank

    @property
    def nullity(self) -> int:
        return self.split.nullity

    def omega(self) -> np.ndarray:
        """Form generator: the Gram matrix with rows rescaled by 1/w(alpha)."""
        out = self.gram.copy()
        for i, w in enumerate(self.weights):
            scale = w if self.gram.dtype == object else float(w)
            out[i, :] = out[i, :] / scale
        return out

    def _polynomials(self, vecs: np.ndarray) -> list:
        d = len(self.monomials[0])
        rows = monomials_up_to(d, self.degree)
        return [Polynomial(d, dict(zip(rows, vecs[:, j]))) for j in range(vecs.shape[1])]

    def combine(self, columns: np.ndarray) -> list:
        """One polynomial per column: the candidates weighted by its entries."""
        return self._polynomials(_linalg.matmul(self.coef, columns))

    @property
    def candidates(self) -> list:
        """The candidate polynomials, in the order of `monomials`."""
        return self._polynomials(self.coef)

    def ortho_basis(self) -> list:
        """Orthogonal polynomials spanning the slice; squared norms in split.norms2."""
        return self.combine(self.split.combos)

    def null_basis(self) -> list:
        """Polynomials of this degree annihilated by the seminorm."""
        return self.combine(self.split.null)


class GradationBasis:
    """Orthogonal gradation of a functional up to a fixed maximal degree."""

    def __init__(self, functional, max_degree, mode, tol, levels):
        self.functional = functional
        self.max_degree = max_degree
        self.mode = mode
        self.tol = tol
        self.levels = levels

    @property
    def dimension(self) -> int:
        return self.functional.dimension

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    def level(self, n: int) -> DegreeBasis:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} outside built range 0..{self.max_degree}")
        return self.levels[n]

    def inner(self, f: Polynomial, g: Polynomial):
        return self.functional.expectation(f * g)

    def project(self, f: Polynomial, n: int, space: str = "level") -> Polynomial:
        """Seminorm projection of f onto the degree-n slice (or all slices <= n)."""
        if space not in ("level", "upto"):
            raise ValueError(f"unknown space {space!r}")
        degrees = range(n + 1) if space == "upto" else (n,)
        out = Polynomial.zero(self.dimension)
        for m in degrees:
            lev = self.level(m)
            for j, u in enumerate(lev.ortho_basis()):
                coeff = self.inner(f, u) / lev.split.norms2[j]
                if coeff != 0:
                    out = out + coeff * u
        return out

    def dimension_table(self) -> list:
        return [(lev.degree, lev.dimension, lev.rank, lev.nullity) for lev in self.levels]

    def __getstate__(self):
        # the kept computing form belongs to these levels: a copy starts without it
        return {k: v for k, v in self.__dict__.items() if k != "_computing"}


def _level_arrays(levels: list) -> list:
    return [
        a
        for lev in levels
        for a in (lev.coef, lev.gram, lev.split.combos, lev.split.norms2, lev.split.null)
    ]


def _computing_levels(g: GradationBasis) -> list:
    """(coef, gram, split) of every level of g in computing form (`_linalg.cleared`).

    Exact levels reuse the pairs `build_gradations` computed on while the
    published level arrays are unchanged (`_linalg.Guarded`); otherwise they
    are cleared afresh, and those pairs are kept instead. Float levels are
    their own computing form.
    """
    arrays = _level_arrays(g.levels)
    computed = _linalg.recall(g.__dict__.get("_computing"), arrays)
    if computed is None:
        computed = [[_linalg.cleared(x) for x in (lev.coef, lev.gram, lev.split)] for lev in g.levels]
        if g.exact:
            g._computing = _linalg.Guarded(arrays, computed)
    return computed


def build_gradations(
    functional: MomentFunctional,
    max_degree: int,
    *,
    mode: str = "auto",
    tol: Tolerances | None = None,
) -> GradationBasis:
    """Construct the orthogonal gradation of a functional up to max_degree.

    Parameters
    ----------
    functional : MomentFunctional
        Moment source; must reliably cover degree 2*max_degree.
    max_degree : int
        Largest degree slice to build.
    mode : {"auto", "exact", "float"}
        Scalar arithmetic. "auto" picks exact when the functional is rational.
    tol : Tolerances, optional
        Rank and positivity cutoffs (float mode only).

    Returns
    -------
    GradationBasis

    Raises
    ------
    DepthExceededError
        If the functional cannot supply moments to degree 2*max_degree.
    InconsistentMomentsError
        If a Gram matrix fails positive semidefiniteness.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    tol = tol or Tolerances()
    mode = resolve_mode(functional.exact, mode)
    if 2 * max_degree > functional.max_reliable_degree:
        raise DepthExceededError(
            f"gradation to degree {max_degree} needs moments to {2 * max_degree}, "
            f"but only {functional.max_reliable_degree} are reliable"
        )
    if mode == "float" and functional.exact:
        functional = as_float_functional(functional)
    exact = mode == "exact"
    d = functional.dimension
    moments = _cleared_moment_matrix(functional, max_degree)

    levels, computed = [], []
    lower = []  # per level m: (U_m diag(1/nu_m), U_m^T M) of its orthogonal basis
    for n in range(max_degree + 1):
        monos = monomials_of_degree(d, n)
        k = len(monos)
        size = len(monomials_up_to(d, n))
        unit = np.zeros((size, k), dtype=object if exact else float)
        for j in range(k):
            unit[size - k + j, j] = 1
        coef = _linalg.cleared(unit)
        for scaled, paired in lower:
            coef[: scaled.shape[0]] -= _linalg.matmul(scaled, paired[:, :size], coef)
        if exact:
            # the rows no projection reaches keep the int entries of the unit block
            top = lower[-1][0].shape[0] if lower else 0
            unit[:top] = _linalg.published(coef[:top])
        gram = _linalg.gram_product(coef, moments[:size, :size])
        split = _linalg.split_gram(gram, exact=exact, tol_rank=tol.rank, tol_psd=tol.psd)
        if split.rank:
            ortho = _linalg.matmul(coef, split.combos)
            lower.append(
                (ortho / split.norms2[None, :], _linalg.matmul(ortho.T, moments[:size]))
            )
        levels.append(
            DegreeBasis(
                degree=n,
                monomials=monos,
                weights=tuple(index_weight(a) for a in monos),
                coef=unit,
                gram=_linalg.published(gram),
                split=_linalg.published(split),
            )
        )
        computed.append((coef, gram, split))

    g = GradationBasis(functional, max_degree, mode, tol, levels)
    if exact:
        g._computing = _linalg.Guarded(_level_arrays(levels), computed)
    return g
