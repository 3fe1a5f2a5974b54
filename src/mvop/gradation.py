"""Degree-graded orthogonal decomposition of a moment functional.

Everything is linear algebra on the moment matrix M, with rows and columns
indexed by the monomials of degree <= max_degree in graded lexicographic
order and entries M[a, b] = Lambda(x^(a+b)). A polynomial is a coefficient
column over those monomials, and Lambda(f g) = f^T M g.

For each degree n the candidates are the monomials of degree n corrected by
their projection onto every lower slice: starting from the unit columns, one
block Gram-Schmidt step per lower level m subtracts
U_m diag(1/nu_m) U_m^T M coef, where U_m holds the orthogonal basis of slice m
and nu_m its squared norms. In exact mode U_m^T M vanishes on the columns of
degree < m, so only the rows of coef of degree >= m enter that product; in
binary64 those columns hold rounding noise, and the full product stays. The
Gram matrix G_n = coef^T M coef of the candidates is the Schur complement
of M on the degree-n block; its range gives an orthogonal basis of the
slice, its kernel the degree-n null directions of the functional. A null
direction p must have Lambda(p x^b) = 0 for every monomial x^b of the
matrix, as a PSD M ensures; exact mode checks
it and refuses data where it fails. With every lower null direction past
that check, and coef M-orthogonal to every lower orthogonal basis, M coef
vanishes on every row of degree < n; coef is the identity on its degree-n
rows, so exact mode reads G_n off the degree-n rows of M coef, one product
instead of a quadratic form. Float mode forms coef^T M coef: in binary64
those low rows hold rounding noise, not zeros. Polynomial objects are built
from coefficient columns only on request. The moments come from one supply,
`_moment_rows`, a block of rows of M with each distinct moment fetched and
cleared once; here it is M itself, and assembly takes the rows of degree
1..max_degree + 1, which hold every localizing matrix L_i (row a of L_i is
row a + e_i of M). Exact mode runs on `_linalg.Cleared` pairs from it, to
each split. Each level keeps those pairs and publishes its `coef`,
`gram` and `split` as Fraction arrays on their first read
(`_linalg.Deferred`).
`assemble_fock`, the ranks and the null-ideal generators take each
attribute's computing form (`_computing_levels`): the kept pairs while it
is unread, so a level nobody reads builds no Fraction array, and its public
array cleared afresh once it has been read, so an edit is seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import _linalg
from .errors import DepthExceededError, InconsistentMomentsError
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


def _moment_rows(functional: MomentFunctional, lo: int, hi: int, degree: int):
    """Lambda(x^(gamma+b)) for lo <= |gamma| <= hi and |b| <= degree <= hi, in computing form.

    Rows gamma and columns b follow ``monomials_up_to``: with lo = 0 and
    hi = degree this is the moment matrix M, and row gamma + e_i of M is row
    gamma of the localizing matrix of x_i. Each distinct moment is fetched
    and cleared once, and every one of them appears, so an exact result is
    reduced by construction.
    """
    d = functional.dimension
    # a multi-index is encoded as the integer with digits alpha_j in base
    # `base`, which exceeds every exponent, so encodings add like multi-indices
    base = hi + degree + 1
    kind = np.int64 if base**d < 2**63 else object
    radix = np.array([base**j for j in range(d)], dtype=kind)
    keys = np.array(monomials_up_to(d, hi), dtype=kind) @ radix
    rows, cols = keys[len(monomials_up_to(d, lo - 1)) :], keys[: len(monomials_up_to(d, degree))]
    distinct, where = np.unique(rows[:, None] + cols[None, :], return_inverse=True)
    digits = (distinct[:, None] // radix % base).tolist()
    values = _linalg.cleared(
        np.array(
            [functional.moment(tuple(alpha)) for alpha in digits],
            dtype=object if functional.exact else float,
        )
    )
    where = where.reshape(len(rows), len(cols))
    if isinstance(values, _linalg.Cleared):
        return _linalg.Cleared.reduced(values.num[where], values.den)
    return values[where]


@dataclass
class DegreeBasis(_linalg.Deferred):
    """One degree slice: candidate coefficients, their Gram matrix, and its splitting.

    coef holds one candidate per column, over the monomials of degree
    <= degree (graded-lex rows): column j is x^monomials[j] minus its
    projection onto the lower slices. An exact level built by
    `build_gradations` publishes coef, gram and split on their first read.
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
        return _linalg.peek(self, "split").rank

    @property
    def nullity(self) -> int:
        return _linalg.peek(self, "split").nullity

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

    def combine(self, columns) -> list:
        """One polynomial per column (an array or a pair): the candidates weighted by its entries."""
        try:
            coef = _linalg.computing(self, "coef")
        except TypeError:
            coef = self.coef  # a float entry: multiplied as plain objects
        return self._polynomials(_linalg.published(_linalg.matmul(coef, columns)))

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
    """Orthogonal gradation of a functional up to a fixed maximal degree.

    A float gradation of `build_gradations` keeps a digest of each level's
    Gram and split (`digests`, `_split_digest`), so that checks on its Fock
    blocks read a level's split while both are unchanged; otherwise None.
    """

    def __init__(self, functional, max_degree, mode, tol, levels, digests=None):
        self.functional = functional
        self.max_degree = max_degree
        self.mode = mode
        self.tol = tol
        self.levels = levels
        self.digests = digests

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

    def dimension_table(self) -> list:
        return [(lev.degree, lev.dimension, lev.rank, lev.nullity) for lev in self.levels]


def _split_digest(gram, split: _linalg.GramSplit) -> int:
    """A digest of the dtype, shape and bytes of a float Gram and of its split's arrays.

    Python's keyed 64-bit `hash` of them (`hashlib` would add 3.5 MiB to the
    process). The key is drawn per process unless `PYTHONHASHSEED` fixes
    it, so a digest pickled into another process misses, and the split is
    then made afresh.
    """
    arrays = map(np.asarray, (gram, split.combos, split.norms2, split.null))
    return hash(tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays))


def _computing_levels(g: GradationBasis) -> list:
    """(coef, gram, split) of every level of g in computing form (`_linalg.computing`).

    Exact levels give the pairs `build_gradations` computed on while an
    attribute is unread, and its public array cleared afresh after. Float
    levels are their own computing form.
    """
    return [[_linalg.computing(lev, name) for name in ("coef", "gram", "split")] for lev in g.levels]


def _public_coef(unit: np.ndarray, top: int, coef):
    # the rows no projection reaches keep the int entries of the unit block
    unit[:top] = _linalg.published(coef[:top])
    return unit


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
        The rank cutoff of the float Gram splits, kept by the gradation and its blocks.

    Returns
    -------
    GradationBasis

    Raises
    ------
    DepthExceededError
        If the functional cannot supply moments to degree 2*max_degree.
    InconsistentMomentsError
        If a Gram matrix fails positive semidefiniteness, or, in exact mode,
        a null polynomial has a nonzero moment against a monomial of degree
        <= max_degree, which no moment functional allows.
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
    moments = _moment_rows(functional, 0, max_degree, max_degree)

    levels = []
    digests = []  # float: `_split_digest` of each level
    # per level m, of its orthogonal basis U_m: (its first row, U_m diag(1/nu_m), U_m^T M),
    # the last on the columns of degree >= m only in exact mode
    lower = []
    for n in range(max_degree + 1):
        monos = monomials_of_degree(d, n)
        k = len(monos)
        size = len(monomials_up_to(d, n))
        unit = np.zeros((size, k), dtype=object if exact else float)
        for j in range(k):
            unit[size - k + j, j] = 1
        coef = _linalg.cleared(unit)
        for lo, scaled, paired in lower:
            if exact:
                # exact paired starts at column lo, so only coef's rows from lo on
                # enter: one product of numerators, reduced once
                num = scaled.num @ (paired.num[:, : size - lo] @ coef.num[lo:])
                coef[: scaled.shape[0]] -= _linalg.Cleared(num, scaled.den * paired.den * coef.den)
            else:
                coef[: scaled.shape[0]] -= _linalg.matmul(scaled, paired[:, :size], coef)
        top = lower[-1][1].shape[0] if lower else 0  # the rows the projections reach
        if exact:
            # coef is the identity on its degree-n rows, and M coef vanishes on
            # the rows of lower degree (each lower null direction z has M z = 0,
            # checked below), so coef^T M coef is the degree-n rows of M coef
            gram = _linalg.matmul(moments[size - k : size, :size], coef)
        else:
            # binary64 leaves rounding noise in the low rows: the full quadratic form
            gram = _linalg.gram_product(coef, moments[:size, :size])
        split = _linalg.split_gram(gram, exact=exact, tol_rank=tol.rank, tol_psd=tol.psd)
        # a PSD moment matrix maps each seminorm-null polynomial to zero
        if exact and split.nullity:
            null_moments = _linalg.matmul(_linalg.matmul(coef, split.null).T, moments[:size])
            if null_moments.num.any():
                raise InconsistentMomentsError(
                    f"a null polynomial of degree {n} has a nonzero moment against a monomial "
                    f"of degree <= {max_degree}; data is not a moment functional"
                )
        if split.rank and n < max_degree:  # no level above reads the projection
            ortho = _linalg.matmul(coef, split.combos)
            lo = size - k
            if exact:
                # U_n^T M vanishes on the columns of degree < n: the lower slices
                # are M-orthogonal to U_n, and M maps lower null directions to 0
                paired = _linalg.Cleared(ortho.num.T @ moments.num[:size, lo:], ortho.den * moments.den)
            else:
                paired = _linalg.matmul(ortho.T, moments[:size])
            lower.append((lo, ortho / split.norms2[None, :], paired))
        if exact:
            arrays = {
                "coef": _linalg.Pending(coef, partial(_public_coef, unit, top)),
                "gram": _linalg.Pending(gram),
                "split": _linalg.Pending(split),
            }
        else:
            arrays = {"coef": unit, "gram": gram, "split": split}
            digests.append(_split_digest(gram, split))
        levels.append(
            DegreeBasis(
                degree=n, monomials=monos, weights=tuple(index_weight(a) for a in monos), **arrays
            )
        )

    return GradationBasis(functional, max_degree, mode, tol, levels, None if exact else digests)
