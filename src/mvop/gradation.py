"""Degree-graded orthogonal decomposition of a moment functional.

Everything is linear algebra on the moment matrix M, with rows and columns
indexed by the monomials of degree <= max_degree in graded lexicographic
order and entries M[a, b] = Lambda(x^(a+b)). A polynomial is a coefficient
column over those monomials, and Lambda(f g) = f^T M g.

For each degree n the candidates are the monomials of degree n corrected by
their projection onto every lower slice: coef = E - sum_m U_m diag(1/nu_m)
U_m^T M E, where E holds the unit columns of the degree-n monomials, U_m the
orthogonal basis of slice m and nu_m its squared norms. The Gram matrix
G_n = coef^T M coef of the candidates is the Schur complement of M on the
degree-n block; its range gives an orthogonal basis U_n = coef C_n of the
slice, its kernel K_n the degree-n null directions z = coef K_n of the
functional. A null direction must have Lambda(z x^b) = 0 for every monomial
x^b of the matrix, M z = 0, as a PSD M ensures; exact mode checks it and
refuses data where it fails.

Exact mode makes two products per level. The lower slices are mutually
M-orthogonal, so every projection is taken from E at once (classical and
modified Gram-Schmidt agree): one product of the stacked factors
U_m diag(1/nu_m) and the degree-n columns of U_m^T M. Then M coef vanishes on
every row of degree < n, as coef is M-orthogonal to each lower U_m and each
lower null direction passed the check. So the one product with M,
Q_n = the rows of degree >= n of M coef, gives the rest: G_n is its
degree-n rows (coef is the identity there), the check is Q_n K_n = 0, and
U_n^T M, zero on the columns of degree < n, is (Q_n C_n)^T. Each exact
level below the top keeps N_n, the rows of degree n + 1 of Q_n, on its
computing form: assembly reads the level's preservation right-hand sides
off N_n and G_n. `_moment_product` is the one product of moments with a
level's coef: it multiplies only the nonzero rows of degree < n of coef
and scales the degree-n columns of the moments. Float mode runs
modified Gram-Schmidt, one step per lower level against all of U_m^T M, and
forms the quadratic form coef^T M coef: in binary64 the low rows of M coef
hold rounding noise, not zeros.

Polynomial objects are built from coefficient columns only on request. The
moments come from one supply, `_moment_rows`, a block of rows of M with each
distinct moment fetched and cleared once. Its index plan (which distinct
moment each entry is) depends on the shape alone, so it is built once per
shape (`_moment_plan`), as are the weights of a level (`_level_weights`);
the plans are shared read-only arrays. Here the block is M itself, and
assembly takes the rows of degree 1..max_degree + 1, which hold every
localizing matrix L_i (row a of L_i is row a + e_i of M). Exact mode runs on
`_linalg.Cleared` pairs from it, to each split. A diagonal G_n, as every
level of a product of 1-D functionals has, is split without elimination into
unit combo and kernel columns held as index maps (`_linalg.Units`), so coef
C_n, Q_n C_n and Q_n K_n are column gathers (`_linalg.times`). Each level
keeps those pairs as its computing form, which `assemble_fock`, the ranks
and the null-ideal generators read (`_linalg.computing`), and publishes its
`coef`, `gram` and `split` as read-only Fraction arrays on their first read,
so a level nobody reads builds no Fraction array. The arrays of a float
level are its computing form, and read-only too. A level or a gradation is
never edited: a changed one is a new value (`dataclasses.replace`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain

import numpy as np

from . import _linalg
from .errors import InconsistentMomentsError
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


@cache
def _level_weights(dimension: int, degree: int) -> tuple:
    """w(alpha) of each degree-`degree` monomial, in graded-lex order: built once per shape."""
    return tuple(index_weight(a) for a in monomials_of_degree(dimension, degree))


@cache
def _moment_plan(dimension: int, lo: int, hi: int, degree: int) -> tuple:
    """(distinct, where): the index plan of a `_moment_rows` block, built once per shape.

    distinct lists the monomials of degree lo..hi + degree in graded-lex
    order (the tuples of `monomials_of_degree`), each of which is some
    gamma + b of the block, and where[r, c] is the position in distinct of
    row r's gamma plus column c's b, a read-only int array.
    """
    # a multi-index is encoded as the integer with digits alpha_j in base
    # `base`, which exceeds every exponent, so encodings add like multi-indices
    base = hi + degree + 1
    kind = np.int64 if base**dimension < 2**63 else object
    radix = np.array([base**j for j in range(dimension)], dtype=kind)
    keys = np.array(monomials_up_to(dimension, hi), dtype=kind) @ radix
    rows = keys[len(monomials_up_to(dimension, lo - 1)) :]
    cols = keys[: len(monomials_up_to(dimension, degree))]
    distinct = tuple(chain.from_iterable(monomials_of_degree(dimension, s) for s in range(lo, base)))
    distinct_keys = np.array(distinct, dtype=kind) @ radix
    order = np.argsort(distinct_keys)
    where = order[np.searchsorted(distinct_keys[order], rows[:, None] + cols[None, :])]
    where.setflags(write=False)
    return distinct, where


def _moment_rows(functional: MomentFunctional, lo: int, hi: int, degree: int):
    """Lambda(x^(gamma+b)) for lo <= |gamma| <= hi and |b| <= degree <= hi, in computing form.

    Rows gamma and columns b follow ``monomials_up_to``: with lo = 0 and
    hi = degree this is the moment matrix M, and row gamma + e_i of M is row
    gamma of the localizing matrix of x_i. The index plan depends on the
    shape alone and is built once per shape (`_moment_plan`), so a call
    fetches each distinct moment and clears it once, then gathers. Every
    distinct moment appears, so an exact result is reduced by construction.
    """
    distinct, where = _moment_plan(functional.dimension, lo, hi, degree)
    values = [functional.moment(alpha) for alpha in distinct]
    if not functional.exact:
        return np.array(values, dtype=float)[where]
    values = _linalg.cleared(np.array(values, dtype=object))
    return _linalg.Cleared.reduced(values.num[where], values.den)


@dataclass(frozen=True, eq=False)
class DegreeBasis(_linalg.ReadOnly):
    """One degree slice: candidate coefficients, their Gram matrix, and its splitting.

    coef holds one candidate per column, over the monomials of degree
    <= degree (graded-lex rows): column j is x^monomials[j] minus its
    projection onto the lower slices. Its arrays are read-only; an exact
    level built by `build_gradations` publishes coef, gram and split on
    their first read, from the level of pairs it keeps as computing form.
    """

    degree: int
    monomials: tuple
    weights: tuple
    coef: np.ndarray
    gram: np.ndarray
    split: _linalg.GramSplit

    _arrays = ("coef", "gram", "split")

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    @property
    def exact(self) -> bool:
        """Whether the level computes on pairs: its arrays are object arrays (pairs in computing form)."""
        return self.__dict__.get("_computing", self).coef.dtype == object

    @property
    def rank(self) -> int:
        return _linalg.computing(self).split.rank

    @property
    def nullity(self) -> int:
        return _linalg.computing(self).split.nullity

    def omega(self) -> np.ndarray:
        """Form generator: the Gram matrix with rows rescaled by 1/w(alpha), a fresh array.

        The level's mode decides the arithmetic: an exact level divides the
        Fractions of its Gram pair by the weights, a float level its binary64
        Gram by their binary64 images, also when it was given Fractions.
        """
        gram = _linalg.computing(self).gram
        if self.exact:
            out, weights = _linalg.published(gram), self.weights
        else:
            out, weights = gram.copy(), [float(w) for w in self.weights]
        for i, w in enumerate(weights):
            out[i, :] = out[i, :] / w
        return out

    def _polynomials(self, vecs: np.ndarray) -> list:
        d = len(self.monomials[0])
        rows = monomials_up_to(d, self.degree)
        return [Polynomial(d, dict(zip(rows, vecs[:, j]))) for j in range(vecs.shape[1])]

    def combine(self, columns) -> list:
        """One polynomial per column (an array, a pair or a map): the candidates weighted by its entries.

        A float level takes the columns in binary64. Float columns on an
        exact level give float coefficients: the public Fraction candidates
        times the floats. Other columns on an exact level are cleared here,
        once (`_linalg.cleared`; a pair or a map is taken as it is).
        """
        coef = _linalg.computing(self).coef
        if not self.exact:
            return self._polynomials(coef @ _linalg.to_float(columns))
        if getattr(columns, "dtype", None) == float:
            return self._polynomials(self.coef @ columns)
        return self._polynomials(_linalg.published(_linalg.times(coef, _linalg.cleared(columns))))

    @property
    def candidates(self) -> list:
        """The candidate polynomials, in the order of `monomials`."""
        return self._polynomials(self.coef)

    def ortho_basis(self) -> list:
        """Orthogonal polynomials spanning the slice, from the computing split; squared norms in norms2."""
        return self.combine(_linalg.computing(self).split.combos)

    def null_basis(self) -> list:
        """Polynomials of this degree annihilated by the seminorm, from the computing split."""
        return self.combine(_linalg.computing(self).split.null)


@dataclass(frozen=True, eq=False)
class GradationBasis:
    """Orthogonal gradation of a functional up to a fixed maximal degree: a tuple of levels."""

    functional: MomentFunctional
    max_degree: int
    mode: str
    tol: Tolerances
    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))

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


def _padded(pair, rows: int):
    """pair with zero rows appended up to rows: Python ints, whose products cannot overflow."""
    zeros = np.zeros((rows - pair.shape[0], pair.shape[1]), dtype=object)
    return _linalg.Cleared.reduced(np.concatenate([pair.num, zeros]), pair.den)


def _moment_product(num: np.ndarray, den: int, coef):
    """(num / den) coef by structure, for moment rows num / den with one column per row of coef.

    The one product of moments with an exact level's coef pair. coef is den I
    on its degree-n rows, and many of its lower rows, the projections, are
    zero: so only its nonzero lower rows are multiplied, and the degree-n
    columns of num are scaled, unless coef.den is 1. The numerators, and so
    the reduced pair, are those of the full product.
    """
    # the last coef.shape[1] rows of coef, and columns of num, are of degree n
    nonzero = np.flatnonzero(coef.num[: -coef.shape[1]].any(axis=1))
    out = num[:, -coef.shape[1] :]
    if coef.den != 1:
        out = coef.den * out
    if len(nonzero):
        out = out + num[:, nonzero] @ coef.num[nonzero]
    return _linalg.Cleared(out, den * coef.den)


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
    functional.require(2 * max_degree, f"gradation to degree {max_degree}")
    if mode == "float" and functional.exact:
        functional = as_float_functional(functional)
    exact = mode == "exact"
    d = functional.dimension
    moments = _moment_rows(functional, 0, max_degree, max_degree)

    levels = []
    # per level m with a positive slice, of its orthogonal basis U_m: (its first row,
    # U_m diag(1/nu_m), U_m^T M), the last on the columns of degree >= m only in exact mode
    lower = []
    for n in range(max_degree + 1):
        monos = monomials_of_degree(d, n)
        k = len(monos)
        size = len(monomials_up_to(d, n))
        lo = size - k
        top = lower[-1][1].shape[0] if lower else 0  # the rows the projections reach
        unit = np.zeros((size, k), dtype=object if exact else float)
        np.fill_diagonal(unit[lo:], 1)  # an exact unit block holds int entries
        if exact:
            coef = _linalg.cleared(unit[top:])
            if lower:
                # the lower slices are mutually M-orthogonal, so every projection is
                # taken from the unit columns: one product of the stacked factors,
                # on the columns of degree n of each U_m^T M
                projection = _linalg.times_sum(
                    [(_padded(scaled, top), paired[:, lo - start : size - start]) for start, scaled, paired in lower]
                )
                coef = _linalg.stack([-projection, coef], axis=0)
            # M coef vanishes on the rows of degree < n: coef is M-orthogonal to each
            # lower U_m, and each lower null direction z has M z = 0 (checked below).
            # Its rows of degree >= n give G_n (the degree-n rows, as coef is the
            # identity there), the null-moment check, U_n^T M and assembly's N_n
            product = _moment_product(moments.num[lo:, :size], moments.den, coef)
            gram = product[:k]
        else:
            coef = unit
            for _, scaled, paired in lower:
                coef[: scaled.shape[0]] -= _linalg.matmul(scaled, paired[:, :size], coef)
            # binary64 leaves rounding noise in the low rows: the full quadratic form
            gram = _linalg.gram_product(coef, moments[:size, :size])
        split = _linalg.split_gram(gram, tol_rank=tol.rank, tol_psd=tol.psd)
        # a PSD moment matrix maps each seminorm-null polynomial to zero
        if exact and split.nullity and _linalg.times(product, split.null).num.any():
            raise InconsistentMomentsError(
                f"a null polynomial of degree {n} has a nonzero moment against a monomial "
                f"of degree <= {max_degree}; data is not a moment functional"
            )
        if split.rank and n < max_degree:  # no level above reads the projection
            ortho = _linalg.times(coef, split.combos)
            paired = _linalg.times(product, split.combos).T if exact else _linalg.matmul(ortho.T, moments[:size])
            lower.append((lo, ortho / split.norms2[None, :], paired))
        level = DegreeBasis(n, monos, _level_weights(d, n), coef, gram, split)
        if exact and n < max_degree:  # N_n, the rows of degree n + 1 of M coef, for assembly
            level.__dict__["_next_rows"] = product[k : len(monomials_up_to(d, n + 1)) - lo]
        # the level of pairs, or of binary64 arrays, is the computing form
        publish = {
            "coef": partial(_public_coef, unit, top, coef),
            "gram": partial(_linalg.published, gram),
            "split": partial(_linalg.published, split),
        } if exact else {}
        levels.append(DegreeBasis.lazy(level, publish))

    return GradationBasis(functional, max_degree, mode, tol, levels)
