"""Internal linear algebra: exact products, kernels and Gram splits, float
spectral splitting, degenerate-metric solves, and joint diagonalization.

Exact-mode matrices are numpy object arrays of Fractions; float-mode matrices
are float64 arrays. Exact work runs on integer numerators: each matrix is
cleared to Python ints over one common denominator, and a Fraction is built
only per result entry. Products go through `matmul`, which takes either kind,
so callers stay mode-generic; `max_quadratic` gives Gram seminorms; the exact
Gram split and `exact_nullspace` share one fraction-free elimination
(Bareiss 1968) and need rational entries. A product or seminorm of an object
array holding a float entry runs on plain objects instead, so perturbed exact
blocks still yield residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import InconsistentMomentsError

EPS = float(np.finfo(np.float64).eps)


def to_float(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def _cleared(a: np.ndarray):
    """(num, den) with a = num / den: Python-int numerators over the lcm of the denominators.

    Returns None if an entry has no denominator (a float), found in the same
    pass that takes the lcm, so the caller can fall back to object arithmetic.
    """
    try:
        den = math.lcm(*(x.denominator for x in a.flat))
    except AttributeError:
        return None
    num = np.empty(a.shape, dtype=object)
    num.flat = [x.numerator * (den // x.denominator) for x in a.flat]
    return num, den


def _chain(mats) -> np.ndarray:
    return reduce(lambda acc, m: m @ acc, reversed(mats))


def matmul(*mats: np.ndarray) -> np.ndarray:
    """Product of a chain of matrices, evaluated right to left.

    Float arrays multiply as usual. Exact object arrays (int/Fraction entries)
    are cleared to integer numerators over one common denominator each,
    multiplied as Python ints, and divided once at the end, so the chain
    builds one Fraction per result entry instead of one per scalar operation.
    An object array holding a float entry multiplies as plain objects.
    """
    if all(m.dtype != object for m in mats):
        return _chain(mats)
    cleared = [_cleared(m) for m in mats]
    if any(c is None for c in cleared):
        return _chain(mats)
    num, den = cleared[-1]
    for left, left_den in reversed(cleared[:-1]):
        num = left @ num
        den *= left_den
    out = np.empty(num.shape, dtype=object)
    out.flat = [Fraction(v, den) for v in num.flat]
    return out


def max_quadratic(cols: np.ndarray, gram: np.ndarray):
    """max over the columns c of c^T gram c, for exact object arrays.

    On integer numerators only the diagonal of cols^T gram cols is formed,
    and its entries share one positive denominator, so a single Fraction is
    built, from the largest numerator. A float entry falls back to the object
    product.
    """
    c, g = _cleared(cols), _cleared(gram)
    if c is None or g is None:
        quad = cols.T @ gram @ cols
        return max(quad[i, i] for i in range(quad.shape[0]))
    (num, den), (gram_num, gram_den) = c, g
    return Fraction(max((num * (gram_num @ num)).sum(axis=0)), den * den * gram_den)


def gram_product(coef: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """coef^T @ mat @ coef for symmetric mat, mirrored to be exactly symmetric."""
    out = matmul(coef.T, mat, coef)
    upper = np.triu_indices(out.shape[0], 1)
    out[upper[1], upper[0]] = out[upper]
    return out


def _eliminate(m: np.ndarray, rows, col: int, pivot_row: int, prev: int) -> None:
    """One fraction-free elimination step (Bareiss 1968) on the given rows of m, in place.

    Each row becomes (pivot * row - row[col] * pivot_row_vector) / prev; the
    division is exact, since every entry stays a minor of the input.
    """
    pivot = m[pivot_row, col]
    m[rows] = (pivot * m[rows] - np.outer(m[rows, col], m[pivot_row])) // prev


def _integer_rref(num: np.ndarray) -> tuple:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (m, pivots, scale) with the reduced row echelon form equal to
    m[:len(pivots)] / scale: every pivot entry ends equal to the last pivot.
    """
    m = num.copy()
    nrows = m.shape[0]
    pivots: list = []
    scale = 1
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == nrows:
            break
        nonzero = np.flatnonzero(m[r:, c])
        if not nonzero.size:
            continue
        p = r + int(nonzero[0])
        m[[r, p]] = m[[p, r]]
        _eliminate(m, np.arange(nrows) != r, c, r, scale)
        scale = m[r, c]
        pivots.append(c)
    return m, pivots, scale


def _kernel(m: np.ndarray, pivots: list, scale: int) -> np.ndarray:
    """RREF kernel basis as columns: one unit free coordinate each, Fraction entries."""
    ncols = m.shape[1]
    free = [c for c in range(ncols) if c not in set(pivots)]
    out = np.full((ncols, len(free)), Fraction(0), dtype=object)
    for k, f in enumerate(free):
        out[f, k] = Fraction(1)
        for i, p in enumerate(pivots):
            out[p, k] = Fraction(-m[i, f], scale)
    return out


def exact_nullspace(a: np.ndarray) -> np.ndarray:
    """Kernel basis of an exact matrix as columns of Fractions (the RREF kernel)."""
    return _kernel(*_integer_rref(_cleared(a)[0]))


@dataclass
class GramSplit:
    """Positive/null splitting of a symmetric PSD Gram matrix.

    combos: (d x r) columns spanning the positive part (float mode: orthonormal
    eigenvectors; exact mode: a G-orthogonal basis of a kernel complement).
    norms2: squared G-norms of the combo columns (float mode: eigenvalues).
    null: (d x nu) kernel basis columns.
    """

    combos: np.ndarray
    norms2: np.ndarray
    null: np.ndarray

    @property
    def rank(self) -> int:
        return self.combos.shape[1]

    @property
    def nullity(self) -> int:
        return self.null.shape[1]


def rank_cutoff(dim: int, lam_max: float, tol_rank: float) -> float:
    return max(dim * EPS * max(lam_max, 0.0), tol_rank)


def split_gram(gram: np.ndarray, exact: bool, tol_rank: float, tol_psd: float) -> GramSplit:
    """Split a symmetric Gram matrix into positive and null parts.

    Float mode: eigendecomposition; eigenvalues <= the rank cutoff are null,
    anything below -tol_psd (scaled) means the data is not a moment functional.
    Exact mode: one fraction-free Gauss-Jordan pass on the integer numerators
    gives the pivot columns and the RREF kernel; the combos are the
    G-orthogonal unit-triangular vectors on the pivot coordinates, from an
    LDL^T of the pivot block, and any non-positive pivot norm means the same
    inconsistency.
    """
    d = gram.shape[0]
    if d == 0:
        empty = np.empty((0, 0), dtype=object if exact else float)
        return GramSplit(empty, np.zeros((0,)), empty)
    if exact:
        num, den = _cleared(gram)
        rref = _integer_rref(num)
        pivots = rref[1]
        combos = np.full((d, len(pivots)), Fraction(0), dtype=object)
        combos[pivots], norms2 = _pivot_ldl(num[np.ix_(pivots, pivots)], den)
        return GramSplit(combos, norms2, _kernel(*rref))
    g = to_float(gram)
    g = (g + g.T) / 2.0
    evals, evecs = np.linalg.eigh(g)
    lam_max = float(evals[-1]) if d else 0.0
    if evals[0] < -tol_psd * max(1.0, lam_max):
        raise InconsistentMomentsError(
            f"Gram matrix has eigenvalue {evals[0]:.3e}; data is not a moment functional"
        )
    cut = rank_cutoff(d, lam_max, tol_rank)
    keep = evals > cut
    return GramSplit(evecs[:, keep], evals[keep], evecs[:, ~keep])


def _pivot_ldl(h: np.ndarray, den: int) -> tuple:
    """G-orthogonal combos and squared norms on the pivot block H = h / den.

    With H = L D L^T, the combos are the columns of L^-T: unit upper
    triangular and pairwise H-orthogonal, so they equal metric Gram-Schmidt of
    the pivot unit vectors, and D holds their squared norms. Fraction-free
    forward elimination of [h^T | I] keeps row k equal to delta_k times row k
    of [D L^T | L^-1], delta_k the k-th leading principal minor of h, so each
    entry takes one division. Any non-positive D entry means the Gram matrix
    is not positive semidefinite.
    """
    r = h.shape[0]
    m = np.concatenate([h.T, np.eye(r, dtype=int).astype(object)], axis=1)
    combos = np.empty((r, r), dtype=object)
    norms2 = np.empty((r,), dtype=object)
    prev = 1
    for k in range(r):
        norm2 = Fraction(m[k, k], prev * den)
        if norm2 <= 0:
            raise InconsistentMomentsError(
                f"exact Gram matrix is not positive semidefinite (pivot norm {norm2})"
            )
        norms2[k] = norm2
        combos[:, k] = [Fraction(v, prev) for v in m[k, r:]]
        _eliminate(m, slice(k + 1, None), k, k, prev)
        prev = m[k, k]
    return combos, norms2


def pseudo_apply(split: GramSplit, rhs: np.ndarray) -> np.ndarray:
    """Apply the Gram pseudo-inverse to rhs using a precomputed split.

    Exact for rhs columns inside the Gram range (both modes); the float path
    is the Moore-Penrose action with the split's rank cutoff.
    """
    if split.rank == 0:
        if split.combos.dtype == object:
            out = np.empty((split.combos.shape[0], rhs.shape[1]), dtype=object)
            out[:] = Fraction(0)
            return out
        return np.zeros((split.combos.shape[0], rhs.shape[1]))
    coeffs = matmul(split.combos.T, rhs)
    coeffs = coeffs / split.norms2[:, None]
    return matmul(split.combos, coeffs)


def orthonormal_columns(split: GramSplit) -> np.ndarray:
    """Float combo matrix Q with Q^T G Q = I (columns scaled by 1/sqrt(norm2))."""
    combos = to_float(split.combos)
    norms2 = to_float(split.norms2)
    if combos.shape[1] == 0:
        return combos
    return combos / np.sqrt(norms2)[None, :]


def simultaneous_diagonalize(mats: list, seed: int, tol: float) -> np.ndarray:
    """Jointly diagonalize commuting symmetric float matrices.

    Takes the eigenvectors of a seeded random linear combination (up to 5
    draws). Returns W orthogonal with every W^T M W diagonal within tol
    (scaled per matrix). Raises ArithmeticError if no draw passes the check.
    """
    dim = mats[0].shape[0]
    if dim == 0:
        return np.zeros((0, 0))
    rng = np.random.default_rng(seed)
    for _ in range(5):
        c = rng.standard_normal(len(mats))
        combined = sum(ci * m for ci, m in zip(c, mats))
        _, w = np.linalg.eigh((combined + combined.T) / 2.0)
        if _all_diagonal(mats, w, tol):
            return w
    raise ArithmeticError("matrices could not be jointly diagonalized within tolerance")


def _all_diagonal(mats, w, tol) -> bool:
    for m in mats:
        t = w.T @ m @ w
        off = t - np.diag(np.diag(t))
        if np.max(np.abs(off)) > tol * max(1.0, float(np.max(np.abs(m)))):
            return False
    return True
