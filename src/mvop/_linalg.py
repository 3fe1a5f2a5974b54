"""Internal linear algebra: exact rational kernels and metric orthogonalization,
float spectral splitting, degenerate-metric solves, and joint diagonalization.

Exact-mode matrices are numpy object arrays of Fractions; float-mode matrices
are float64 arrays. Products go through `matmul`, which takes either kind and
runs exact products on integer numerators, so callers stay mode-generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import InconsistentMomentsError

EPS = float(np.finfo(np.float64).eps)


def as_object_matrix(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            out[i, j] = value
    return out


def to_float(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def _cleared(a: np.ndarray) -> tuple:
    """(num, den): Python-int object array num and common denominator den, a = num / den."""
    den = math.lcm(*(x.denominator for x in a.flat))
    num = np.empty(a.shape, dtype=object)
    num.flat = [x.numerator * (den // x.denominator) for x in a.flat]
    return num, den


def matmul(*mats: np.ndarray) -> np.ndarray:
    """Product of a chain of matrices, evaluated right to left.

    Float arrays multiply as usual. Exact object arrays (int/Fraction entries)
    are cleared to integer numerators over one common denominator each,
    multiplied as Python ints, and divided once at the end, so the chain
    builds one Fraction per result entry instead of one per scalar operation.
    """
    if all(m.dtype != object for m in mats):
        return reduce(lambda acc, m: m @ acc, reversed(mats))
    num, den = _cleared(mats[-1])
    for m in reversed(mats[:-1]):
        left, left_den = _cleared(m)
        num = left @ num
        den *= left_den
    out = np.empty(num.shape, dtype=object)
    out.flat = [Fraction(v, den) for v in num.flat]
    return out


def gram_product(coef: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """coef^T @ mat @ coef for symmetric mat, mirrored to be exactly symmetric."""
    out = matmul(coef.T, mat, coef)
    upper = np.triu_indices(out.shape[0], 1)
    out[upper[1], upper[0]] = out[upper]
    return out


def exact_rref(rows: list) -> tuple:
    """Row-reduce a matrix of Fractions in place-free fashion; returns (rref, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def exact_nullspace(rows: list) -> list:
    """Basis of the exact nullspace; each vector is a list of Fractions."""
    if not rows:
        return []
    rref, pivots = exact_rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rref[i][f]
        basis.append(v)
    return basis


def exact_rank(rows: list) -> int:
    return len(exact_rref(rows)[1]) if rows else 0


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
    Exact mode: exact kernel plus metric Gram-Schmidt on a pivot-coordinate
    complement; any non-positive pivot norm means the same inconsistency.
    """
    d = gram.shape[0]
    if d == 0:
        empty = np.zeros((0, 0)) if not exact else as_object_matrix([])
        return GramSplit(empty, np.zeros((0,)), empty)
    if exact:
        rows = [[Fraction(gram[i, j]) for j in range(d)] for i in range(d)]
        null_vecs = exact_nullspace(rows)
        _, pivots = exact_rref(rows)
        basis = []
        for p in pivots:
            e = [Fraction(0)] * d
            e[p] = Fraction(1)
            basis.append(e)
        combos, norms2 = _metric_gram_schmidt(basis, rows)
        null = as_object_matrix(list(map(list, zip(*null_vecs)))) if null_vecs else np.empty((d, 0), dtype=object)
        combo_mat = as_object_matrix(list(map(list, zip(*combos)))) if combos else np.empty((d, 0), dtype=object)
        norms_arr = np.empty((len(norms2),), dtype=object)
        for k, v in enumerate(norms2):
            norms_arr[k] = v
        return GramSplit(combo_mat, norms_arr, null)
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


def _metric_gram_schmidt(basis: list, gram_rows: list) -> tuple:
    """G-orthogonalize exact vectors without normalization; norms stay rational."""
    d = len(gram_rows)

    def metric_dot(u, v):
        gv = [sum(gram_rows[i][j] * v[j] for j in range(d)) for i in range(d)]
        return sum(u[i] * gv[i] for i in range(d))

    ortho: list = []
    norms2: list = []
    for v in basis:
        u = list(v)
        for w, n2 in zip(ortho, norms2):
            coeff = metric_dot(w, u) / n2
            u = [x - coeff * y for x, y in zip(u, w)]
        n2 = metric_dot(u, u)
        if n2 <= 0:
            raise InconsistentMomentsError(
                f"exact Gram matrix is not positive semidefinite (pivot norm {n2})"
            )
        ortho.append(u)
        norms2.append(n2)
    return ortho, norms2


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


def simultaneous_diagonalize(mats: list, seed: int, tol: float) -> tuple:
    """Jointly diagonalize commuting symmetric float matrices.

    Tries eigenvectors of a seeded random linear combination (up to 5 draws),
    then falls back to sequential block refinement. Returns (W, method) with
    W orthogonal and every W^T M W diagonal within tol (scaled per matrix).
    Raises ArithmeticError if no basis passes the check.
    """
    dim = mats[0].shape[0]
    if dim == 0:
        return np.zeros((0, 0)), "empty"
    rng = np.random.default_rng(seed)
    for _ in range(5):
        c = rng.standard_normal(len(mats))
        combined = sum(ci * m for ci, m in zip(c, mats))
        _, w = np.linalg.eigh((combined + combined.T) / 2.0)
        if _all_diagonal(mats, w, tol):
            return w, "random-combination"
    w = _sequential_refinement(mats)
    if _all_diagonal(mats, w, tol):
        return w, "sequential"
    raise ArithmeticError("matrices could not be jointly diagonalized within tolerance")


def _all_diagonal(mats, w, tol) -> bool:
    for m in mats:
        t = w.T @ m @ w
        off = t - np.diag(np.diag(t))
        if np.max(np.abs(off)) > tol * max(1.0, float(np.max(np.abs(m)))):
            return False
    return True


def _sequential_refinement(mats: list) -> np.ndarray:
    """Eigen-split on the first matrix, then refine inside degenerate blocks."""
    dim = mats[0].shape[0]
    w = np.eye(dim)
    blocks = [list(range(dim))]
    for m in mats:
        new_blocks = []
        for block in blocks:
            if len(block) == 1:
                new_blocks.append(block)
                continue
            cols = w[:, block]
            sub = cols.T @ m @ cols
            evals, evecs = np.linalg.eigh((sub + sub.T) / 2.0)
            w[:, block] = cols @ evecs
            gap = 1e-6 * max(1.0, float(np.max(np.abs(evals))))
            start = 0
            for i in range(1, len(block) + 1):
                if i == len(block) or evals[i] - evals[i - 1] > gap:
                    new_blocks.append(block[start:i])
                    start = i
        blocks = new_blocks
    return w
