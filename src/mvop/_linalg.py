"""Internal linear algebra: exact products, kernels and Gram splits, float
spectral splitting, degenerate-metric solves, and joint diagonalization.

Exact matrices are computed on as `Cleared` pairs (Python-int numerators over
one denominator): `cleared` makes them from Fraction arrays once where a
computation starts, `published` makes Fraction arrays once at the API edge.
`matmul` takes float arrays, pairs, or exact object arrays (returned as
Fractions), so callers stay mode-generic; `max_quadratic` gives Gram
seminorms; the exact Gram split and `exact_nullspace` share one fraction-free
elimination (Bareiss 1968). An object array holding a float entry cannot be
cleared (TypeError) and is multiplied as plain objects, so perturbed exact
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


class Cleared:
    """An exact matrix num / den: int-object numerators over one int den > 0.

    Always reduced, gcd(den, every numerator) = 1, so den is the lcm of the
    entries' denominators. Supports ``.T``, ``[]``, ``[] =``, ``-``, ``+``, ``/``.
    """

    dtype = np.dtype(object)

    def __init__(self, num: np.ndarray, den: int):
        g = math.gcd(den, *num.flat) * (1 if den > 0 else -1)
        self.num, self.den = (num, den) if g == 1 else (num // g, den // g)
        self.shape = num.shape

    @property
    def T(self) -> "Cleared":
        return Cleared(self.num.T, self.den)

    def __getitem__(self, idx) -> "Cleared":
        return Cleared(self.num[idx], self.den)

    def __setitem__(self, idx, value: "Cleared") -> None:
        den = math.lcm(self.den, value.den)
        num = self.num * (den // self.den)
        num[idx] = value.num * (den // value.den)
        self.__init__(num, den)

    def __neg__(self) -> "Cleared":
        return Cleared(-self.num, self.den)

    def __sub__(self, other: "Cleared") -> "Cleared":
        den = math.lcm(self.den, other.den)
        return Cleared(self.num * (den // self.den) - other.num * (den // other.den), den)

    def __add__(self, other: "Cleared") -> "Cleared":
        return self - -other

    def __truediv__(self, other: "Cleared") -> "Cleared":
        # a / da over b / db is a * db / (da * b), taken over the lcm of |da * b|
        dens = self.den * other.num
        den = math.lcm(*dens.flat)
        return Cleared(self.num * other.den * (den // dens), den)


def cleared(x):
    """The computing form of an array or GramSplit: int/Fraction arrays become pairs.

    Float arrays and pairs come back as they are; TypeError on a float entry.
    """
    if isinstance(x, GramSplit):
        return GramSplit(cleared(x.combos), cleared(x.norms2), cleared(x.null))
    if isinstance(x, Cleared) or x.dtype != object:
        return x
    try:
        den = math.lcm(*(v.denominator for v in x.flat))
    except AttributeError:
        raise TypeError("exact matrix holds a float entry") from None
    num = [v.numerator * (den // v.denominator) for v in x.flat]
    return Cleared(np.array(num, dtype=object).reshape(x.shape), den)


def published(x):
    """The API-edge form of `cleared`'s output: pairs become Fraction arrays."""
    if isinstance(x, GramSplit):
        return GramSplit(published(x.combos), published(x.norms2), published(x.null))
    if not isinstance(x, Cleared):
        return x
    return np.array([Fraction(v, x.den) for v in x.num.flat], dtype=object).reshape(x.shape)


def stack(mats: list, axis: int):
    """Concatenation along axis; pairs go over the lcm of their denominators."""
    if not isinstance(mats[0], Cleared):
        return np.concatenate(mats, axis=axis)
    den = math.lcm(*(m.den for m in mats))
    return Cleared(np.concatenate([m.num * (den // m.den) for m in mats], axis=axis), den)


def _chain(mats) -> np.ndarray:
    return reduce(lambda acc, m: m @ acc, reversed(mats))


def matmul(*mats):
    """Product of a chain of matrices, evaluated right to left.

    Float arrays multiply as usual, and pairs as one integer product. Exact
    object arrays are multiplied as pairs and returned as a Fraction array;
    one holding a float entry multiplies as plain objects.
    """
    if all(m.dtype != object for m in mats):
        return _chain(mats)
    try:
        pairs = [cleared(m) for m in mats]
    except TypeError:
        return _chain(mats)
    num = reduce(lambda acc, m: m.num @ acc, reversed(pairs[:-1]), pairs[-1].num)
    product = Cleared(num, math.prod(m.den for m in pairs))
    return product if any(isinstance(m, Cleared) for m in mats) else published(product)


def max_quadratic(cols, gram):
    """max over the columns c of c^T gram c, for exact pairs or object arrays.

    On integer numerators only the diagonal of cols^T gram cols is formed,
    and its entries share one positive denominator, so a single Fraction is
    built, from the largest numerator. A float entry falls back to the object
    product.
    """
    try:
        c, g = cleared(cols), cleared(gram)
    except TypeError:
        quad = cols.T @ gram @ cols
        return max(quad[i, i] for i in range(quad.shape[0]))
    return Fraction(max((c.num * (g.num @ c.num)).sum(axis=0)), c.den * c.den * g.den)


def gram_product(coef, mat):
    """coef^T @ mat @ coef for symmetric mat; a float one is mirrored to be exactly symmetric."""
    out = matmul(coef.T, mat, coef)
    if not isinstance(out, Cleared):
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


def _kernel(m: np.ndarray, pivots: list, scale: int) -> Cleared:
    """RREF kernel basis as columns: one unit free coordinate each."""
    ncols = m.shape[1]
    free = [c for c in range(ncols) if c not in set(pivots)]
    out = np.zeros((ncols, len(free)), dtype=object)
    for k, f in enumerate(free):
        out[f, k] = scale
        out[pivots, k] = -m[: len(pivots), f]
    return Cleared(out, scale)


def exact_nullspace(a: np.ndarray) -> np.ndarray:
    """Kernel basis of an exact matrix as columns of Fractions (the RREF kernel)."""
    return published(_kernel(*_integer_rref(cleared(a).num)))


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
    inconsistency; a split of pairs for a `Cleared` Gram, else of Fractions.
    """
    d = gram.shape[0]
    if d == 0:
        empty = np.empty((0, 0), dtype=object if exact else float)
        return GramSplit(empty, np.zeros((0,)), empty)
    if exact:
        pair = cleared(gram)
        rref = _integer_rref(pair.num)
        pivots = rref[1]
        pivot_combos, norms2 = _pivot_ldl(pair.num[np.ix_(pivots, pivots)], pair.den)
        combos = np.zeros((d, len(pivots)), dtype=object)
        combos[pivots] = pivot_combos.num
        split = GramSplit(Cleared(combos, pivot_combos.den), norms2, _kernel(*rref))
        return split if pair is gram else published(split)
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
    # prevs[k] = delta_(k-1) > 0, by induction over the positive pivots
    prevs = np.ones((r + 1,), dtype=object)
    for k in range(r):
        if m[k, k] <= 0:
            raise InconsistentMomentsError(
                "exact Gram matrix is not positive semidefinite "
                f"(pivot norm {Fraction(m[k, k], prevs[k] * den)})"
            )
        _eliminate(m, slice(k + 1, None), k, k, prevs[k])
        prevs[k + 1] = m[k, k]
    # combo k: row k of the L^-1 part over delta_(k-1); norm k: m[k, k] over that * den
    combos = Cleared(m[:, r:].T, 1) / Cleared(prevs[None, :r], 1)
    return combos, Cleared(np.diagonal(m).copy(), 1) / Cleared(prevs[:r] * den, 1)


def pseudo_apply(split: GramSplit, rhs: np.ndarray) -> np.ndarray:
    """Apply the Gram pseudo-inverse to rhs using a precomputed split.

    Exact for rhs columns inside the Gram range (both modes); the float path
    is the Moore-Penrose action with the split's rank cutoff (rank 0: zeros).
    """
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
