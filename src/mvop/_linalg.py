"""Internal linear algebra: exact products, kernels and Gram splits, float
spectral splitting, degenerate-metric solves, and joint diagonalization.

Exact matrices are computed on as `Cleared` pairs (Python-int numerators over
one denominator): `cleared` makes them from Fraction arrays once where a
computation starts, `published` makes Fraction arrays once at the API edge.
`matmul` takes float arrays, pairs, or exact object arrays (returned as
Fractions), so callers stay mode-generic; `max_quadratic` gives Gram
seminorms. One fraction-free elimination per exact Gram (Bareiss 1968) gives
its pivots, combos, norms and RREF kernel, and the kernel of any exact matrix
A is that of the Gram A^T A. An object array holding a float entry cannot be
cleared (TypeError) and is multiplied as plain objects, so perturbed exact
blocks still yield residuals. A computing form handed from one layer to the
next is `Guarded` by the public arrays it was made from, and is used only
while they are unchanged.
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


class Guarded:
    """A value derived from some public arrays, kept with shallow copies of them.

    `holds(arrays)` is true while there are as many arrays as copies and each
    has the dtype, shape and bytes of its copy. An object array's bytes are
    its element pointers, and the copy keeps the elements alive, so equal
    bytes mean the same immutable scalars: an in-place edit, a reassigned
    array or a float put in place of an equal rational all fail the test.
    """

    def __init__(self, arrays: list, value):
        self.copies = [a.copy() for a in arrays]
        self.value = value

    def holds(self, arrays: list) -> bool:
        return len(arrays) == len(self.copies) and all(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(self.copies, arrays)
        )


def recall(memo: Guarded | None, arrays: list):
    """memo's value while it holds for arrays, else None."""
    return memo.value if memo is not None and memo.holds(arrays) else None


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
    Exact mode: `_exact_split`, a split of pairs for a `Cleared` Gram, else of
    Fractions; an asymmetric Gram or a non-positive pivot norm means the same
    inconsistency.
    """
    d = gram.shape[0]
    if d == 0:
        empty = np.empty((0, 0), dtype=object if exact else float)
        return GramSplit(empty, np.zeros((0,)), empty)
    if exact:
        split = _exact_split(cleared(gram))
        return split if isinstance(gram, Cleared) else published(split)
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


def _exact_split(gram: Cleared) -> GramSplit:
    """One fraction-free forward elimination of [num | I], row by row in index order.

    Each row is eliminated by the earlier pivot rows only, so with delta the
    principal minor of num on those pivots its I-part is delta times e_k minus
    the G-projection of e_k onto them. Row k is null when its Schur part (columns
    k..d-1) is zero: in a symmetric Gram, column k then lies in the span of
    the earlier columns, and the I-part over delta is the RREF kernel column,
    with its unit on k. Otherwise k is a pivot: the I-part over delta is the
    combo, the pivot unit vector made G-orthogonal to the earlier combos
    (L^-T of the pivot block's LDL^T), and the Schur diagonal over den * delta
    is its squared norm, which must be positive.
    """
    num, d = gram.num, gram.shape[0]
    if (num != num.T).any():
        raise InconsistentMomentsError("exact Gram matrix is not symmetric")
    m = np.concatenate([num, np.eye(d, dtype=int).astype(object)], axis=1)
    # deltas[k]: the principal minor of num on the pivots before row k, positive by induction
    deltas = np.ones((d,), dtype=object)
    pivots, nulls = [], []
    for k in range(d):
        deltas[k] = m[pivots[-1], pivots[-1]] if pivots else 1
        if not m[k, k:d].any():
            nulls.append(k)
            continue
        if m[k, k] <= 0:
            raise InconsistentMomentsError(
                "exact Gram matrix is not positive semidefinite "
                f"(pivot norm {Fraction(m[k, k], deltas[k] * gram.den)})"
            )
        # one fraction-free step (Bareiss 1968): the division is exact, as every
        # entry stays a minor of [num | I]
        m[k + 1 :] = (m[k, k] * m[k + 1 :] - np.outer(m[k + 1 :, k], m[k])) // deltas[k]
        pivots.append(k)

    def over_delta(rows):
        return Cleared(m[rows, d:].T, 1) / Cleared(deltas[None, rows], 1)

    norms2 = Cleared(m[pivots, pivots], 1) / Cleared(deltas[pivots] * gram.den, 1)
    return GramSplit(over_delta(pivots), norms2, over_delta(nulls))


def pseudo_apply(split: GramSplit, rhs: np.ndarray) -> np.ndarray:
    """Apply the Gram pseudo-inverse to rhs using a precomputed split.

    Exact for rhs columns inside the Gram range (both modes); the float path
    is the Moore-Penrose action with the split's rank cutoff (rank 0: zeros).
    """
    coeffs = matmul(split.combos.T, rhs)
    coeffs = coeffs / split.norms2[:, None]
    return matmul(split.combos, coeffs)


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
