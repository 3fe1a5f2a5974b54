"""Internal linear algebra: exact products, kernels and Gram splits, float
spectral splitting, degenerate-metric solves, and joint diagonalization.

There are two arithmetic regimes, and a value's mode picks one. Exact
matrices are computed on as `Cleared` pairs (Python-int numerators over one
denominator) and `Units` maps: `cleared` makes pairs from rational arrays once
where a computation starts, and raises ValueError on a non-rational entry;
`published` makes Fraction arrays at the API edge. Float matrices are computed
on as binary64 arrays (`floated`), also when they are given as Fraction
arrays; `to_float` rounds a pair once per entry (`rounded`, which names an
exact value beyond the binary64 range). The kernels take pairs
and maps, or binary64 arrays, and clear nothing: `matmul` multiplies binary64
arrays, or pairs as one integer product, and `max_quadratic` gives exact Gram
seminorms. Every array a library value holds is read-only (`read_only`): a
`ReadOnly` holder keeps the computing form it was built from for good, and
publishes an exact array on its first read, so an array nobody reads is never
built, and a change is a new value (`dataclasses.replace`), whose computing
form is made once from its arrays, pairs if the value is exact, else binary64.
One fraction-free elimination per exact Gram (Bareiss 1968) gives its
pivots, combos, norms and RREF kernel, and the kernel of any exact matrix A
is that of the Gram A^T A. An exact matrix with one unit entry per column
is held as its index map (`Units`): the canonical creation blocks, and
the combos and kernel of an exact Gram with no nonzero numerator off its
diagonal (every Gram of a product of 1-D functionals, and a zero Gram), whose
split is read off the diagonal with no elimination. A product with a map is an
index move, never a multiplication (`times`, `times_sum`), and a product with
such a Gram is a row scaling (`gram_times`). A pair, like a map, never
changes after it is made, so it decides once whether it is diagonal
(`Cleared.diagonal`). A published split holds dense arrays, and a
split cleared from one takes the products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cache, cached_property, reduce

import numpy as np

from .errors import InconsistentMomentsError

EPS = float(np.finfo(np.float64).eps)


def to_float(a) -> np.ndarray:
    """The binary64 image of an array, or of a pair (`Cleared`): each entry num / den, rounded once (`rounded`)."""
    if isinstance(a, Cleared):
        return np.asarray(rounded(a.num, a.den), dtype=np.float64)
    return np.asarray(a, dtype=np.float64)


def rounded(num, den: int):
    """num / den rounded once to binary64, for an int or an int-object array num and an int den > 0.

    An exact value beyond the binary64 range raises OverflowError, naming
    the size of the largest one.
    """
    try:
        return num / den
    except OverflowError:
        top = max(map(abs, np.ravel(num)))
        exponent = math.floor(math.log10(top) - math.log10(den))
        raise OverflowError(f"an exact value of about 10^{exponent} is beyond the binary64 range") from None


class Cleared:
    """An exact matrix num / den: int-object numerators over one int den > 0.

    Always reduced, gcd(den, every numerator) = 1, so den is the lcm of the
    entries' denominators. Supports ``.T``, ``[]``, ``-``, ``+``, ``/``, each
    of which makes a new pair: a pair never changes after it is made, and an
    entry assignment raises TypeError. The constructor reduces; `reduced`
    takes a pair that is reduced by construction (a transpose, a negation, a
    `stack`) without the gcd.
    """

    dtype = np.dtype(object)

    def __init__(self, num: np.ndarray, den: int):
        # over den 1 the pair is reduced: no numerator is unpacked into a gcd
        g = 1 if den == 1 else math.gcd(den, *num.flat) * (1 if den > 0 else -1)
        self.num, self.den = (num, den) if g == 1 else (num // g, den // g)
        self.shape = num.shape

    @classmethod
    def reduced(cls, num: np.ndarray, den: int) -> "Cleared":
        """The pair num / den, already reduced by construction: no gcd is taken."""
        out = cls.__new__(cls)
        out.num, out.den, out.shape = num, den, num.shape
        return out

    @property
    def T(self) -> "Cleared":
        return Cleared.reduced(self.num.T, self.den)

    def __getitem__(self, idx) -> "Cleared":
        return Cleared(self.num[idx], self.den)

    @cached_property
    def diagonal(self):
        """The diagonal numerators when no numerator off the diagonal is nonzero, else None: tested once."""
        diagonal = self.num.diagonal()
        return diagonal if np.count_nonzero(self.num) == np.count_nonzero(diagonal) else None

    def __neg__(self) -> "Cleared":
        return Cleared.reduced(-self.num, self.den)

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


class Units:
    """An exact matrix with one unit entry per column, held as its index map.

    Column j of the size-row matrix holds sign in row rows[j]; with
    transposed set the map stands for that matrix's transpose. A product
    with it moves the other factor's entries (`moved`): M R puts the rows
    of R at the map's rows, M^T G takes the rows of G there, and L M takes
    the columns of L there. A map is never changed after it is made.
    """

    def __init__(self, rows: np.ndarray, size: int, sign: int = 1, transposed: bool = False):
        self.rows, self.size, self.sign, self.transposed = rows, size, sign, transposed
        self.shape = (len(rows), size) if transposed else (size, len(rows))

    @cached_property
    def T(self) -> "Units":
        return Units(self.rows, self.size, self.sign, not self.transposed)

    def __neg__(self) -> "Units":
        return Units(self.rows, self.size, -self.sign, self.transposed)

    def pair(self) -> Cleared:
        """The matrix as a pair: int entries over den 1."""
        num = np.zeros((self.size, len(self.rows)), dtype=object)
        num[self.rows, np.arange(len(self.rows))] = self.sign
        return Cleared.reduced(num.T if self.transposed else num, 1)

    def matches(self, block) -> bool:
        """Whether block is this map's matrix as a pair: one O(entries) test."""
        same = isinstance(block, Cleared) and block.den == 1 and block.shape == self.shape
        return same and bool((block.num == self.pair().num).all())

    def moved(self, num: np.ndarray, left: bool, scale: int = 1) -> tuple:
        """(rows, entries) of scale * (self @ num), or of scale * (num @ self) when not left, on numerators.

        A scatter (M R, L M^T) puts the entries at rows and zeros elsewhere;
        a gather (M^T G, L M) gives every entry, and rows is None.
        """
        scale *= self.sign
        rows = self.rows if left else (slice(None), self.rows)
        scatter = left != self.transposed
        entries = num if scatter else num[rows]
        return rows if scatter else None, entries if scale == 1 else entries * scale


def _dense(x):
    return x.pair() if isinstance(x, Units) else x


def is_zero(x) -> bool:
    """Whether x is an exact pair with no nonzero numerator.

    The one zero-level test of exact work: a zero Gram level is solved and
    measured against without product, and a zero right-hand side is solved
    without one. Float arrays never pass, so float work is unchanged.
    """
    return isinstance(x, Cleared) and not any(x.num.flat)


def cleared(x):
    """The exact computing form of an array, GramSplit or (nested) list of them: arrays become pairs.

    Pairs, maps and None come back as they are; ValueError on a non-rational entry.
    """
    if isinstance(x, (list, tuple)):
        return [cleared(v) for v in x]
    if x is None or isinstance(x, (Cleared, Units)):
        return x
    if isinstance(x, GramSplit):
        return GramSplit(cleared(x.combos), cleared(x.norms2), cleared(x.null))
    x = x if x.dtype == object else x.astype(object)
    try:
        den = math.lcm(*(v.denominator for v in x.flat))
    except AttributeError:
        raise ValueError("an exact matrix holds a non-rational entry") from None
    num = [v.numerator * (den // v.denominator) for v in x.flat]
    return Cleared(np.array(num, dtype=object).reshape(x.shape), den)


def floated(x):
    """The float computing form of an array, GramSplit or (nested) list of them: binary64 arrays; None is kept."""
    if isinstance(x, (list, tuple)):
        return [floated(v) for v in x]
    if isinstance(x, GramSplit):
        return GramSplit(to_float(x.combos), to_float(x.norms2), to_float(x.null))
    return None if x is None else to_float(x)


def published(x):
    """The API-edge form of `cleared`'s output: pairs and maps become Fraction arrays."""
    if isinstance(x, (list, tuple)):
        return [published(v) for v in x]
    if isinstance(x, GramSplit):
        return GramSplit(published(x.combos), published(x.norms2), published(x.null))
    x = _dense(x)
    if not isinstance(x, Cleared):
        return x
    return np.array([Fraction(v, x.den) for v in x.num.flat], dtype=object).reshape(x.shape)


def read_only(x):
    """x with every array in it (a GramSplit's too) made read-only in place; lists become tuples."""
    if isinstance(x, (list, tuple)):
        return tuple(map(read_only, x))
    for a in (x.combos, x.norms2, x.null) if isinstance(x, GramSplit) else (x,):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return x


class ReadOnly:
    """Base of a frozen dataclass whose `_arrays` fields hold read-only arrays (`read_only`).

    Its computing form is an instance holding those arrays as pairs and maps
    if the value is `exact`, else as binary64 arrays. Built by `lazy`, it
    keeps the form it was built from and publishes each array field on its
    first read; built by its constructor, it makes the arrays it is given
    read-only, and its form from them once (`computing`), where an exact
    value with a non-rational entry raises ValueError. As no array is
    edited, the form stays valid; a change is a new value
    (`dataclasses.replace`). Copies and pickles go through the constructor.
    """

    _arrays: tuple = ()

    def __post_init__(self):
        for name in self._arrays:
            self.__dict__[name] = read_only(self.__dict__[name])

    def _clear(self):
        """The computing form of given arrays: pairs if exact (ValueError on a non-rational entry), else binary64."""
        form = cleared if self.exact else floated
        return replace(self, **{name: form(getattr(self, name)) for name in self._arrays})

    @classmethod
    def lazy(cls, form, publish: dict):
        """The public value of computing form form: each field in publish is publish[name]() on first read."""
        out = cls.__new__(cls)
        out.__dict__.update({f.name: getattr(form, f.name) for f in fields(form) if f.name not in publish})
        out.__dict__.update(_computing=form, _publish=publish)
        return out

    def __getattr__(self, name):
        # reached only for a name the instance lacks, so an unread field is published here
        publish = self.__dict__.get("_publish", {}).get(name)
        if publish is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.__dict__[name] = read_only(publish())
        del self._publish[name]
        return value

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def computing(holder: ReadOnly):
    """holder's computing form: the one it was built from (None: holder itself), else `holder._clear()`, made once."""
    if "_computing" not in holder.__dict__:
        holder.__dict__["_computing"] = holder._clear()
    return holder.__dict__["_computing"] or holder


def stack(mats: list, axis: int):
    """Concatenation along axis; pairs go over the lcm of their denominators."""
    if not isinstance(mats[0], Cleared):
        return np.concatenate(mats, axis=axis)
    # the lcm of reduced pairs' denominators is reduced against their scaled
    # numerators: a prime power dividing it exactly divides one den unscaled
    den = math.lcm(*(m.den for m in mats))
    return Cleared.reduced(np.concatenate([m.num * (den // m.den) for m in mats], axis=axis), den)


def matmul(*mats):
    """Product of a chain of binary64 arrays, or of pairs as one integer product, evaluated right to left."""
    if not isinstance(mats[0], Cleared):
        return reduce(lambda acc, m: m @ acc, reversed(mats))
    num = reduce(lambda acc, m: m.num @ acc, reversed(mats[:-1]), mats[-1].num)
    return Cleared(num, math.prod(m.den for m in mats))


def times(a, b):
    """a @ b, where a or b may be a map (`Units`): always a dense pair or array.

    A product with a map is its move (`Units.moved`) of the other factor's
    numerators, which is exact; a dense one is `matmul`.
    """
    if not (isinstance(a, Units) or isinstance(b, Units)):
        return matmul(a, b)
    left = isinstance(a, Units)
    other = _dense(b if left else a)
    rows, entries = (a if left else b).moved(other.num, left)
    if rows is None:
        return Cleared(entries, other.den)
    out = np.zeros((a.shape[0], *b.shape[1:]), dtype=object)
    out[rows] = entries
    return Cleared.reduced(out, other.den)  # a scatter of a reduced pair is reduced


def times_sum(terms: list) -> Cleared:
    """The sum of a @ b over terms (a, b) of pairs and maps, as one pair reduced once.

    A term with a map (`Units`) is a move of its other factor's numerators;
    the other terms run as one integer product of their stacked factors,
    which with no move is the sum (`matmul` reduces it). Otherwise the
    unreduced product and the moves, in order, are added over the lcm of
    their denominators.
    """
    moves, products = [], []
    for a, b in terms:
        if isinstance(a, Units) or isinstance(b, Units):
            moves.append((a, True, _dense(b)) if isinstance(a, Units) else (b, False, a))
        else:
            products.append((a, b))
    den = math.lcm(*(other.den for *_, other in moves))
    if products:
        lefts, rights = zip(*products)
        lhs, rhs = stack(lefts, axis=1), stack(rights, axis=0)
        if not moves:
            return matmul(lhs, rhs)
        den = math.lcm(den, lhs.den * rhs.den)
        total = (lhs.num @ rhs.num) * (den // (lhs.den * rhs.den))
    else:
        a, b = terms[0]
        total = np.zeros((a.shape[0], *b.shape[1:]), dtype=object)
    for units, left, other in moves:
        rows, entries = units.moved(other.num, left, den // other.den)
        if rows is None:
            total += entries
        else:
            total[rows] += entries
    return Cleared(total, den)


def max_quadratic(cols: Cleared, gram: Cleared) -> Fraction:
    """max over the columns c of c^T gram c, for exact pairs.

    On integer numerators only the diagonal of cols^T gram cols is formed,
    and its entries share one positive denominator, so a single Fraction is
    built, from the largest numerator.
    """
    top = max((cols.num * (gram.num @ cols.num)).sum(axis=0))
    return Fraction(top, cols.den * cols.den * gram.den)


@cache
def _upper_triangle(k: int) -> tuple:
    """(rows, cols) of the entries above the diagonal of a k x k matrix (read-only)."""
    upper = np.triu_indices(k, 1)
    for index in upper:
        index.setflags(write=False)
    return upper


def gram_product(coef, mat):
    """coef^T @ mat @ coef for symmetric float mat, mirrored to be exactly symmetric."""
    out = coef.T @ (mat @ coef)
    rows, cols = _upper_triangle(out.shape[0])
    out[cols, rows] = out[rows, cols]
    return out


@dataclass(frozen=True)
class GramSplit:
    """Positive/null splitting of a symmetric PSD Gram matrix.

    combos: (d x r) columns spanning the positive part (float mode: orthonormal
    eigenvectors; exact mode: a G-orthogonal basis of a kernel complement).
    norms2: squared G-norms of the combo columns (float mode: eigenvalues).
    null: (d x nu) kernel basis columns.

    An exact split read off a diagonal Gram (`_exact_split`) holds its unit
    combo and kernel columns as maps (`Units`) until it is published.
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


def split_gram(gram, tol_rank: float, tol_psd: float) -> GramSplit:
    """Split a symmetric Gram matrix, k x k with k >= 1, into positive and null parts.

    A pair (`Cleared`) is split exactly (`_exact_split`): an asymmetric Gram
    or a non-positive pivot norm means the data is not a moment functional.
    A binary64 array takes one eigendecomposition (`eigen_split`), where an
    eigenvalue below -tol_psd (scaled) means the same.
    """
    if isinstance(gram, Cleared):
        return _exact_split(gram)
    evals, split = eigen_split(gram, tol_rank)
    if evals[0] < -tol_psd * max(1.0, float(evals[-1])):
        raise InconsistentMomentsError(
            f"Gram matrix has eigenvalue {evals[0]:.3e}; data is not a moment functional"
        )
    return split


def eigen_split(gram: np.ndarray, tol_rank: float) -> tuple:
    """(eigenvalues, split) of the symmetrized binary64 image of a non-empty Gram, from one `eigh`.

    Eigenvalues <= the rank cutoff are null; the caller judges positivity.
    """
    g = to_float(gram)
    evals, evecs = np.linalg.eigh((g + g.T) / 2.0)
    keep = evals > rank_cutoff(len(evals), float(evals[-1]), tol_rank)
    return evals, GramSplit(evecs[:, keep], evals[keep], evecs[:, ~keep])


def _exact_split(gram: Cleared) -> GramSplit:
    """The split of an exact Gram: read off the diagonal of a diagonal one, else `_eliminate`.

    A diagonal Gram is where the elimination has nothing to eliminate: each
    row is its own Schur part, so in index order the rows with a nonzero
    entry are the pivots and the rest are null, the combos and the kernel
    are unit columns, and the squared norms are the entries over den. The
    first negative entry is the elimination's first non-positive pivot, and
    raises its error with the same pivot norm g_kk / den. A zero Gram is
    the diagonal with no pivot. The unit columns are maps (`Units`).
    """
    diagonal = gram.diagonal
    if diagonal is None:
        return _eliminate(gram)
    pivots, nulls = np.flatnonzero(diagonal), np.flatnonzero(diagonal == 0)
    negative = pivots[diagonal[pivots] < 0]
    if len(negative):
        raise InconsistentMomentsError(
            "exact Gram matrix is not positive semidefinite "
            f"(pivot norm {Fraction(diagonal[negative[0]], gram.den)})"
        )
    d = gram.shape[0]
    return GramSplit(Units(pivots, d), Cleared(diagonal[pivots], gram.den), Units(nulls, d))


def _eliminate(gram: Cleared) -> GramSplit:
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


def gram_times(gram, mat):
    """gram @ mat; for pairs, with no nonzero numerator off gram's diagonal, a row scaling of mat."""
    if isinstance(gram, Cleared) and isinstance(mat, Cleared) and gram.diagonal is not None:
        return Cleared(gram.diagonal[:, None] * mat.num, gram.den * mat.den)
    return matmul(gram, mat)


def pseudo_apply(split: GramSplit, rhs: np.ndarray) -> np.ndarray:
    """Apply the Gram pseudo-inverse to rhs using a precomputed split.

    Exact for rhs columns inside the Gram range (both modes); the float path
    is the Moore-Penrose action with the split's rank cutoff (rank 0: zeros).
    With the combos as a map (`Units`) it gathers the pivot rows of rhs,
    divides them by the norms and scatters them back (`times`).
    """
    coeffs = times(split.combos.T, rhs) / split.norms2[:, None]
    return times(split.combos, coeffs)


def simultaneous_diagonalize(mats: list, seed: int, tol: float) -> np.ndarray:
    """Jointly diagonalize commuting symmetric float matrices.

    Takes the eigenvectors of a seeded random linear combination (up to 5
    draws). Returns W orthogonal with every W^T M W diagonal within tol
    (scaled per matrix). Raises ArithmeticError if no draw passes the check.
    The matrices are not empty: the levels they act on include level 0, of rank 1.
    """
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
