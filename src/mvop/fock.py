"""Creation, preservation, and annihilation block operators on a gradation.

The degree slices of a gradation serve as levels of a finite-depth Fock
representation, so that multiplication by each coordinate decomposes as
X_i = A_i^+ + A_i^0 + A_i^-. Creation blocks are the canonical index shifts
in candidate coordinates. The preservation block solves G_n A_i^0 = R with
R = coef_n^T L_i coef_n, the candidates of degree n taken against the
localizing matrix L_i[a, b] = Lambda(x^(a+b+e_i)), which is M's rows
shifted by e_i: row a of L_i is row a + e_i of M. Both modes take the rows
of M of degree 1..depth + 1 (`gradation._moment_rows`), each distinct
moment fetched once. Row a of L_i coef_n is row a + e_i of M coef_n, which
vanishes below degree n, so exact mode reads every R of level n off one
product, the rows of degree n and n + 1 of M coef_n (`_preservation_rhs`);
float mode gathers each L_i from the rows and forms the quadratic forms.
The annihilation block solves G_{n-1} A_i^- = (A_i^+)^T G_n.
`complete_fock` adds the creation and annihilation blocks to given Gram and
preservation blocks, for assembled and for externally supplied blocks
alike, and `_residual` is the one (residual, scale) measure of every solve
and symmetry check.

Exact blocks are computed on as `_linalg.Cleared` pairs through both solves,
starting from the pairs `build_gradations` kept for its levels. A FockData
holds tuples of read-only arrays and is never edited: a changed one is a new
value (`dataclasses.replace`). An assembled exact FockData keeps the pairs it
was computed on, which the checks, vacuum words and `apply_coordinate` read
(`_linalg.computing`), and publishes each family of blocks on its first
read: A^0 and A^- as Fraction arrays, A^+ as int arrays, and the grams as
the levels' own, so a forward run that reads no block builds none. A
FockData's `exact` decides its arithmetic:
blocks given as arrays (a FockData built or replaced by a caller) are made
its computing form once, on first need (`FockData._clear`), pairs if it is
exact, where a non-rational entry raises ValueError, and binary64 arrays if
not, also when they are given as Fraction arrays.

The creation blocks carry no data: A_i^+ sends x^alpha to x^(alpha+e_i), a
constant of the shape that `_creation` builds once, the one source every
computation reads; a FockData given any other aplus raises ValueError at
its first computation (`FockData._clear`). An exact creation block is its
index map (`_linalg.Units`), so A^+ R is a row scatter of R, L A^+ a column
gather of L and (A^+)^T G a row gather of G, and none is a product
(`_linalg.times`); a FockData publishes them as int arrays only when `aplus`
is read. So the exact annihilation right-hand sides, vacuum words,
commutation checks, validation's kernel checks, reconstruction's lift and
the null ideal's inherited shifts form no product with a creation block.
Float creation blocks are read-only matrices, shared by every FockData of
the shape, and multiplied: a map can keep a negative zero where a product
gives +0.0, and float A^-, vacuum words and null generators are published.
The shifts commute, so CR1 is recorded as 0.0 against tolerance comm in
both modes, with no block formed. In the exact checks CR2 is four gathers
and scatters, and CR3 is two of each plus one product of its stacked
A^0 A^0 factors; the parts are added over one lcm and reduced once
(`_linalg.times_sum`). Each relation is measured in the target-level Gram
seminorm, read off the Gram splits the computing form keeps (`_split`): those
`assemble_fock` or `validate` solved with, else each made on first need, and
the checks, validation and reconstruction share them. A level whose seminorm vanishes
identically (an exact Gram with no nonzero entry, a float Gram with no
seminorm factor) scores 0, and the block landing on it is never formed; an
exact residual block with no nonzero numerator (`_linalg.is_zero`), the
residual of every genuine input, scores 0 without the seminorm. An exact
diagonal Gram level (every level of a product of 1-D functionals, and a zero
one) costs no elimination: its split is read off the diagonal with its unit
columns as maps, so a solve against it is a gather, a division and a scatter
(`_linalg.pseudo_apply`), and the solve residual, the adjointness and the
hermiticity products with it are row scalings (`_linalg.gram_times`). A zero
level costs no solve and no product at all: the solves with its zero
right-hand sides and its hermiticity residuals are returned as that work would
compute them (`_gram_solve`, `symmetry_residuals`), so every residual is
unchanged; so is the hermiticity of an exact zero A^0. Vacuum words are
memoized, each state keeping only the levels that can still reach the vacuum
and forming only the products that land on them (see `vacuum_moment`). An
exact word state is one int numerator vector per level over one denominator:
each coordinate's blocks are scaled once to one denominator E_i
(`_word_blocks`), a step multiplies numerators and den by E_i, and the new
state is reduced once (`_word_step`), so words build no pair. A residual
computed on pairs is decided on its exact value: its binary64 image stays
above 0.0 when it is nonzero (`_floored`), and then it fails
(`_recorded_tolerance`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import _linalg
from .errors import DepthExceededError, InternalConsistencyError
from .gradation import GradationBasis, _moment_rows
from .polynomial import _check_index, monomials_of_degree, monomials_up_to
from .scalars import Tolerances


@functools.cache
def _shift_rows(dimension: int, i: int, n: int) -> np.ndarray:
    """Row of alpha + e_i among the degree-(n+1) monomials, for each degree-n alpha (read-only)."""
    row_pos = {a: r for r, a in enumerate(monomials_of_degree(dimension, n + 1))}
    cols = monomials_of_degree(dimension, n)
    rows = np.array([row_pos[alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]] for alpha in cols])
    rows.setflags(write=False)
    return rows


@functools.cache
def _creation(dimension: int, depth: int, exact: bool) -> tuple:
    """creation[i][n] = A_i^+(n) to depth, the one source computations read: built once per shape.

    Exact: index maps (`_linalg.Units`, `_shift_rows`). Float: read-only
    binary64 matrices, as a gather can keep a -0.0 where a product gives +0.0.
    """

    def block(i, n):
        if exact:
            return _linalg.Units(_shift_rows(dimension, i, n), len(monomials_of_degree(dimension, n + 1)))
        return _linalg.read_only(creation_matrix(dimension, i, n))

    return tuple(tuple(block(i, n) for n in range(depth)) for i in range(dimension))


def creation_matrix(dimension: int, i: int, n: int, dtype=float) -> np.ndarray:
    """Canonical shift block for coordinate i (0-based) from degree n to n+1.

    Column alpha has a single unit entry in the row of alpha + e_i. Each
    call returns a fresh array.
    """
    if not 0 <= i < dimension:
        raise ValueError(f"coordinate {i} outside 0..{dimension - 1}")
    rows = _shift_rows(dimension, i, n)
    out = np.zeros((len(monomials_of_degree(dimension, n + 1)), len(rows)), dtype=dtype)
    out[rows, np.arange(len(rows))] = 1 if dtype == object else 1.0
    return out


def nonzero_spectrum(g: GradationBasis, n: int) -> list:
    """Distinct nonzero eigenvalues of the degree-n form generator, ascending.

    The generator is similar to a symmetric matrix via the weight rescaling,
    so its spectrum is real; eigenvalues are computed in binary64 regardless
    of mode. Values closer than 1e-9 relative are merged.
    """
    lev = g.level(n)
    scale = np.array([1.0 / math.sqrt(float(w)) for w in lev.weights])
    sym = _linalg.to_float(lev.gram) * np.outer(scale, scale)
    evals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    cut = _linalg.rank_cutoff(len(evals), float(np.max(np.abs(evals), initial=0.0)), g.tol.rank)
    kept = sorted(v for v in evals if abs(v) > cut)
    distinct: list = []
    for v in kept:
        if distinct and abs(v - distinct[-1][-1]) <= 1e-9 * max(1.0, abs(v)):
            distinct[-1].append(v)
        else:
            distinct.append([v])
    return [sum(c) / len(c) for c in distinct]


@dataclass(frozen=True, eq=False)
class FockData(_linalg.ReadOnly):
    """Block operators of the Fock representation up to a fixed depth.

    aplus[i][n] maps degree n to n+1 (n = 0..depth-1); azero[i][n] acts on
    degree n (n = 0..depth); aminus[i][n] maps degree n to n-1 (n = 1..depth,
    entry 0 is None). Each family is a tuple of tuples of read-only arrays,
    and aplus must be the canonical shifts (`creation_matrix`). gradation is
    set when the blocks were assembled from a moment functional, None when
    they came from external data; no computation reads it. The checks on the
    blocks read tolerances, those they were assembled or validated under.
    Exact blocks of `assemble_fock` and of a `validate` report are published
    on their first read.
    """

    dimension: int
    depth: int
    exact: bool
    grams: tuple
    aplus: tuple
    azero: tuple
    aminus: tuple
    gradation: GradationBasis | None = None
    tolerances: Tolerances = Tolerances()

    _arrays = ("grams", "aplus", "azero", "aminus")

    def _clear(self):
        """The computing form of blocks given as arrays: pairs if exact, else binary64 arrays.

        The given creation blocks are tested once against the canonical
        shifts, which then stand in for them (`_creation`). Any other aplus
        (an entry, a shape or a count that differs) raises ValueError, as
        does an exact block with a non-rational entry.
        """
        form = super()._clear()
        creation = _creation(self.dimension, self.depth, self.exact)
        canonical = _linalg.Units.matches if self.exact else np.array_equal
        if len(form.aplus) != len(creation) or not all(
            len(a) == len(c) and all(map(canonical, c, a)) for a, c in zip(form.aplus, creation)
        ):
            raise ValueError("aplus is not the canonical creation shifts")
        return replace(form, aplus=creation)


def _creation_blocks(d: int, depth: int) -> list:
    """Public exact creation blocks: int arrays, built on publication."""
    return [[creation_matrix(d, i, n, dtype=object) for n in range(depth)] for i in range(d)]


def _published_fock(fock: FockData, grams, azero) -> FockData:
    """An exact FockData of computing form fock (pairs), whose blocks are published on first read.

    grams() and azero() give the public Grams and A^0; A^- pairs become
    Fraction arrays, and A^+, held as its index maps, is built as int arrays.
    """
    aplus = functools.partial(_creation_blocks, fock.dimension, fock.depth)
    aminus = functools.partial(_linalg.published, fock.aminus)
    return FockData.lazy(fock, {"grams": grams, "aplus": aplus, "azero": azero, "aminus": aminus})


def _floored(value: float, nonzero) -> float:
    """The binary64 image of an exact residual, kept above 0.0 when the residual is nonzero."""
    return max(value, math.ulp(0.0)) if nonzero else value


def _recorded_tolerance(residual: float, tolerance: float, exact: bool) -> float:
    """The tolerance a residual is recorded against.

    A residual computed on exact pairs passes only at zero: a nonzero one
    within tolerance is recorded against 0, like an exact psd failure. A
    float residual, or one already beyond tolerance, keeps its tolerance.
    """
    return 0.0 if exact and 0.0 < residual <= tolerance else tolerance


def _max_abs(mat) -> float:
    if isinstance(mat, _linalg.Cleared):
        # rounding is monotone: max |num| / den rounded once is the max rounded entry
        top = max(map(abs, mat.num.flat), default=0)
        try:
            return _floored(top / mat.den, top)
        except OverflowError:
            exponent = math.floor(math.log10(top) - math.log10(mat.den))
            raise OverflowError(
                f"an exact value of about 10^{exponent} is beyond the binary64 range"
            ) from None
    a = _linalg.to_float(mat)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _residual(lhs, rhs) -> tuple:
    """(max |lhs - rhs|, max(1, max |rhs|)): a residual and the scale it is judged against."""
    return _max_abs(lhs - rhs), max(1.0, _max_abs(rhs))


def _gram_solve(split: _linalg.GramSplit, gram, rhs) -> tuple:
    """Solve gram @ a = rhs on the Gram range; returns (a, residual, scale).

    An exact zero rhs (`_linalg.is_zero`) is its own solution: it is returned
    with residual 0.0 on scale 1.0, and no solve runs.
    Against an exact diagonal gram, gram @ a is a row scaling of a
    (`_linalg.gram_times`).
    """
    if _linalg.is_zero(rhs):
        return rhs, 0.0, 1.0
    a = _linalg.pseudo_apply(split, rhs)
    return (a, *_residual(_linalg.gram_times(gram, a), rhs))


def annihilation_blocks(aplus: list, grams: list, splits: list) -> tuple:
    """Annihilation blocks from G_{n-1} A_i^- = (A_i^+)^T G_n.

    Returns (aminus, residuals): aminus[i][n] for n = 1..depth (entry 0 is
    None), and residuals[(i, n)] = (residual, scale) of each solve, which
    holds when residual <= tol.adj * scale. A creation block given as its
    index map (`_linalg.Units`) makes the right-hand side a row gather of G_n
    (`_linalg.times`), so an exact zero G_n gives the zero right-hand side,
    which `_gram_solve` solves without a product.
    """
    aminus = []
    residuals = {}
    for i, creation in enumerate(aplus):
        per_level: list = [None]
        for n in range(1, len(grams)):
            rhs = _linalg.times(creation[n - 1].T, grams[n])
            a, residual, scale = _gram_solve(splits[n - 1], grams[n - 1], rhs)
            per_level.append(a)
            residuals[(i, n)] = (residual, scale)
        aminus.append(per_level)
    return aminus, residuals


def complete_fock(
    grams: list, splits: list, azero: list, exact: bool, tol: Tolerances,
    gradation: GradationBasis | None = None,
) -> tuple:
    """The Fock representation of Gram and preservation blocks.

    Shared by moment-born blocks (`assemble_fock`) and supplied ones
    (`favard.validate`): the creation blocks are the canonical shifts of the
    shape (`_creation`), the annihilation blocks come from
    `annihilation_blocks`, all in computing form. Exact creation blocks are
    index maps, so the right-hand sides are row gathers of the Grams; float
    ones are matrices and the right-hand sides products.
    Returns (FockData, residuals), residuals as returned by
    `annihilation_blocks`; the FockData carries tol and gradation, and is
    its own computing form, which keeps splits (`_split`).
    """
    d, depth = len(azero), len(grams) - 1
    aplus = _creation(d, depth, exact)
    aminus, residuals = annihilation_blocks(aplus, grams, splits)
    fock = FockData(d, depth, exact, grams, aplus, azero, aminus, gradation, tol)
    # its own computing form, marked None: a reference to itself would be a cycle
    fock.__dict__.update(_computing=None, _splits=list(splits))
    return fock, residuals


@functools.cache
def _localizing_rows(dimension: int, depth: int) -> tuple:
    """rows[i]: row alpha + e_i of M counted from degree 1, alpha of degree 0..depth: read-only, once per shape."""
    starts = [len(monomials_up_to(dimension, n)) - 1 for n in range(depth + 1)]
    rows = ([start + _shift_rows(dimension, i, n) for n, start in enumerate(starts)] for i in range(dimension))
    return tuple(_linalg.read_only(np.concatenate(parts)) for parts in rows)


def _preservation_rhs(g: GradationBasis, coefs: list) -> list:
    """rhs[i][n] = coef_n^T L_i coef_n, in computing form, for each coordinate i and level n.

    Both modes read the moments off the rows of M of degree 1..depth + 1
    (`_moment_rows`): row a of L_i is row a + e_i of M. Float: each L_i is
    gathered from those rows (`_localizing_rows`) and taken as a quadratic
    form, mirrored to be exactly symmetric. Exact: row a of L_i coef_n is
    row a + e_i of M coef_n, which vanishes below degree n, and coef_n is
    the identity on its degree-n rows. So one product P_n, the rows of
    degree n and n + 1 of M coef_n, gives
    rhs[i][n] = coef_n[degree n-1]^T P_n[degree n, alpha + e_i]
    + P_n[degree n+1, alpha + e_i], with the rows alpha + e_i over the
    degree-(n-1) and degree-n monomials alpha.
    """
    d, depth = g.dimension, g.max_degree
    rows = _moment_rows(g.functional, 1, depth + 1, depth)  # row r of M is row r - 1 here
    if not g.exact:
        return [
            [_linalg.gram_product(coef, mat[: coef.shape[0], : coef.shape[0]]) for coef in coefs]
            for mat in (rows[index] for index in _localizing_rows(d, depth))
        ]
    out: list = [[] for _ in range(d)]
    for n, coef in enumerate(coefs):
        size, k = coef.shape
        below = size - k  # the rows of degree < n
        top = size + len(monomials_of_degree(d, n + 1))
        # P_n: the rows of degree n and n + 1 of M coef_n
        product = _linalg.matmul(rows[max(below, 1) - 1 : top - 1, :size], coef)
        if not n:  # P_0 has no degree-0 row, and coef_0 no row below
            for i in range(d):
                out[i].append(product[_shift_rows(d, i, 0)])
            continue
        prev = coef[below - len(monomials_of_degree(d, n - 1)) : below].T
        for i in range(d):
            lower = _linalg.matmul(prev, product[_shift_rows(d, i, n - 1)])
            out[i].append(lower + product[k + _shift_rows(d, i, n)])
    return out


def assemble_fock(g: GradationBasis) -> FockData:
    """Assemble creation, preservation, and annihilation blocks from a gradation.

    Preservation blocks solve G_n A = R with R the localizing-matrix Gram of
    the candidates (`_preservation_rhs`: in exact mode read off one moment
    product per level, from the candidates and the moments only); the rest
    is `complete_fock`, and the blocks carry `g.tol`. Both solves use the
    range part of the Gram splitting, and the defining identities are
    re-checked afterwards against `Tolerances.adj` (they must hold because
    the right-hand sides lie in the Gram range for moment-born data).

    Raises
    ------
    DepthExceededError
        If the functional does not reliably cover degree 2*depth + 1, the
        highest degree the localizing matrices read.
    InternalConsistencyError
        If a defining identity fails its tolerance after the solve.
    """
    depth = g.max_degree
    g.functional.require(2 * depth + 1, f"fock assembly at depth {depth}")
    levels = [_linalg.computing(lev) for lev in g.levels]
    azero = []
    for i, rhs_per_level in enumerate(_preservation_rhs(g, [lev.coef for lev in levels])):
        per_level = []
        for lev, rhs in zip(levels, rhs_per_level):
            a, residual, scale = _gram_solve(lev.split, lev.gram, rhs)
            if residual > _recorded_tolerance(residual, g.tol.adj * scale, g.exact):
                raise InternalConsistencyError(
                    f"preservation solve failed at coordinate {i + 1}, degree {lev.degree}: "
                    f"residual {residual:.3e}"
                )
            per_level.append(a)
        azero.append(per_level)

    grams, splits = [lev.gram for lev in levels], [lev.split for lev in levels]
    fock, residuals = complete_fock(grams, splits, azero, g.exact, g.tol, g)
    for (i, n), (residual, scale) in residuals.items():
        if residual > _recorded_tolerance(residual, g.tol.adj * scale, g.exact):
            raise InternalConsistencyError(
                f"annihilation solve failed at coordinate {i + 1}, degree {n}: "
                f"residual {residual:.3e}"
            )
    if not g.exact:
        return fock
    # the public grams are the levels' own
    return _published_fock(fock, lambda: [lev.gram for lev in g.levels], lambda: _linalg.published(azero))


def adjointness_residuals(fock: FockData) -> dict:
    """Max-entry residual of G_{n-1} A_i^- = (A_i^+)^T G_n, keyed by (i+1, n)."""
    fock = _linalg.computing(fock)
    out = {}
    for i in range(fock.dimension):
        for n in range(1, fock.depth + 1):
            lhs = _linalg.gram_times(fock.grams[n - 1], fock.aminus[i][n])
            residual, scale = _residual(lhs, _linalg.times(fock.aplus[i][n - 1].T, fock.grams[n]))
            out[(i + 1, n)] = residual / scale
    return out


def symmetry_residuals(grams: list, azero: list) -> dict:
    """(residual, scale) of the asymmetry of G_n A_i^0, keyed by (i, n).

    An exact zero G_n or A_i^0 (`_linalg.is_zero`) gives (0.0, 1.0), what
    the zero product scores, without forming it.
    """
    out = {}
    for i, per_level in enumerate(azero):
        for n, (gram, block) in enumerate(zip(grams, per_level)):
            if _linalg.is_zero(gram) or _linalg.is_zero(block):
                out[(i, n)] = (0.0, 1.0)
                continue
            s = _linalg.gram_times(gram, block)
            out[(i, n)] = _residual(s, s.T)
    return out


def azero_symmetry_residuals(fock: FockData) -> dict:
    """Max-entry asymmetry of G_n A_i^0, keyed by (i+1, n)."""
    fock = _linalg.computing(fock)
    return {
        (i + 1, n): residual / scale
        for (i, n), (residual, scale) in symmetry_residuals(fock.grams, fock.azero).items()
    }


def _split(form: FockData, n: int) -> _linalg.GramSplit:
    """Gram n's split, kept by computing form form: the one it was completed with, else made on first need.

    A split made here has no psd verdict: an indefinite float Gram is
    measured on its positive part.
    """
    splits = form.__dict__.setdefault("_splits", [None] * len(form.grams))
    if splits[n] is None:
        splits[n] = _linalg.split_gram(form.grams[n], form.exact, form.tolerances.rank, math.inf)
    return splits[n]


def _seminorm_factor(split: _linalg.GramSplit, tol_rank: float):
    """F with |F c| the float Gram seminorm of a column c, or None where it is zero.

    F = (C sqrt(D))^T over the combos C and `norms2` D of the Gram's float
    split (the eigenpairs of the symmetrized binary64 Gram above its rank
    cutoff) that are also above tol_rank relative to the top one: the rest
    belong to the quotient kernel, and evaluating the raw quadratic form
    there would turn rounding noise of size eps into a sqrt(eps) artifact.
    """
    norms2 = split.norms2
    if not len(norms2):
        return None
    keep = norms2 > tol_rank * float(np.max(norms2))
    return (split.combos[:, keep] * np.sqrt(norms2[keep])).T


def _seminorm_residual(cols, gram, factor) -> float:
    """Largest Gram seminorm over the columns of a block.

    Exact blocks are measured in rational arithmetic, on integer numerators,
    so a column lying in the kernel scores exactly zero. Float blocks are
    measured as |F c| with F the Gram's `_seminorm_factor`. Callers go through
    `_seminorms`, which scores 0, without calling this, a level whose
    seminorm vanishes identically (a float one then has no factor) and an
    exact block with no nonzero numerator, an empty one included. Every
    level has a monomial, so no float block is empty.
    """
    if isinstance(gram, _linalg.Cleared):
        quad = _linalg.max_quadratic(cols, gram)
        return _floored(math.sqrt(max(0.0, float(quad))), quad > 0)
    proj = factor @ _linalg.to_float(cols)
    return float(math.sqrt(max(0.0, float(np.max(np.einsum("ij,ij->j", proj, proj))))))


def _seminorms(form: FockData):
    """residual(make_cols, n): `_seminorm_residual` of make_cols() against form.grams[n], form in computing form.

    A level whose seminorm vanishes identically (an exact Gram with no
    nonzero entry, a float Gram with no `_seminorm_factor`) scores 0.0, and
    make_cols is not called: the block is never formed. An exact block with
    no nonzero numerator (`_linalg.is_zero`) scores 0.0 without the
    seminorm. Each level's float factor is made from the form's split
    (`_split`) on first need, once per value.
    """
    factors = form.__dict__.setdefault("_factors", {})

    def vanishes(n):
        if form.exact:
            return _linalg.is_zero(form.grams[n])
        if n not in factors:
            factors[n] = _seminorm_factor(_split(form, n), form.tolerances.rank)
        return factors[n] is None

    def residual(make_cols, n):
        if vanishes(n):
            return 0.0
        cols = make_cols()
        if _linalg.is_zero(cols):
            return 0.0  # what the seminorm of an exact zero block is
        return _seminorm_residual(cols, form.grams[n], factors.get(n))

    return residual


@dataclass(frozen=True)
class CommutationEntry:
    relation: str
    pair: tuple
    degree: int
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class CommutationReport:
    depth: int
    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)

    def failures(self) -> list:
        return [e for e in self.entries if not e.passed]


def check_commutation(fock: FockData) -> CommutationReport:
    """Residuals of the three quantum decomposition commutation relations.

    For every coordinate pair j < k: the creation blocks must commute
    (checked up to degree depth-2), and the two mixed relations
    [A_j^+, A_k^0] + [A_j^0, A_k^+] = 0 and
    [A_j^+, A_k^-] + [A_j^0, A_k^0] + [A_j^-, A_k^+] = 0
    must vanish (checked up to degree depth-1). Residuals are measured as the
    largest target-level Gram seminorm over block columns, so components in
    the null directions of the functional do not register, at the rank
    cutoff of `fock.tolerances`, on the splits the computing form keeps
    (`_seminorms`). Residuals of exact blocks pass only at zero.
    The creation blocks are the canonical shifts, which commute: CR1 entries
    are recorded as 0.0 in both modes, with no block formed. A creation
    block's largest entry is its unit, so only the A^0 and A^- blocks scale
    a tolerance. A depth or dimension that leaves no relation returns at once.
    """
    fock = _linalg.computing(fock)
    tol, n_max = fock.tolerances, fock.depth
    if n_max == 0 or fock.dimension < 2:
        return CommutationReport(n_max)
    seminorm = _seminorms(fock)
    blocks = {"0": fock.azero, "-": fock.aminus}
    entries = []

    def ap(i, n):
        return fock.aplus[i][n]

    def az(i, n):
        return fock.azero[i][n]

    def am(i, n):
        return fock.aminus[i][n]

    @functools.cache
    def scale(kind, i, n):
        return _max_abs(blocks[kind][i][n])

    def record(relation, pair, n, terms, target_level, parts):
        # CR1 has no terms: the canonical shifts commute
        residual = seminorm(lambda: _term_sum(terms, fock.exact), target_level) if terms else 0.0
        tolerance = tol.comm * max([1.0] + [scale(*p) for p in parts])
        entries.append(
            CommutationEntry(relation, pair, n, residual, _recorded_tolerance(residual, tolerance, fock.exact))
        )

    for j in range(fock.dimension):
        for k in range(j + 1, fock.dimension):
            pair = (j + 1, k + 1)
            for n in range(n_max - 1):
                record("CR1", pair, n, [], n + 2, [])
            for n in range(n_max):
                terms = [
                    (ap(j, n), az(k, n)),
                    (az(k, n + 1), -ap(j, n)),
                    (az(j, n + 1), ap(k, n)),
                    (-ap(k, n), az(j, n)),
                ]
                record("CR2", pair, n, terms, n + 1, [("0", j, n + 1), ("0", k, n + 1)])
            for n in range(n_max):
                terms = [
                    (am(k, n + 1), -ap(j, n)),
                    (az(j, n), az(k, n)),
                    (-az(k, n), az(j, n)),
                    (am(j, n + 1), ap(k, n)),
                ]
                if n:
                    # terms through the annihilation block of level n, which
                    # the vacuum level lacks
                    terms = [(ap(j, n - 1), am(k, n))] + terms + [(-ap(k, n - 1), am(j, n))]
                parts = [("0", j, n), ("0", k, n), ("-", j, n + 1), ("-", k, n + 1)]
                record("CR3", pair, n, terms, n, parts)
    return CommutationReport(n_max, tuple(entries))


def _term_sum(terms: list, exact: bool):
    """The sum of left @ right: float products added in order, exact terms by `_linalg.times_sum`."""
    if exact:
        return _linalg.times_sum(terms)
    return functools.reduce(operator.add, (left @ right for left, right in terms))


def apply_coordinate(fock: FockData, i: int, state: dict) -> dict:
    """One application of X_i = A_i^+ + A_i^0 + A_i^- to a level-indexed state.

    The blocks are taken in computing form (`_linalg.computing`): an exact
    FockData applies its pairs and maps to each state vector cleared once,
    and returns Fraction arrays; a float one applies its binary64 arrays.
    """
    if not 0 <= i < fock.dimension:
        raise ValueError(f"coordinate {i} outside 0..{fock.dimension - 1}")
    out: dict = {}
    blocks = _linalg.computing(fock)
    # float products are small matrix-vector ones, where matmul's dispatch
    # would cost more than the product
    mul = _linalg.times if fock.exact else np.matmul

    def accumulate(level, vec):
        out[level] = out[level] + vec if level in out else vec

    for n, v in state.items():
        if n < 0:
            raise ValueError(f"state level {n} must be non-negative")
        if n + 1 > fock.depth:
            raise DepthExceededError(
                f"word reaches degree {n + 1}, beyond built depth {fock.depth}"
            )
        if fock.exact:
            v = _linalg.cleared(v)
        accumulate(n + 1, mul(blocks.aplus[i][n], v))
        accumulate(n, mul(blocks.azero[i][n], v))
        if n >= 1:
            accumulate(n - 1, mul(blocks.aminus[i][n], v))
    return {n: _linalg.published(v) for n, v in out.items()} if fock.exact else out


def _word_blocks(fock: FockData) -> list:
    """The blocks vacuum words apply, blocks[i] = (E_i, A_i^+, A_i^0, A_i^-), from the computing form.

    Exact blocks (`_linalg.computing`) are taken over one denominator E_i
    per coordinate, the lcm of the denominators of its A^0 and A^- pairs:
    each is its numerators scaled to E_i once, and the creation maps are
    kept. Float blocks are taken as they are, with E_i = 1.
    """
    cleared = _linalg.computing(fock)
    coordinates = list(zip(cleared.aplus, cleared.azero, cleared.aminus))
    if not fock.exact:
        return [(1, *kinds) for kinds in coordinates]
    out = []
    for aplus, *kinds in coordinates:  # kinds: A^0, and A^- with None at level 0
        scale = math.lcm(*(b.den for kind in kinds for b in kind if b is not None))
        scaled = [[None if b is None else b.num * (scale // b.den) for b in kind] for kind in kinds]
        out.append((scale, aplus, *scaled))
    return out


def _word_step(blocks: list, i: int, state: tuple, reach: int) -> tuple:
    """X_i applied to a word state (levels, den), keeping its levels <= reach.

    levels[n] is the numerator vector of level n over den, and blocks[i] is
    (E_i, A_i^+, A_i^0, A_i^-) from `_word_blocks`. Only products landing on
    a kept level are formed: none of A^+ out of levels reach and reach + 1,
    none of A^0 at reach + 1. Each kept level adds its terms from the top
    source level down, as `apply_coordinate` does, so float words are
    bit-identical to a replay. A creation map scatters its numerators times
    E_i, every other block is one numerator product, and the new state is
    over den E_i, reduced once by the gcd of all its numerators and den (den
    stays 1 on blocks taken as they are).
    """
    scale, aplus, azero, aminus = blocks[i]
    levels, den = state
    out = [None] * min(len(levels) + 1, reach + 1)

    def add(level, vec):
        out[level] = vec if out[level] is None else out[level] + vec

    for n in reversed(range(len(levels))):
        v = levels[n]
        if n < reach:
            creation = aplus[n]
            if isinstance(creation, _linalg.Units):
                rows, entries = creation.moved(v, True, scale)
                # a level's sum so far is an array this step made, so it takes the scatter in place
                if out[n + 1] is None:
                    out[n + 1] = np.zeros(creation.size, dtype=object)
                out[n + 1][rows] += entries
            else:
                add(n + 1, creation @ v)
        if n <= reach:
            add(n, azero[n] @ v)
        if n:
            add(n - 1, aminus[n] @ v)
    den *= scale
    if den != 1:
        g = math.gcd(den, *itertools.chain.from_iterable(out))
        if g != 1:
            out, den = [v // g for v in out], den // g
    return out, den


def vacuum_moment(fock: FockData, alpha):
    """Vacuum expectation of the coordinate word x^alpha.

    The word X_1^{a_1} ... X_d^{a_d} is applied to the vacuum rightmost
    factor first; the result is the vacuum coefficient of the final state.
    For moment-born data this reproduces the mixed moments.

    States are memoized on the FockData: the state of alpha is X_i applied to
    that of alpha - e_i, i the lowest index with alpha_i > 0, so all words up
    to a degree cost one application each (`_word_step`). A state of degree
    k keeps only its levels <= depth - k, the ones that can still reach the
    vacuum within the built depth, and only the products landing on them
    are formed; every kept level sums the same terms in the same order as
    the full state, so the value is unchanged. An exact state is one int
    numerator vector per level over one denominator, reduced once per word,
    and a word's value is Fraction(numerator of level 0, den); the empty word
    is the int 1. The memo takes the blocks in computing form at the first
    call (`_word_blocks`); the blocks are read-only, so it stays valid, and
    a copy or `dataclasses.replace` of the FockData starts a fresh one. Exact words
    scatter through canonical creation blocks; float words take the
    products.
    """
    alpha = tuple(alpha)
    _check_index(alpha, fock.dimension)
    if sum(alpha) > fock.depth:
        raise DepthExceededError(
            f"word of degree {sum(alpha)} exceeds built depth {fock.depth}"
        )
    if "_vacuum" not in fock.__dict__:
        vacuum = np.array([1 if fock.exact else 1.0], dtype=object if fock.exact else float)
        fock.__dict__["_vacuum"] = (_word_blocks(fock), {(0,) * fock.dimension: ([vacuum], 1)})
    blocks, states = fock._vacuum

    def state(word):
        if word not in states:
            i = next(k for k, e in enumerate(word) if e)
            below = word[:i] + (word[i] - 1,) + word[i + 1 :]
            states[word] = _word_step(blocks, i, state(below), fock.depth - sum(word))
        return states[word]

    # level 0 is never empty: A^0 maps it to itself
    levels, den = state(alpha)
    return Fraction(levels[0][0], den) if fock.exact and any(alpha) else levels[0][0]
