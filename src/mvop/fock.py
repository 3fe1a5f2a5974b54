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
starting from the pairs `build_gradations` kept for its levels. The FockData
keeps those pairs and publishes each family of blocks on its first read
(`_linalg.Deferred`): A^0 and A^- as Fraction arrays, A^+ as int arrays, and
the grams as the levels' own. The checks and vacuum words take each family
in computing form (`_cleared_fock`): its kept pairs (for A^+ its index
maps) until it is first read, so a forward run that reads no block builds
none, and its public arrays cleared afresh on every use after, so an edit
is seen.

A canonical creation block carries no data: it is its index map (`_Shift`),
so A^+ R is a row scatter of R, L A^+ a column gather of L and (A^+)^T G a
row gather of G, and none is a product. Exact mode computes on the maps:
`complete_fock` holds its creation blocks as maps, a FockData publishes
them as int arrays only when `aplus` is read, and public exact blocks
(read, or assigned) pass an O(entries) test per call (`_cleared_fock`);
one that fails keeps every creation block a dense matrix, so tampered
blocks are measured as before. So the exact annihilation right-hand
sides, vacuum words, commutation checks, validation's kernel checks,
reconstruction's lift and the null ideal's inherited shifts form no
product with a creation block. Float mode keeps its creation blocks as
matrices and multiplies them: a map can keep a negative zero where a
product gives +0.0, and float A^-, vacuum words and null generators are
published. In the exact checks CR1 holds by construction and is recorded
as 0.0 against its usual tolerance, CR2 is four gathers and scatters, and
CR3 is two of each plus one product of its stacked A^0 A^0 factors; the
parts are added over one lcm and reduced once (`_term_sum`). Each relation
is measured in the target-level Gram seminorm. A float check takes the
split the gradation made of each Gram while the Gram and the split keep
the digest the gradation took of them (`_gradation_splits`), and
decomposes the others once per call (`_seminorms`), keeping nothing, so an
edit between calls is seen; a caller holding float splits of the Grams
(validation) has its factors read off them. A level whose seminorm
vanishes identically (an exact Gram with no nonzero entry, a float Gram
with no seminorm factor) scores 0, and the block landing on it is never
formed; an exact residual block with no nonzero numerator
(`_linalg.is_zero`), the residual of every genuine input, scores 0
without the seminorm. Likewise an exact zero Gram level
costs no elimination, no solve and no product: its split, the solves with
its zero right-hand sides and its hermiticity residuals are returned as
that work would compute them (`_gram_solve`, `symmetry_residuals`), so
every residual is unchanged; so is the hermiticity of an exact zero A^0.
Vacuum words are memoized, each state keeping only the levels that can
still reach the vacuum (see `vacuum_moment`). A residual computed on pairs
is decided on its exact value: its binary64 image stays above 0.0 when it
is nonzero (`_floored`), and then it fails (`_recorded_tolerance`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import _linalg
from .errors import DepthExceededError, InternalConsistencyError
from .gradation import GradationBasis, _computing_levels, _moment_rows, _split_digest
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


@dataclass(frozen=True, eq=False)
class _Shift:
    """A canonical creation block, or its negative, as its index map (`_shift_rows`).

    The block has size rows, and column alpha has one nonzero entry, sign,
    in row rows[alpha]. So A^+ R is a row scatter of R (`_scatter`), L A^+ a
    column gather of L and (A^+)^T G a row gather of G: none is a product.
    """

    rows: np.ndarray
    size: int
    sign: int = 1

    @property
    def shape(self) -> tuple:
        return (self.size, len(self.rows))

    def __neg__(self) -> "_Shift":
        return replace(self, sign=-self.sign)


@functools.cache
def _shift(dimension: int, i: int, n: int) -> _Shift:
    return _Shift(_shift_rows(dimension, i, n), len(monomials_of_degree(dimension, n + 1)))


def _shifts(dimension: int, depth: int) -> list:
    """The index maps of every creation block up to depth: shifts[i][n] for A_i^+(n)."""
    return [[_shift(dimension, i, n) for n in range(depth)] for i in range(dimension)]


def _is_shift(block, shift: _Shift) -> bool:
    """Whether an exact block in computing form is the canonical shift: one O(entries) test."""
    if not isinstance(block, _linalg.Cleared) or block.den != 1 or block.shape != shift.shape:
        return False
    units = block.num[shift.rows, np.arange(len(shift.rows))]
    return np.count_nonzero(block.num) == len(shift.rows) and bool((units == 1).all())


def _scatter(shift: _Shift, v) -> _linalg.Cleared:
    """shift @ v for an exact vector or matrix v: the rows of v put at the shift's rows, zeros elsewhere.

    An object array is cleared first. The pair keeps v's numerators and
    denominator, so it stays reduced.
    """
    v = _linalg.cleared(v)
    out = np.zeros((shift.size, *v.shape[1:]), dtype=object)
    out[shift.rows] = v.num if shift.sign > 0 else -v.num
    return _linalg.Cleared.reduced(out, v.den)


def _create(creation, v, mul=None):
    """creation @ v: a row scatter for an index map (`_Shift`), else mul, by default `_linalg.matmul`."""
    if isinstance(creation, _Shift):
        return _scatter(creation, v)
    return (mul or _linalg.matmul)(creation, v)


def _transpose_times(creation, g):
    """creation^T @ g; for an index map (`_Shift`), the rows of g at its rows, a pair reduced again."""
    if not isinstance(creation, _Shift):
        return _linalg.matmul(creation.T, g)
    rows = g[creation.rows]
    return rows if creation.sign > 0 else -rows


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


@dataclass
class FockData(_linalg.Deferred):
    """Block operators of the Fock representation up to a fixed depth.

    aplus[i][n] maps degree n to n+1 (n = 0..depth-1); azero[i][n] acts on
    degree n (n = 0..depth); aminus[i][n] maps degree n to n-1 (n = 1..depth,
    entry 0 is None). gradation is set when the blocks were assembled from a
    moment functional, None when they came from external data. The checks on
    the blocks read tolerances, those they were assembled or validated under.
    Exact blocks of `assemble_fock` and of a `validate` report are published
    on their first read.
    """

    dimension: int
    depth: int
    exact: bool
    grams: list
    aplus: list
    azero: list
    aminus: list
    gradation: GradationBasis | None = None
    tolerances: Tolerances = Tolerances()

    _memos = ("_computing", "_vacuum")


def _cleared_fock(fock: FockData) -> FockData:
    """fock with its blocks in computing form (`_linalg.computing`).

    A pending family gives the pairs it was computed on; a public one is
    cleared afresh, so an edit is seen. Float blocks, and blocks already
    held as pairs, are their own computing form. A block holding a float
    entry cannot be cleared: then fock itself. Exact creation blocks come
    as index maps (`_Shift`) while they are the canonical shifts: pending
    ones are held as the maps, public ones pass `_is_shift` block by block,
    and one block that fails keeps every creation block dense.
    """
    try:
        blocks = {name: _linalg.computing(fock, name) for name in ("grams", "azero", "aminus")}
        pending = _linalg.pending(fock, "aplus")
        blocks["aplus"] = _linalg.peek(fock, "aplus") if pending else _linalg.computing(fock, "aplus")
    except TypeError:
        return fock
    if fock.exact and not pending:
        maps = _shifts(fock.dimension, fock.depth)
        aplus = blocks["aplus"]
        if len(aplus) == len(maps) and all(
            len(a) == len(m) and all(map(_is_shift, a, m)) for a, m in zip(aplus, maps)
        ):
            blocks["aplus"] = maps
    return replace(fock, **blocks)


def _creation_blocks(d: int, depth: int) -> list:
    """Public exact creation blocks: int arrays, shared with nothing, built on publication."""
    return [[creation_matrix(d, i, n, dtype=object) for n in range(depth)] for i in range(d)]


def _pending_blocks(fock: FockData, grams: _linalg.Pending, azero: _linalg.Pending) -> FockData:
    """An exact FockData whose blocks are published on first read, from fock's pairs.

    The caller gives how the grams and A^0 are published; A^- pairs become
    Fraction arrays, and A^+, held as its index maps, is built as int arrays.
    """
    d, depth = fock.dimension, fock.depth
    aplus = _linalg.Pending(fock.aplus, lambda _: _creation_blocks(d, depth))
    aminus = _linalg.Pending(fock.aminus)
    return FockData(d, depth, True, grams, aplus, azero, aminus, fock.gradation, fock.tolerances)


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

    An exact zero rhs (`_linalg.is_zero`) returns what the solve computes for
    it, the zero pair with residual 0.0 on scale 1.0, without forming it.
    """
    if _linalg.is_zero(rhs):
        return _linalg.zeros(gram.shape[0], rhs.shape[1]), 0.0, 1.0
    a = _linalg.pseudo_apply(split, rhs)
    return (a, *_residual(_linalg.matmul(gram, a), rhs))


def annihilation_blocks(aplus: list, grams: list, splits: list) -> tuple:
    """Annihilation blocks from G_{n-1} A_i^- = (A_i^+)^T G_n.

    Returns (aminus, residuals): aminus[i][n] for n = 1..depth (entry 0 is
    None), and residuals[(i, n)] = (residual, scale) of each solve, which
    holds when residual <= tol.adj * scale. An exact zero G_n gives the zero
    right-hand side without a product, which `_gram_solve` solves without one.
    A creation block given as its index map (`_Shift`) makes the right-hand
    side a row gather of G_n (`_transpose_times`).
    """
    aminus = []
    residuals = {}
    for i, creation in enumerate(aplus):
        per_level: list = [None]
        for n in range(1, len(grams)):
            if _linalg.is_zero(grams[n]):
                rhs = _linalg.zeros(creation[n - 1].shape[1], grams[n].shape[1])
            else:
                rhs = _transpose_times(creation[n - 1], grams[n])
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
    (`favard.validate`): the creation blocks are the canonical shifts, the
    annihilation blocks come from `annihilation_blocks`, all in computing
    form. Exact creation blocks are their index maps (`_Shift`), so the
    right-hand sides are row gathers of the Grams; float ones are matrices
    and the right-hand sides products, since the A^- blocks are published
    and a gather can keep a negative zero where the product gives +0.0.
    Returns (FockData, residuals), residuals as returned by
    `annihilation_blocks`; the FockData carries tol and gradation.
    """
    d, depth = len(azero), len(grams) - 1
    if exact:
        aplus = _shifts(d, depth)
    else:
        aplus = [[creation_matrix(d, i, n) for n in range(depth)] for i in range(d)]
    aminus, residuals = annihilation_blocks(aplus, grams, splits)
    fock = FockData(d, depth, exact, grams, aplus, azero, aminus, gradation, tol)
    return fock, residuals


def _preservation_rhs(g: GradationBasis, coefs: list) -> list:
    """rhs[i][n] = coef_n^T L_i coef_n, in computing form, for each coordinate i and level n.

    Both modes read the moments off the rows of M of degree 1..depth + 1
    (`_moment_rows`): row a of L_i is row a + e_i of M. Float: each L_i is
    gathered from those rows and taken as a quadratic form, mirrored to be
    exactly symmetric. Exact: row a of L_i coef_n is row a + e_i of M coef_n,
    which vanishes below degree n, and coef_n is the identity on its degree-n
    rows. So one product P_n, the rows of degree n and n + 1 of M coef_n,
    gives rhs[i][n] = coef_n[degree n-1]^T P_n[degree n, alpha + e_i]
    + P_n[degree n+1, alpha + e_i], with the rows alpha + e_i over the
    degree-(n-1) and degree-n monomials alpha.
    """
    d, depth = g.dimension, g.max_degree
    rows = _moment_rows(g.functional, 1, depth + 1, depth)  # row r of M is row r - 1 here
    if not g.exact:
        # L_i: row alpha + e_i of M for each alpha of degree 0..depth, in order
        starts = [len(monomials_up_to(d, n)) - 1 for n in range(depth + 1)]
        localizing = (
            rows[np.concatenate([start + _shift_rows(d, i, n) for n, start in enumerate(starts)])]
            for i in range(d)
        )
        return [
            [_linalg.gram_product(coef, mat[: coef.shape[0], : coef.shape[0]]) for coef in coefs]
            for mat in localizing
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
        If the functional does not reliably cover degree 2*depth + 2.
    InternalConsistencyError
        If a defining identity fails its tolerance after the solve.
    """
    depth = g.max_degree
    functional = g.functional
    if 2 * depth + 2 > functional.max_reliable_degree:
        raise DepthExceededError(
            f"fock assembly at depth {depth} needs moments to {2 * depth + 2}, "
            f"but only {functional.max_reliable_degree} are reliable"
        )
    computed = _computing_levels(g)
    azero = []
    for i, rhs_per_level in enumerate(_preservation_rhs(g, [coef for coef, *_ in computed])):
        per_level = []
        for lev, (_, gram, split), rhs in zip(g.levels, computed, rhs_per_level):
            a, residual, scale = _gram_solve(split, gram, rhs)
            if residual > _recorded_tolerance(residual, g.tol.adj * scale, g.exact):
                raise InternalConsistencyError(
                    f"preservation solve failed at coordinate {i + 1}, degree {lev.degree}: "
                    f"residual {residual:.3e}"
                )
            per_level.append(a)
        azero.append(per_level)

    fock, residuals = complete_fock(
        [gram for _, gram, _ in computed], [split for *_, split in computed], azero, g.exact, g.tol, g
    )
    for (i, n), (residual, scale) in residuals.items():
        if residual > _recorded_tolerance(residual, g.tol.adj * scale, g.exact):
            raise InternalConsistencyError(
                f"annihilation solve failed at coordinate {i + 1}, degree {n}: "
                f"residual {residual:.3e}"
            )
    if not g.exact:
        return fock
    # the grams are the levels' own, so a level gram edited after its first read is seen
    grams = _linalg.Pending(
        lambda: [_linalg.computing(lev, "gram") for lev in g.levels],
        lambda _: [lev.gram for lev in g.levels],
    )
    return _pending_blocks(fock, grams, _linalg.Pending(azero))


def adjointness_residuals(fock: FockData) -> dict:
    """Max-entry residual of G_{n-1} A_i^- = (A_i^+)^T G_n, keyed by (i+1, n)."""
    fock = _cleared_fock(fock)
    out = {}
    for i in range(fock.dimension):
        for n in range(1, fock.depth + 1):
            lhs = _linalg.matmul(fock.grams[n - 1], fock.aminus[i][n])
            residual, scale = _residual(lhs, _transpose_times(fock.aplus[i][n - 1], fock.grams[n]))
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
            s = _linalg.matmul(gram, block)
            out[(i, n)] = _residual(s, s.T)
    return out


def azero_symmetry_residuals(fock: FockData) -> dict:
    """Max-entry asymmetry of G_n A_i^0, keyed by (i+1, n)."""
    fock = _cleared_fock(fock)
    return {
        (i + 1, n): residual / scale
        for (i, n), (residual, scale) in symmetry_residuals(fock.grams, fock.azero).items()
    }


def _seminorm_factor(gram, tol_rank: float, split=None):
    """F with |F c| the float Gram seminorm of a column c, or None where it is zero.

    F = (C sqrt(D))^T over the combos C and `norms2` D of the Gram's float
    `split_gram` (the eigenpairs of the symmetrized binary64 Gram above its
    rank cutoff) that are also above tol_rank relative to the top one: the
    rest belong to the quotient kernel, and evaluating the raw quadratic form
    there would turn rounding noise of size eps into a sqrt(eps) artifact.
    A split already made of the Gram is read, not made again; without one,
    the split is made with no psd verdict, so an indefinite Gram is
    measured on its positive part.
    """
    if split is None:
        split = _linalg.split_gram(gram, False, tol_rank, math.inf)
    norms2 = split.norms2
    if not len(norms2):
        return None
    keep = norms2 > tol_rank * float(np.max(norms2))
    return (split.combos[:, keep] * np.sqrt(norms2[keep])).T


def _seminorm_residual(cols, gram, factor) -> float:
    """Largest Gram seminorm over the columns of a block.

    Exact blocks are measured in rational arithmetic, on integer numerators,
    so a column lying in the kernel scores exactly zero. Float blocks are
    measured as |F c| with F = factor(), the Gram's `_seminorm_factor`;
    where it is None the seminorm vanishes and the block scores 0. Callers
    go through `_seminorms`, which scores a level whose seminorm vanishes
    identically 0 without forming the block.
    """
    if 0 in cols.shape:
        return 0.0
    if cols.dtype == object and gram.dtype == object:
        quad = _linalg.max_quadratic(cols, gram)
        return _floored(math.sqrt(max(0.0, float(quad))), quad > 0)
    f = factor()
    if f is None:
        return 0.0
    proj = f @ _linalg.to_float(cols)
    return float(math.sqrt(max(0.0, float(np.max(np.einsum("ij,ij->j", proj, proj))))))


def _seminorms(grams: list, tol_rank: float, splits: list | None = None):
    """residual(make_cols, n): `_seminorm_residual` of make_cols() against grams[n].

    A level whose seminorm vanishes identically (an exact Gram with no
    nonzero entry, a float Gram with no `_seminorm_factor`) scores 0.0, and
    make_cols is not called: the block is never formed. An exact block with
    no nonzero numerator (`_linalg.is_zero`) scores 0.0 without the
    seminorm. Each level's float factor and vanishing test are made on
    first need and kept by the returned function only, so a caller taking
    one per call decomposes each Gram once per call and still sees a Gram
    edited between calls. The caller's float splits of the Grams, if given,
    give the factors; a None among them is made afresh.
    """

    @functools.cache
    def factor(n):
        return _seminorm_factor(grams[n], tol_rank, None if splits is None else splits[n])

    @functools.cache
    def vanishes(n):
        gram = grams[n]
        if isinstance(gram, _linalg.Cleared):
            return _linalg.is_zero(gram)
        if gram.dtype == object:
            # the public Grams of blocks `_cleared_fock` could not clear
            return not any(gram.flat)
        return factor(n) is None

    def residual(make_cols, n):
        if vanishes(n):
            return 0.0
        cols = make_cols()
        if _linalg.is_zero(cols):
            return 0.0  # what the seminorm of an exact zero block is
        return _seminorm_residual(cols, grams[n], functools.partial(factor, n))

    return residual


@dataclass
class CommutationEntry:
    relation: str
    pair: tuple
    degree: int
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class CommutationReport:
    depth: int
    entries: list = field(default_factory=list)

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
    cutoff of `fock.tolerances`. Residuals of exact blocks pass only at zero.
    Canonical exact creation blocks commute by construction: their CR1
    entries are recorded as 0.0; edited ones, and float ones, are multiplied
    out.
    """
    tol = fock.tolerances
    splits = _gradation_splits(fock)
    fock = _cleared_fock(fock)
    return _commutation_report(fock, tol, _seminorms(fock.grams, tol.rank, splits))


def _gradation_splits(fock: FockData) -> list | None:
    """The float splits fock's gradation made of its Grams, where a Gram and its split are unchanged.

    A forward float FockData's Grams are its gradation's levels' own. A level
    whose Gram in fock and split in the gradation still have the digest the
    gradation took of them (`GradationBasis.digests`) gives that split; any
    other gets None, so its split is made afresh, and so does every Gram
    under another rank cutoff. Exact blocks: None.
    """
    g = fock.gradation
    if fock.exact or g is None or g.digests is None or fock.tolerances.rank != g.tol.rank:
        return None
    if len(g.digests) != len(fock.grams):
        return None
    return [
        lev.split if _split_digest(gram, lev.split) == digest else None
        for gram, lev, digest in zip(fock.grams, g.levels, g.digests)
    ]


def _term_sum(terms: list, exact: bool):
    """The sum of left @ right over the terms.

    Float terms are products added in the order given. Exact ones may hold
    an index map (`_Shift`): the other terms run as one integer product of
    their stacked factors, and a shifted term is a row scatter or a column
    gather of its other factor; the parts are added over the lcm of their
    denominators and reduced once.
    """
    if not exact:
        return functools.reduce(operator.add, (left @ right for left, right in terms))
    moved, products = [], []
    for left, right in terms:
        shifted = isinstance(left, _Shift) or isinstance(right, _Shift)
        (moved if shifted else products).append((left, right))
    parts = []  # (rows it adds to, numerators, denominator, sign)
    if products:
        lefts, rights = zip(*products)
        product = _linalg.matmul(_linalg.stack(lefts, axis=1), _linalg.stack(rights, axis=0))
        if not moved:
            return product
        parts.append((slice(None), product.num, product.den, 1))
    for left, right in moved:
        if isinstance(left, _Shift):
            parts.append((left.rows, right.num, right.den, left.sign))
        else:
            parts.append((slice(None), left.num[:, right.rows], left.den, right.sign))
    left, right = moved[0]
    total = np.zeros((left.shape[0], right.shape[1]), dtype=object)
    den = math.lcm(*(part[2] for part in parts))
    for rows, num, part_den, sign in parts:
        scale = sign * (den // part_den)
        total[rows] += num if scale == 1 else num * scale
    return _linalg.Cleared(total, den)


def _commutation_report(fock: FockData, tol: Tolerances, seminorm) -> CommutationReport:
    """`check_commutation` of fock, in computing form, measured by seminorm (`_seminorms`).

    With the creation blocks as index maps (`_Shift`), CR1 vanishes by
    construction: it is recorded as 0.0 against its usual tolerance, with
    no block formed. A depth or dimension that leaves no relation returns
    at once.
    """
    n_max = fock.depth
    report = CommutationReport(depth=n_max)
    if n_max == 0 or fock.dimension < 2:
        return report
    on_pairs = isinstance(fock.grams[0], _linalg.Cleared)
    shifts = isinstance(fock.aplus[0][0], _Shift)
    blocks = {"+": fock.aplus, "0": fock.azero, "-": fock.aminus}

    def ap(i, n):
        return fock.aplus[i][n]

    def az(i, n):
        return fock.azero[i][n]

    def am(i, n):
        return fock.aminus[i][n]

    @functools.cache
    def scale(kind, i, n):
        # a canonical shift's largest entry is its unit
        return 1.0 if kind == "+" and shifts else _max_abs(blocks[kind][i][n])

    def record(relation, pair, n, terms, target_level, parts):
        if relation == "CR1" and shifts:
            residual = 0.0  # canonical shifts commute
        else:
            residual = seminorm(lambda: _term_sum(terms, fock.exact), target_level)
        tolerance = tol.comm * max([1.0] + [scale(*p) for p in parts])
        report.entries.append(
            CommutationEntry(
                relation=relation,
                pair=pair,
                degree=n,
                residual=residual,
                tolerance=_recorded_tolerance(residual, tolerance, on_pairs),
            )
        )

    for j in range(fock.dimension):
        for k in range(j + 1, fock.dimension):
            pair = (j + 1, k + 1)
            for n in range(n_max - 1):
                terms = [(ap(j, n + 1), ap(k, n)), (-ap(k, n + 1), ap(j, n))]
                record("CR1", pair, n, terms, n + 2, [("+", j, n), ("+", k, n + 1)])
            for n in range(n_max):
                terms = [
                    (ap(j, n), az(k, n)),
                    (az(k, n + 1), -ap(j, n)),
                    (az(j, n + 1), ap(k, n)),
                    (-ap(k, n), az(j, n)),
                ]
                parts = [("+", j, n), ("+", k, n), ("0", j, n + 1), ("0", k, n + 1)]
                record("CR2", pair, n, terms, n + 1, parts)
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
    return report


def apply_coordinate(fock: FockData, i: int, state: dict) -> dict:
    """One application of X_i = A_i^+ + A_i^0 + A_i^- to a level-indexed state."""
    if not 0 <= i < fock.dimension:
        raise ValueError(f"coordinate {i} outside 0..{fock.dimension - 1}")
    out: dict = {}
    # float products are small matrix-vector ones, where matmul's dispatch
    # would cost more than the product
    mul = _linalg.matmul if fock.exact else np.matmul

    def accumulate(level, vec):
        out[level] = out[level] + vec if level in out else vec

    for n, v in state.items():
        if n < 0:
            raise ValueError(f"state level {n} must be non-negative")
        if n + 1 > fock.depth:
            raise DepthExceededError(
                f"word reaches degree {n + 1}, beyond built depth {fock.depth}"
            )
        accumulate(n + 1, _create(fock.aplus[i][n], v, mul))
        accumulate(n, mul(fock.azero[i][n], v))
        if n >= 1:
            accumulate(n - 1, mul(fock.aminus[i][n], v))
    return out


def vacuum_moment(fock: FockData, alpha):
    """Vacuum expectation of the coordinate word x^alpha.

    The word X_1^{a_1} ... X_d^{a_d} is applied to the vacuum rightmost
    factor first; the result is the vacuum coefficient of the final state.
    For moment-born data this reproduces the mixed moments.

    States are memoized on the FockData: the state of alpha is X_i applied to
    that of alpha - e_i, i the lowest index with alpha_i > 0, so all words up
    to a degree cost one application each. A state of degree k keeps only
    its levels <= depth - k, the ones that can still reach the vacuum within
    the built depth; every kept level sums the same terms in the same order
    as the full state, so the value is unchanged. The memo takes the blocks
    in computing form at the first call (`_cleared_fock`, so edits made
    before it are seen) and is valid while the blocks are not edited in
    place; a copy or `dataclasses.replace` of the FockData starts a fresh one.
    Exact words scatter through canonical creation blocks (`_cleared_fock`);
    float words take the products.
    """
    alpha = tuple(alpha)
    _check_index(alpha, fock.dimension)
    if sum(alpha) > fock.depth:
        raise DepthExceededError(
            f"word of degree {sum(alpha)} exceeds built depth {fock.depth}"
        )
    if "_vacuum" not in fock.__dict__:
        vacuum = np.array([1 if fock.exact else 1.0], dtype=object if fock.exact else float)
        fock._vacuum = (_cleared_fock(fock), {(0,) * fock.dimension: {0: vacuum}})
    blocks, states = fock._vacuum

    def state(word):
        if word not in states:
            i = next(k for k, e in enumerate(word) if e)
            below = word[:i] + (word[i] - 1,) + word[i + 1 :]
            # levels above reach = depth - |word| cannot come back to the vacuum;
            # the state below keeps levels <= reach + 1, all that feed the rest
            reach = fock.depth - sum(word)
            applied = apply_coordinate(blocks, i, state(below))
            states[word] = {n: v for n, v in applied.items() if n <= reach}
        return states[word]

    # level 0 is never empty: A^0 maps it to itself
    vac = state(alpha)[0]
    return Fraction(vac.num[0], vac.den) if isinstance(vac, _linalg.Cleared) else vac[0]
