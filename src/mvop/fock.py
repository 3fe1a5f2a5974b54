"""Creation, preservation, and annihilation block operators on a gradation.

The degree slices of a gradation serve as levels of a finite-depth Fock
representation, so that multiplication by each coordinate decomposes as
X_i = A_i^+ + A_i^0 + A_i^-. Creation blocks are the canonical index shifts
in candidate coordinates. The preservation block solves G_n A_i^0 = R with
R = coef_n^T L_i coef_n, the candidates of degree n taken against the
localizing matrix L_i[a, b] = Lambda(x^(a+b+e_i)). The annihilation block
solves G_{n-1} A_i^- = (A_i^+)^T G_n. `complete_fock` adds the creation and
annihilation blocks to given Gram and preservation blocks, for assembled and
for externally supplied blocks alike, and `_residual` is the one
(residual, scale) measure of every solve and symmetry check.

Exact blocks are computed on as `_linalg.Cleared` pairs through both solves,
starting from the pairs `build_gradations` kept for its levels, and published
as Fraction arrays once (`_published`). The FockData keeps those pairs,
guarded by its public blocks, and the checks and vacuum words read them
while the blocks are unchanged; a block edited in place makes the next check
clear the blocks afresh (`_cleared_fock`), so it is seen. A commutation
relation is one product of its stacked factors, measured in the target-level
Gram seminorm. Vacuum words are memoized (see `vacuum_moment`).
A residual computed on pairs is decided on its exact value: its binary64
image stays above 0.0 when it is nonzero (`_floored`), and then it fails
(`_recorded_tolerance`).
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
from .gradation import GradationBasis, _cleared_moment_matrix, _computing_levels
from .polynomial import monomials_of_degree
from .scalars import Tolerances


def creation_matrix(dimension: int, i: int, n: int, dtype=float) -> np.ndarray:
    """Canonical shift block for coordinate i (0-based) from degree n to n+1.

    Column alpha has a single unit entry in the row of alpha + e_i.
    """
    cols = monomials_of_degree(dimension, n)
    rows = monomials_of_degree(dimension, n + 1)
    row_pos = {a: r for r, a in enumerate(rows)}
    out = np.zeros((len(rows), len(cols)), dtype=dtype)
    one = 1 if dtype == object else 1.0
    for c, alpha in enumerate(cols):
        shifted = tuple(e + (1 if k == i else 0) for k, e in enumerate(alpha))
        out[row_pos[shifted], c] = one
    return out


def nonzero_spectrum(g: GradationBasis, n: int, *, tol: Tolerances | None = None) -> list:
    """Distinct nonzero eigenvalues of the degree-n form generator, ascending.

    The generator is similar to a symmetric matrix via the weight rescaling,
    so its spectrum is real; eigenvalues are computed in binary64 regardless
    of mode. Values closer than 1e-9 relative are merged.
    """
    tol = tol or g.tol
    lev = g.level(n)
    scale = np.array([1.0 / math.sqrt(float(w)) for w in lev.weights])
    sym = _linalg.to_float(lev.gram) * np.outer(scale, scale)
    evals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    cut = _linalg.rank_cutoff(len(evals), float(np.max(np.abs(evals), initial=0.0)), tol.rank)
    kept = sorted(v for v in evals if abs(v) > cut)
    distinct: list = []
    for v in kept:
        if distinct and abs(v - distinct[-1][-1]) <= 1e-9 * max(1.0, abs(v)):
            distinct[-1].append(v)
        else:
            distinct.append([v])
    return [sum(c) / len(c) for c in distinct]


@dataclass
class FockData:
    """Block operators of the Fock representation up to a fixed depth.

    aplus[i][n] maps degree n to n+1 (n = 0..depth-1); azero[i][n] acts on
    degree n (n = 0..depth); aminus[i][n] maps degree n to n-1 (n = 1..depth,
    entry 0 is None). gradation is set when the blocks were assembled from a
    moment functional, None when they came from external data.
    """

    dimension: int
    depth: int
    exact: bool
    grams: list
    aplus: list
    azero: list
    aminus: list
    gradation: GradationBasis | None = None

    @property
    def tolerances(self) -> Tolerances:
        return self.gradation.tol if self.gradation is not None else Tolerances()

    def __getstate__(self):
        # the memos belong to these blocks: a copy starts its own
        return {k: v for k, v in self.__dict__.items() if k not in ("_vacuum", "_computing")}


def _public_blocks(fock: FockData) -> list:
    families = ([fock.grams], fock.aplus, fock.azero, fock.aminus)
    return [b for family in families for per in family for b in per if b is not None]


def _cleared_fock(fock: FockData) -> FockData:
    """fock with its blocks in computing form (`_linalg.cleared`); itself if nothing is to clear.

    Float blocks, and blocks already held as pairs, are their own computing
    form. Exact public blocks are cleared once and kept on fock, guarded by
    them (`_linalg.Guarded`): `assemble_fock` keeps the pairs it computed on,
    and any call after an in-place edit clears afresh and keeps the new
    pairs. A block holding a float entry cannot be cleared: then fock itself.
    """
    if isinstance(fock.grams[0], _linalg.Cleared):
        return fock
    blocks = _public_blocks(fock)
    if all(b.dtype != object for b in blocks):
        return fock
    computed = _linalg.recall(fock.__dict__.get("_computing"), blocks)
    if computed is None:
        try:
            (grams,), aplus, azero, aminus = (
                [[b if b is None else _linalg.cleared(b) for b in per] for per in family]
                for family in ([fock.grams], fock.aplus, fock.azero, fock.aminus)
            )
        except TypeError:
            return fock
        computed = replace(fock, grams=grams, aplus=aplus, azero=azero, aminus=aminus)
        fock._computing = _linalg.Guarded(blocks, computed)
    return computed


def _creation_blocks(d: int, depth: int, dtype) -> list:
    return [[creation_matrix(d, i, n, dtype=dtype) for n in range(depth)] for i in range(d)]


def _published(fock: FockData, grams: list, azero: list) -> FockData:
    """Computed blocks with the caller's public grams and azero, int A^+ and Fraction A^- blocks."""
    # exact A^+ blocks are computed on as pairs, and published as fresh int arrays
    aplus = _creation_blocks(fock.dimension, fock.depth, object) if fock.exact else fock.aplus
    aminus = [[None] + [_linalg.published(b) for b in per[1:]] for per in fock.aminus]
    return replace(fock, grams=grams, aplus=aplus, azero=azero, aminus=aminus)


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
        return _floored(top / mat.den, top)
    a = _linalg.to_float(mat)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _residual(lhs, rhs) -> tuple:
    """(max |lhs - rhs|, max(1, max |rhs|)): a residual and the scale it is judged against."""
    return _max_abs(lhs - rhs), max(1.0, _max_abs(rhs))


def _gram_solve(split: _linalg.GramSplit, gram, rhs) -> tuple:
    """Solve gram @ a = rhs on the Gram range; returns (a, residual, scale)."""
    a = _linalg.pseudo_apply(split, rhs)
    return (a, *_residual(_linalg.matmul(gram, a), rhs))


def annihilation_blocks(aplus: list, grams: list, splits: list) -> tuple:
    """Annihilation blocks from G_{n-1} A_i^- = (A_i^+)^T G_n.

    Returns (aminus, residuals): aminus[i][n] for n = 1..depth (entry 0 is
    None), and residuals[(i, n)] = (residual, scale) of each solve, which
    holds when residual <= tol.adj * scale.
    """
    aminus = []
    residuals = {}
    for i, creation in enumerate(aplus):
        per_level: list = [None]
        for n in range(1, len(grams)):
            rhs = _linalg.matmul(creation[n - 1].T, grams[n])
            a, residual, scale = _gram_solve(splits[n - 1], grams[n - 1], rhs)
            per_level.append(a)
            residuals[(i, n)] = (residual, scale)
        aminus.append(per_level)
    return aminus, residuals


def complete_fock(
    grams: list, splits: list, azero: list, exact: bool, gradation: GradationBasis | None = None
) -> tuple:
    """The Fock representation of Gram and preservation blocks.

    Shared by moment-born blocks (`assemble_fock`) and supplied ones
    (`favard.validate`): the creation blocks are the canonical shifts, the
    annihilation blocks come from `annihilation_blocks`, all in computing
    form (`_published` makes them public). Returns (FockData, residuals),
    residuals as returned by `annihilation_blocks`.
    """
    d, depth = len(azero), len(grams) - 1
    aplus = [
        [_linalg.cleared(b) for b in per]
        for per in _creation_blocks(d, depth, object if exact else float)
    ]
    aminus, residuals = annihilation_blocks(aplus, grams, splits)
    fock = FockData(d, depth, exact, grams, aplus, azero, aminus, gradation)
    return fock, residuals


def assemble_fock(g: GradationBasis, *, tol: Tolerances | None = None) -> FockData:
    """Assemble creation, preservation, and annihilation blocks from a gradation.

    Preservation blocks solve G_n A = R with R the localizing-matrix Gram of
    the candidates; the rest is `complete_fock`. Both solves use the range
    part of the Gram splitting, and the defining identities are re-checked
    afterwards (they must hold because the right-hand sides lie in the Gram
    range for moment-born data).

    Raises
    ------
    DepthExceededError
        If the functional does not reliably cover degree 2*depth + 2.
    InternalConsistencyError
        If a defining identity fails its tolerance after the solve.
    """
    tol = tol or g.tol
    depth = g.max_degree
    functional = g.functional
    if 2 * depth + 2 > functional.max_reliable_degree:
        raise DepthExceededError(
            f"fock assembly at depth {depth} needs moments to {2 * depth + 2}, "
            f"but only {functional.max_reliable_degree} are reliable"
        )
    d = g.dimension
    computed = _computing_levels(g)
    azero = []
    for i in range(d):
        shift = tuple(int(k == i) for k in range(d))
        localizing = _cleared_moment_matrix(functional, depth, shift)
        per_level = []
        for lev, (coef, gram, split) in zip(g.levels, computed):
            size = coef.shape[0]
            rhs = _linalg.gram_product(coef, localizing[:size, :size])
            a, residual, scale = _gram_solve(split, gram, rhs)
            if residual > _recorded_tolerance(residual, tol.adj * scale, g.exact):
                raise InternalConsistencyError(
                    f"preservation solve failed at coordinate {i + 1}, degree {lev.degree}: "
                    f"residual {residual:.3e}"
                )
            per_level.append(a)
        azero.append(per_level)

    fock, residuals = complete_fock(
        [gram for _, gram, _ in computed], [split for *_, split in computed], azero, g.exact, g
    )
    for (i, n), (residual, scale) in residuals.items():
        if residual > _recorded_tolerance(residual, tol.adj * scale, g.exact):
            raise InternalConsistencyError(
                f"annihilation solve failed at coordinate {i + 1}, degree {n}: "
                f"residual {residual:.3e}"
            )
    public = _published(
        fock, [lev.gram for lev in g.levels], [[_linalg.published(a) for a in per] for per in azero]
    )
    if g.exact:
        # the checks read the pairs computed here while the public blocks are unchanged
        public._computing = _linalg.Guarded(_public_blocks(public), fock)
    return public


def adjointness_residuals(fock: FockData) -> dict:
    """Max-entry residual of G_{n-1} A_i^- = (A_i^+)^T G_n, keyed by (i+1, n)."""
    fock = _cleared_fock(fock)
    out = {}
    for i in range(fock.dimension):
        for n in range(1, fock.depth + 1):
            lhs = _linalg.matmul(fock.grams[n - 1], fock.aminus[i][n])
            residual, scale = _residual(lhs, _linalg.matmul(fock.aplus[i][n - 1].T, fock.grams[n]))
            out[(i + 1, n)] = residual / scale
    return out


def symmetry_residuals(grams: list, azero: list) -> dict:
    """(residual, scale) of the asymmetry of G_n A_i^0, keyed by (i, n)."""
    out = {}
    for i, per_level in enumerate(azero):
        for n, (gram, block) in enumerate(zip(grams, per_level)):
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


def _seminorm_residual(cols, gram, tol_rank: float) -> float:
    """Largest Gram seminorm over the columns of a block.

    Exact blocks are measured in rational arithmetic, on integer numerators,
    so a column lying in the kernel scores exactly zero. Float blocks are
    measured against the eigendirections above the rank cutoff of
    `split_gram` and above tol_rank relative to the top eigenvalue: the rest
    belong to the quotient kernel, and evaluating the raw quadratic form
    there would turn rounding noise of size eps into a sqrt(eps) artifact.
    """
    if 0 in cols.shape:
        return 0.0
    if cols.dtype == object and gram.dtype == object:
        quad = _linalg.max_quadratic(cols, gram)
        return _floored(math.sqrt(max(0.0, float(quad))), quad > 0)
    c = _linalg.to_float(cols)
    g = _linalg.to_float(gram)
    w, v = np.linalg.eigh(0.5 * (g + g.T))
    top = float(np.max(w, initial=0.0))
    if top <= 0.0:
        return 0.0
    keep = w > max(_linalg.rank_cutoff(len(w), top, tol_rank), tol_rank * top)
    if not np.any(keep):
        return 0.0
    proj = (v[:, keep] * np.sqrt(w[keep])).T @ c
    return float(math.sqrt(max(0.0, float(np.max(np.einsum("ij,ij->j", proj, proj))))))


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


def check_commutation(fock: FockData, *, tol: Tolerances | None = None) -> CommutationReport:
    """Residuals of the three quantum decomposition commutation relations.

    For every coordinate pair j < k: the creation blocks must commute
    (checked up to degree depth-2), and the two mixed relations
    [A_j^+, A_k^0] + [A_j^0, A_k^+] = 0 and
    [A_j^+, A_k^-] + [A_j^0, A_k^0] + [A_j^-, A_k^+] = 0
    must vanish (checked up to degree depth-1). Residuals are measured as the
    largest target-level Gram seminorm over block columns, so components in
    the null directions of the functional do not register. Residuals of exact
    blocks pass only at zero.
    """
    tol = tol or fock.tolerances
    fock = _cleared_fock(fock)
    on_pairs = isinstance(fock.grams[0], _linalg.Cleared)
    n_max = fock.depth
    report = CommutationReport(depth=n_max)
    blocks = {"+": fock.aplus, "0": fock.azero, "-": fock.aminus}

    def ap(i, n):
        return fock.aplus[i][n]

    def az(i, n):
        return fock.azero[i][n]

    def am(i, n):
        return fock.aminus[i][n]

    @functools.cache
    def scale(kind, i, n):
        return _max_abs(blocks[kind][i][n])

    def combine(terms):
        # sum of left @ right; exact terms run as one integer product of the
        # stacked factors, float terms add up in the order written
        if fock.exact:
            lefts, rights = zip(*terms)
            return _linalg.matmul(_linalg.stack(lefts, axis=1), _linalg.stack(rights, axis=0))
        return functools.reduce(operator.add, (left @ right for left, right in terms))

    def record(relation, pair, n, terms, target_level, parts):
        residual = _seminorm_residual(combine(terms), fock.grams[target_level], tol.rank)
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
    out: dict = {}
    # float products are small matrix-vector ones, where matmul's dispatch
    # would cost more than the product
    mul = _linalg.matmul if fock.exact else np.matmul

    def accumulate(level, vec):
        out[level] = out[level] + vec if level in out else vec

    for n, v in state.items():
        if n + 1 > fock.depth:
            raise DepthExceededError(
                f"word reaches degree {n + 1}, beyond built depth {fock.depth}"
            )
        accumulate(n + 1, mul(fock.aplus[i][n], v))
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
    to a degree cost one application each. The memo takes the blocks in
    computing form at the first call (`_cleared_fock`, so edits made before
    it are seen) and is valid while the blocks are not edited in place; a
    copy or `dataclasses.replace` of the FockData starts a fresh one.
    """
    alpha = tuple(alpha)
    if len(alpha) != fock.dimension:
        raise ValueError(
            f"multi-index {alpha} has length {len(alpha)}, expected {fock.dimension}"
        )
    if any(e < 0 for e in alpha):
        raise ValueError(f"multi-index {alpha} must be non-negative")
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
            states[word] = apply_coordinate(blocks, i, state(below))
        return states[word]

    # level 0 is never empty: A^0 maps it to itself
    vac = state(alpha)[0]
    return Fraction(vac.num[0], vac.den) if isinstance(vac, _linalg.Cleared) else vac[0]


def x_commutator_residual(fock: FockData, j: int, k: int, n: int) -> float:
    """Seminorm residual of [X_j, X_k] applied to the degree-n slice.

    Needs n <= depth - 2 so both applications stay within the built blocks.
    Coordinates are 0-based.
    """
    if n > fock.depth - 2:
        raise DepthExceededError(
            f"commutator at degree {n} needs depth {n + 2}, built {fock.depth}"
        )
    blocks = _cleared_fock(fock)
    size = fock.grams[n].shape[0]
    worst = 0.0
    for col in range(size):
        e = np.zeros(size, dtype=object if fock.exact else float)
        e[col] = 1 if fock.exact else 1.0
        state = {n: e}
        jk = apply_coordinate(blocks, j, apply_coordinate(blocks, k, state))
        kj = apply_coordinate(blocks, k, apply_coordinate(blocks, j, state))
        total = 0.0
        # both words reach the same levels
        for level in set(jk) | set(kj):
            diff = jk[level] - kj[level]
            seminorm = _seminorm_residual(diff[:, None], blocks.grams[level], fock.tolerances.rank)
            total += seminorm**2
        worst = max(worst, math.sqrt(total))
    return worst
