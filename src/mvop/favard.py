"""Favard-type validation and reconstruction for externally supplied blocks.

Given candidate Gram matrices (or form generators) and preservation blocks,
this module checks the conditions under which the data comes from a genuine
moment functional, and, when every Gram slice eventually degenerates to rank
zero, reconstructs the finitely supported representing measure by jointly
diagonalizing the coordinate operators on the non-degenerate quotient.
Supplied blocks are completed by `fock.complete_fock`, the routine that
completes moment-born ones, and checked with the same residuals. Each
payload is validated once: a FockInput keeps its last validation with copies
of the blocks it checked (`_Guarded`), and `validate` and
`reconstruct_discrete` reuse it while the blocks, the mode and the
tolerances stay the same. Reconstruction reads that validation's cleared
blocks and Gram splits. The exact blocks of a report are built only when
`report.fock` is first read: until then the checks read its pairs, after
that its public arrays, cleared afresh on every use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

import numpy as np

from . import _linalg
from .errors import (
    InconsistentMomentsError,
    NotFinitelySupportedError,
    SpecFormatError,
    ValidationFailedError,
)
from .fock import (
    FockData,
    _commutation_report,
    _floored,
    _pending_blocks,
    _recorded_tolerance,
    _max_abs,
    _residual,
    _create,
    _seminorms,
    complete_fock,
    symmetry_residuals,
)
from .gradation import index_weight, resolve_mode
from .measures import DiscreteMeasure
from .polynomial import monomials_of_degree, space_dimension
from .scalars import Tolerances, _json_integer, format_scalar, is_rational, parse_scalar


def _parse_block(rows) -> np.ndarray:
    """A payload block from its list of rows; object dtype when every entry is rational."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SpecFormatError(f"a block must be a list of rows, got {rows!r}")
    parsed = [[parse_scalar(v) for v in row] for row in rows]
    if all(is_rational(v) for row in parsed for v in row):
        return np.array(parsed, dtype=object)
    return np.array([[float(v) for v in row] for row in parsed], dtype=float)


def _zero_bzero(dimension: int, depth: int) -> list:
    # object dtype keeps an all-rational payload in exact mode
    return [
        [np.zeros((space_dimension(dimension, n),) * 2, dtype=object) for n in range(depth + 1)]
        for _ in range(dimension)
    ]


class _Guarded:
    """A value derived from some arrays, kept with shallow copies of them.

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


@dataclass
class FockInput:
    """Externally supplied Gram and preservation blocks up to a fixed depth.

    grams[n] is the symmetric candidate Gram at degree n (n = 0..depth);
    bzero[i][n] is the proposed preservation block of coordinate i+1 acting
    on degree n. Creation blocks are always the canonical index shifts.
    """

    dimension: int
    depth: int
    grams: list
    bzero: list
    # the (key, _Validation) of the last validation, guarded by the blocks, see `_validate`
    _memo: _Guarded | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # the memo belongs to these blocks: a copy starts its own
        return {k: v for k, v in self.__dict__.items() if k != "_memo"}

    def __post_init__(self):
        d, n_max = self.dimension, self.depth
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if n_max < 0:
            raise ValueError(f"depth must be >= 0, got {n_max}")
        if len(self.grams) != n_max + 1:
            raise ValueError(f"expected {n_max + 1} Gram blocks, got {len(self.grams)}")
        if len(self.bzero) != d:
            raise ValueError(f"expected {d} preservation families, got {len(self.bzero)}")
        for n, g in enumerate(self.grams):
            k = space_dimension(d, n)
            if g.shape != (k, k):
                raise ValueError(f"Gram at degree {n} has shape {g.shape}, expected ({k}, {k})")
            # a rational Gram is symmetric exactly, a float one within rounding
            if all(map(is_rational, g.flat)):
                asymmetric = (g != g.T).any()
            else:
                asym, scale = _residual(g, g.T)
                asymmetric = asym > 1e-10 * scale
            if asymmetric:
                raise ValueError(f"Gram at degree {n} is not symmetric")
        for i, per_level in enumerate(self.bzero):
            if len(per_level) != n_max + 1:
                raise ValueError(
                    f"coordinate {i + 1} has {len(per_level)} preservation blocks, "
                    f"expected {n_max + 1}"
                )
            for n, b in enumerate(per_level):
                k = space_dimension(d, n)
                if b.shape != (k, k):
                    raise ValueError(
                        f"preservation block at coordinate {i + 1}, degree {n} "
                        f"has shape {b.shape}, expected ({k}, {k})"
                    )

    @property
    def exact(self) -> bool:
        return all(
            is_rational(v) for g in self.grams for v in g.flat
        ) and all(is_rational(v) for per in self.bzero for b in per for v in b.flat)

    @classmethod
    def from_fock_data(cls, fock: FockData) -> "FockInput":
        return cls(
            dimension=fock.dimension,
            depth=fock.depth,
            grams=[g.copy() for g in fock.grams],
            bzero=[[b.copy() for b in per] for per in fock.azero],
        )

    @classmethod
    def from_omegas(cls, dimension: int, omegas: list, bzero: list = None) -> "FockInput":
        """Recover Grams from form generators: G_n = diag(w(alpha)) @ Omega_n."""
        grams = []
        for n, om in enumerate(omegas):
            weights = [index_weight(a) for a in monomials_of_degree(dimension, n)]
            exact = all(is_rational(v) for v in om.flat)
            g = om.copy()
            for j, w in enumerate(weights):
                g[j, :] = g[j, :] * (w if exact else float(w))
            grams.append(g)
        if bzero is None:
            bzero = _zero_bzero(dimension, len(omegas) - 1)
        return cls(dimension=dimension, depth=len(omegas) - 1, grams=grams, bzero=bzero)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FockInput":
        if not isinstance(payload, dict):
            raise SpecFormatError("fock payload must be a JSON object")
        try:
            d, n_max = payload["dimension"], payload["depth"]
        except KeyError as exc:
            raise SpecFormatError(f"bad fock payload header: {exc}") from None
        d, n_max = _json_integer(d, "dimension"), _json_integer(n_max, "depth")
        if "gram" in payload and "omega" in payload:
            raise SpecFormatError("give either 'gram' or 'omega' blocks, not both")
        key = "gram" if "gram" in payload else "omega" if "omega" in payload else None
        if key is None:
            raise SpecFormatError("fock payload needs 'gram' or 'omega' blocks")
        raw_blocks = payload[key]
        if not isinstance(raw_blocks, list) or len(raw_blocks) != n_max + 1:
            raise SpecFormatError(f"'{key}' must list {n_max + 1} blocks")
        blocks = []
        for n, rows in enumerate(raw_blocks):
            mat = _parse_block(rows)
            k = space_dimension(d, n)
            if mat.shape != (k, k):
                raise SpecFormatError(
                    f"'{key}' block at degree {n} has shape {mat.shape}, expected ({k}, {k})"
                )
            blocks.append(mat)
        raw_b = payload.get("bzero")
        if raw_b is None:
            bzero = _zero_bzero(d, n_max)
        else:
            if not isinstance(raw_b, list) or len(raw_b) != d:
                raise SpecFormatError(f"'bzero' must list {d} coordinate families")
            bzero = []
            for per in raw_b:
                if not isinstance(per, list) or len(per) != n_max + 1:
                    raise SpecFormatError(f"each 'bzero' family must list {n_max + 1} blocks")
                bzero.append([_parse_block(rows) for rows in per])
        try:
            if key == "omega":
                return cls.from_omegas(d, blocks, bzero)
            return cls(dimension=d, depth=n_max, grams=blocks, bzero=bzero)
        except ValueError as exc:
            raise SpecFormatError(str(exc)) from None

    def to_json_dict(self) -> dict:
        exact = self.exact

        def dump(mat):
            return [[format_scalar(v, exact) for v in row] for row in mat]

        return {
            "dimension": self.dimension,
            "depth": self.depth,
            "gram": [dump(g) for g in self.grams],
            "bzero": [[dump(b) for b in per] for per in self.bzero],
        }


@dataclass
class ValidationCheck:
    name: str
    detail: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class ValidationReport:
    depth: int
    checks: list = field(default_factory=list)
    fock: FockData | None = None

    def _group(self, names) -> bool:
        return all(c.passed for c in self.checks if c.name in names)

    @property
    def positive(self) -> bool:
        return self._group({"psd", "normalization"})

    @property
    def condition_i(self) -> bool:
        return self._group({"kernel_creation", "kernel_preservation"})

    @property
    def condition_ii(self) -> bool:
        return self._group({"adjointness", "CR1", "CR2", "CR3"})

    @property
    def hermiticity(self) -> bool:
        return self._group({"hermiticity"})

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        bad = self.failures()
        if not bad:
            return f"all {len(self.checks)} checks passed"
        worst = max(bad, key=lambda c: c.residual / max(c.tolerance, 1e-300))
        return (
            f"{len(bad)} of {len(self.checks)} checks failed; worst: {worst.name} "
            f"({worst.detail}) residual {worst.residual:.3e} > {worst.tolerance:.3e}"
        )


def validate(
    fi: FockInput, *, mode: str = "auto", tol: Tolerances | None = None
) -> ValidationReport:
    """Check whether the blocks extend to a moment-functional representation.

    Checks, in order: Gram positive semidefiniteness and vacuum normalization;
    kernel compatibility (creation and preservation map Gram-kernel directions
    to seminorm-zero vectors); Gram-hermiticity of the preservation blocks;
    solvability of the annihilation blocks; and the three commutation
    relations of the quantum decomposition. The report carries one entry per
    check; `passed` is the overall verdict. If positivity already fails the
    dependent checks are skipped. In exact mode the exact split alone decides
    positivity: a pass records residual 0; an asymmetric Gram or a
    non-positive pivot records the binary64 negativity (at least ulp(0))
    against tolerance 0. Every other exact check passes only at residual 0.

    The checks run once per unchanged payload: called again on the same
    FockInput with the same mode and tolerances and bit-identical blocks,
    `validate` (and `reconstruct_discrete`) reuse the run; any edit to a
    block runs them afresh. Each call returns a new report that shares no
    array with that run, so editing it changes no later result. Its exact
    blocks are built on their first read of `report.fock`, from the run's
    pairs and from the copies of the payload blocks the run was validated on.
    """
    run = _validate(fi, mode, tol or Tolerances())
    report = run.report(fi.depth)
    if run.fock is not None:
        report.fock = _report_fock(run.fock, fi)
    return report


def _report_fock(fock: FockData, fi: FockInput) -> FockData:
    """A report's blocks, shared with neither fi nor the kept run: payload grams and A^0 are copied.

    Float blocks are copied now, as binary64. Exact ones are published on
    first read, the payload's from the copies fi's validation memo keeps of
    the blocks it checked, which nothing edits.
    """
    if not fock.exact:
        copy = partial(np.array, dtype=np.float64)
        return replace(
            fock,
            grams=[copy(g) for g in fi.grams],
            aplus=[[np.copy(b) for b in per] for per in fock.aplus],
            azero=[[copy(b) for b in per] for per in fi.bzero],
            aminus=[[None] + [np.copy(b) for b in per[1:]] for per in fock.aminus],
        )
    checked = fi._memo.copies
    grams, bzero = checked[: fi.depth + 1], iter(checked[fi.depth + 1 :])
    bzero = [[next(bzero) for _ in per] for per in fock.azero]
    return _pending_blocks(
        fock,
        _linalg.Pending(fock.grams, lambda _: [np.copy(g) for g in grams]),
        _linalg.Pending(fock.azero, lambda _: [[np.copy(b) for b in per] for per in bzero]),
    )


@dataclass(frozen=True)
class _Validation:
    """One validation run, held by the FockInput it checked and never handed out.

    checks: (name, detail, residual, tolerance) per check, in report order.
    fock: the completed blocks in computing form (pairs in exact mode), set
    once positivity passed. splits: the Gram splits, all of them if positive.
    """

    checks: tuple
    fock: FockData | None
    splits: list

    def report(self, depth: int) -> ValidationReport:
        return ValidationReport(depth, [ValidationCheck(*c) for c in self.checks])


def _validate(fi: FockInput, mode: str, tol: Tolerances) -> _Validation:
    """fi's validation under mode and tol, run again only when fi's blocks, mode or tol changed.

    The run is reused while the key and the block counts are equal and the
    blocks are unchanged (`_Guarded`): an in-place edit, a reassigned
    block or a float put in place of an equal rational all miss. The memo's
    copies of the blocks, grams first, are what an exact report publishes.
    """
    key = (fi.dimension, fi.depth, mode, tol, len(fi.grams), tuple(map(len, fi.bzero)))
    blocks = [np.asarray(b) for b in (*fi.grams, *(b for per in fi.bzero for b in per))]
    memo = fi._memo
    if memo is not None and memo.value[0] == key and memo.holds(blocks):
        return memo.value[1]
    run = _run_validation(fi, mode, tol)
    fi._memo = _Guarded(blocks, (key, run))
    return run


def _run_validation(fi: FockInput, mode: str, tol: Tolerances) -> _Validation:
    """The checks of `validate` on fi's blocks, each cleared once."""
    exact = resolve_mode(fi.exact, mode) == "exact"
    d, n_max = fi.dimension, fi.depth
    # the checks run on the blocks' computing form, each cleared once
    form = _linalg.cleared if exact else _linalg.to_float
    grams = [form(g) for g in fi.grams]
    bzero = [[form(b) for b in per] for per in fi.bzero]
    checks = []

    def add(name, detail, residual, tolerance, exact_residual=exact):
        residual = float(residual)
        tolerance = _recorded_tolerance(residual, tolerance, exact_residual)
        checks.append((name, detail, residual, tolerance))

    # in exact mode grams holds pairs, so the vacuum entry is read off the payload
    vacuum = (fi.grams if exact else grams)[0][0, 0]
    add("normalization", "vacuum Gram", _floored(abs(float(vacuum) - 1.0), vacuum != 1), tol.comm)

    def spectrum(n):
        """The negativity and spectral radius of the symmetrized binary64 Gram."""
        gf = _linalg.to_float(fi.grams[n])
        evals = np.linalg.eigvalsh(0.5 * (gf + gf.T))
        top = float(np.max(np.abs(evals), initial=0.0))
        return max(0.0, -float(np.min(evals, initial=0.0))), top

    splits = []
    for n, g in enumerate(grams):
        # in exact mode the exact split alone decides, and a pass has residual 0
        residual, top = (0.0, _max_abs(g)) if exact else spectrum(n)
        tolerance = tol.psd * max(1.0, top)
        if residual <= tolerance:
            try:
                splits.append(_linalg.split_gram(g, exact, tol.rank, tol.psd))
            except InconsistentMomentsError:
                # the split rejects what the binary64 spectrum let pass (in
                # exact mode: an asymmetric Gram or a non-positive pivot, whose
                # negative direction may lie below binary64 resolution), so
                # the check fails with no tolerance
                residual, tolerance = max(spectrum(n)[0], math.ulp(0.0)), 0.0
        add("psd", f"degree {n}", residual, tolerance, exact_residual=False)
    normalized = checks[0][2] <= checks[0][3]
    if len(splits) < len(grams) or not normalized:
        return _Validation(tuple(checks), None, splits)

    fock, adjointness = complete_fock(grams, splits, bzero, exact, tol)

    # condition (i): kernel directions stay seminorm-zero under creation and
    # preservation
    seminorm = _seminorms(grams, tol.rank, splits)
    for n in range(n_max + 1):
        null = splits[n].null
        if null.shape[1] == 0:
            continue
        scale = max(1.0, _max_abs(grams[n]))
        next_scale = max(1.0, _max_abs(grams[n + 1])) if n < n_max else None
        for i in range(d):
            if n < n_max:
                residual = seminorm(lambda: _create(fock.aplus[i][n], null), n + 1)
                add("kernel_creation", f"coordinate {i + 1}, degree {n}", residual, tol.null * next_scale)
            residual = seminorm(lambda: _linalg.matmul(bzero[i][n], null), n)
            add("kernel_preservation", f"coordinate {i + 1}, degree {n}", residual, tol.null * scale)

    for (i, n), (residual, scale) in symmetry_residuals(grams, bzero).items():
        add("hermiticity", f"coordinate {i + 1}, degree {n}", residual, tol.adj * scale)
    for (i, n), (residual, scale) in adjointness.items():
        add("adjointness", f"coordinate {i + 1}, degree {n}", residual, tol.adj * scale)
    for entry in _commutation_report(fock, tol, seminorm).entries:
        add(
            entry.relation,
            f"pair {entry.pair}, degree {entry.degree}",
            entry.residual,
            entry.tolerance,
        )
    return _Validation(tuple(checks), fock, splits)


def _orthonormal_compression(grams: list, splits: list):
    """lift(A, t, s) = Q_t^T G_t A Q_s, a block from level s to level t on the quotients.

    Q_n = C_n D_n^(-1/2), from the combos C_n and squared norms D_n of the
    given split of G_n; on the quotients the Fock operators are symmetric.
    Exact splits come with the cleared Grams and blocks of `_validate`: there
    C_t^T G_t A C_s is formed exactly and rounded once, so it does not
    inherit the conditioning of the monomial Grams; a creation block is its
    index map (`fock._Shift`), so A C_s is a row scatter of C_s.
    """
    if isinstance(splits[0].combos, _linalg.Cleared):
        # a pair's num / den rounds each entry once (int true division)
        left = [_linalg.matmul(s.combos.T, g) for s, g in zip(splits, grams)]
        scales = [1 / np.sqrt(_linalg.to_float(s.norms2.num / s.norms2.den)) for s in splits]

        def lift(mat, t, s):
            block = _linalg.matmul(left[t], _create(mat, splits[s].combos))
            return scales[t][:, None] * _linalg.to_float(block.num / block.den) * scales[s]

        return lift
    grams = [_linalg.to_float(g) for g in grams]
    qs = [_linalg.to_float(s.combos) / np.sqrt(_linalg.to_float(s.norms2)) for s in splits]

    def lift(mat, t, s):
        return qs[t].T @ grams[t] @ _linalg.to_float(mat) @ qs[s]

    return lift


def _snap(value: float, tol: float = 1e-8, max_den: int = 64):
    fr = Fraction(value).limit_denominator(max_den)
    if abs(float(fr) - value) <= tol:
        return int(fr) if fr.denominator == 1 else fr
    return value


def reconstruct_discrete(
    fi: FockInput,
    *,
    seed: int = 0,
    mode: str = "auto",
    tol: Tolerances | None = None,
) -> DiscreteMeasure:
    """Reconstruct the finitely supported measure behind validated blocks.

    Requires some Gram slice of rank zero within the depth (otherwise the
    data does not certify finite support and NotFinitelySupportedError is
    raised). The blocks are validated first; a run `validate` made on the
    same unchanged FockInput with the same mode and tolerances is reused (see
    `validate`). Ranks and quotients come from that run's cleared blocks and
    Gram splits, exact for exact blocks. The coordinate operators are
    compressed to the orthonormal quotient of the non-degenerate slices and
    jointly diagonalized in binary64; atoms are read off the diagonals,
    weights off the squared vacuum row. Coordinates and weights within 1e-8
    of a fraction with denominator <= 64 are snapped; the raw binary64
    values are kept alongside.

    Raises
    ------
    ValidationFailedError
        If `validate` rejects the blocks.
    NotFinitelySupportedError
        If no Gram slice within the depth has rank zero.
    """
    run = _validate(fi, mode, tol or Tolerances())
    verdict = run.report(fi.depth)
    if not verdict.passed:
        raise ValidationFailedError(f"blocks failed validation: {verdict.summary()}")
    fock, splits = run.fock, run.splits
    cutoff = next((n for n, split in enumerate(splits) if split.rank == 0), None)
    if cutoff is None:
        raise NotFinitelySupportedError(
            f"no Gram slice of rank zero within depth {fi.depth}; "
            f"finite support is not certified"
        )
    lift = _orthonormal_compression(fock.grams[:cutoff], splits[:cutoff])

    offsets = np.concatenate([[0], np.cumsum([s.rank for s in splits[:cutoff]])])
    total = int(offsets[-1])

    operators = []
    for i in range(fi.dimension):
        x = np.zeros((total, total))
        for n in range(cutoff):
            lo, hi = offsets[n], offsets[n + 1]
            b = lift(fock.azero[i][n], n, n)
            x[lo:hi, lo:hi] = 0.5 * (b + b.T)
            if n + 1 < cutoff:
                lo2, hi2 = offsets[n + 1], offsets[n + 2]
                c = lift(fock.aplus[i][n], n + 1, n)
                x[lo2:hi2, lo:hi] = c
                x[lo:hi, lo2:hi2] = c.T
        operators.append(x)

    try:
        w = _linalg.simultaneous_diagonalize(operators, seed=seed, tol=1e-8)
    except ArithmeticError as exc:
        raise ValidationFailedError(
            f"coordinate operators could not be jointly diagonalized: {exc}"
        ) from None

    found = []
    for j in range(total):
        v = w[:, j]
        coords = tuple(float(v @ op @ v) for op in operators)
        found.append((tuple(_snap(c) for c in coords), coords, float(w[0, j] ** 2)))
    # canonical order: snapped coordinates, so float jitter cannot flip ties
    found.sort(key=lambda t: tuple(float(c) for c in t[0]))
    atoms = tuple(snapped for snapped, _, _ in found)
    raw_atoms = tuple(coords for _, coords, _ in found)
    raw_weights = tuple(wt for _, _, wt in found)

    snapped_weights = tuple(_snap(wt) for wt in raw_weights)
    if all(is_rational(wt) for wt in snapped_weights) and sum(snapped_weights) == 1:
        weights = snapped_weights
    else:
        weights = raw_weights
    return DiscreteMeasure(
        atoms=atoms, weights=weights, raw_atoms=raw_atoms, raw_weights=raw_weights
    )


@dataclass
class ProductCheckResult:
    is_product: bool
    omegas: tuple
    etas: tuple
    max_residual: float
    failures: list


def diagonal_product_check(dtable: list) -> ProductCheckResult:
    """Decide whether a diagonal Gram table factors over the two coordinates.

    dtable[n][k] is the diagonal Gram entry at degree n with k first-coordinate
    factors (so dtable[n] has n+1 entries and dtable[0] == [1]). A table of a
    product functional must be d(n, k) = prod(omega_1..omega_k) *
    prod(eta_1..eta_{n-k}); the candidate coefficient sequences are read off
    the two pure-coordinate edges and the product form is then verified
    entrywise, within the fixed `Tolerances.comm` floor in float mode.
    """
    if not dtable or len(dtable[0]) != 1:
        raise ValueError("dtable must start with the single degree-0 entry")
    for n, row in enumerate(dtable):
        if len(row) != n + 1:
            raise ValueError(f"dtable row {n} has {len(row)} entries, expected {n + 1}")
        for v in row:
            if is_rational(v):
                if v < 0:
                    raise InconsistentMomentsError(f"negative diagonal entry {v} at degree {n}")
            elif v < -Tolerances.psd:
                raise InconsistentMomentsError(f"negative diagonal entry {v} at degree {n}")
    if dtable[0][0] != 1:
        raise ValueError(f"degree-0 entry must be 1, got {dtable[0][0]}")

    exact = all(is_rational(v) for row in dtable for v in row)
    n_max = len(dtable) - 1

    def ratio(num, den):
        if den == 0:
            return None if num != 0 else 0
        return Fraction(num, den) if exact else float(num) / float(den)

    omegas, etas = [], []
    for k in range(1, n_max + 1):
        omegas.append(ratio(dtable[k][k], dtable[k - 1][k - 1]))
        etas.append(ratio(dtable[k][0], dtable[k - 1][0]))

    failures = []
    max_residual = 0.0
    if any(v is None for v in omegas + etas):
        # a zero edge entry followed by a nonzero one can never factor
        return ProductCheckResult(False, tuple(omegas), tuple(etas), math.inf, [("edge", 0, 0)])

    for n in range(n_max + 1):
        for k in range(n + 1):
            expected = math.prod(omegas[:k]) * math.prod(etas[: n - k])
            actual = dtable[n][k]
            if exact:
                ok = actual == expected
                residual = 0.0 if ok else 1.0
            else:
                scale = max(1.0, abs(float(expected)))
                residual = abs(float(actual) - float(expected)) / scale
                ok = residual <= Tolerances.comm
            max_residual = max(max_residual, residual)
            if not ok:
                failures.append((n, k, expected, actual))
    return ProductCheckResult(
        is_product=not failures,
        omegas=tuple(omegas),
        etas=tuple(etas),
        max_residual=max_residual,
        failures=failures,
    )


def grams_from_diagonal_table(dtable: list) -> list:
    """Diagonal Gram blocks (d = 2, graded lexicographic order) from a d-table."""
    exact = all(is_rational(v) for row in dtable for v in row)
    grams = []
    for n, row in enumerate(dtable):
        if len(row) != n + 1:
            raise ValueError(f"dtable row {n} has {len(row)} entries, expected {n + 1}")
        g = np.zeros((n + 1, n + 1), dtype=object if exact else float)
        for j in range(n + 1):
            # position j in graded-lex order has n - j first-coordinate factors
            g[j, j] = row[n - j]
        grams.append(g)
    return grams


def diagonal_table_from_grams(grams: list) -> list:
    """Inverse of grams_from_diagonal_table; rejects non-diagonal blocks."""
    dtable = []
    for n, g in enumerate(grams):
        if g.shape != (n + 1, n + 1):
            raise ValueError(f"Gram at degree {n} has shape {g.shape}, expected 2 variables")
        gf = _linalg.to_float(g)
        off = gf - np.diag(np.diag(gf))
        scale = max(1.0, float(np.max(np.abs(gf), initial=0.0)))
        if off.size and float(np.max(np.abs(off))) > Tolerances.comm * scale:
            raise ValueError(f"Gram at degree {n} is not diagonal")
        dtable.append([g[n - k, n - k] for k in range(n + 1)])
    return dtable


@dataclass
class SelfAdjointnessReport:
    degrees: list
    bounds: list
    exponent: float | None
    coefficient: float | None
    divergent: bool | None


def self_adjointness_bound(fock: FockData, degrees=None) -> SelfAdjointnessReport:
    """Growth certificate for essential self-adjointness of the coordinates.

    For each degree n the largest singular value a_n of the orthonormalized
    two-step raising part (creation twice, and creation mixed with
    preservation) is computed over all coordinates; a_n bounds how fast the
    coordinate operators can push mass upward. A power-law fit
    log a_n ~ log C + p log n is reported, and `divergent` is True when the
    fitted growth keeps sum a_n^(-1/2) divergent (p <= 2), which is
    consistent with essential self-adjointness; nothing here constitutes a
    proof. Degenerate data (all a_n zero, finite support) reports divergent
    True with no exponent. The quotients are cut at the rank cutoff of
    `fock.tolerances`.
    """
    tol = fock.tolerances
    n_max = fock.depth
    degrees = list(range(1, n_max - 1)) if degrees is None else list(degrees)
    if not all(isinstance(n, numbers.Integral) for n in degrees):
        raise ValueError(f"degrees must be integers, got {degrees}")
    degrees = sorted(set(int(n) for n in degrees))
    if not degrees:
        raise ValueError("no degrees to bound")
    if degrees[0] < 1 or degrees[-1] > n_max - 2:
        raise ValueError(
            f"degrees must lie in 1..{n_max - 2} so both raising steps stay in depth"
        )

    splits = [_linalg.split_gram(_linalg.to_float(g), False, tol.rank, tol.psd) for g in fock.grams]
    lift = _orthonormal_compression(fock.grams, splits)
    bounds = []
    for n in degrees:
        worst = 0.0
        for i in range(fock.dimension):
            ap = lambda m: fock.aplus[i][m]
            az = lambda m: fock.azero[i][m]
            upper_left = lift(ap(n) @ ap(n - 1), n + 1, n - 1)
            upper_right = lift(ap(n) @ az(n) + az(n + 1) @ ap(n), n + 1, n)
            lower_right = lift(ap(n + 1) @ ap(n), n + 2, n)
            block = np.block(
                [
                    [upper_left, upper_right],
                    [np.zeros((lower_right.shape[0], upper_left.shape[1])), lower_right],
                ]
            )
            if block.size:
                worst = max(worst, float(np.linalg.norm(block, 2)))
        bounds.append(worst)

    points = [(n, a) for n, a in zip(degrees, bounds) if a > 0]
    if len(points) < 2:
        return SelfAdjointnessReport(degrees, bounds, None, None, True)
    logs_n = np.log([n for n, _ in points])
    logs_a = np.log([a for _, a in points])
    p, log_c = np.polyfit(logs_n, logs_a, 1)
    return SelfAdjointnessReport(
        degrees=degrees,
        bounds=bounds,
        exponent=float(p),
        coefficient=float(math.exp(log_c)),
        divergent=bool(p <= 2 + 1e-9),
    )
