"""Favard-type validation and reconstruction for externally supplied blocks.

Given candidate Gram matrices (or form generators) and preservation blocks,
this module checks the conditions under which the data comes from a genuine
moment functional, and, when every Gram slice eventually degenerates to rank
zero, reconstructs the finitely supported representing measure by jointly
diagonalizing the coordinate operators on the non-degenerate quotient.
Supplied blocks are completed by `fock.complete_fock`, the routine that
completes moment-born ones, and checked with the same residuals. A
FockInput is a read-only value like every other (`_linalg.ReadOnly`), and
so is a validation report, so each payload is validated once: it keeps its
last report, which `validate` returns again and `reconstruct_discrete`
reads under the same mode and tolerances. The checks run on its blocks,
cleared once; a float Gram's one eigendecomposition gives both its psd
record and its split. The completed blocks keep the Gram splits they were
solved with in their computing form (`fock._split`), which the kernel and
commutation checks and reconstruction read. Exact creation blocks and the
unit columns of diagonal Grams' splits are index maps, multiplied only by
`_linalg.times`. A report's blocks are read-only: the payload's arrays and
the blocks it completed them with; the exact ones are built only when
`report.fock` is first read, and the checks read its pairs throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    _floored,
    _published_fock,
    _recorded_tolerance,
    _max_abs,
    _residual,
    _seminorms,
    _split,
    check_commutation,
    complete_fock,
    symmetry_residuals,
)
from .gradation import _level_weights, resolve_mode
from .measures import DiscreteMeasure
from .polynomial import space_dimension
from .scalars import Tolerances, _json_integer, format_scalar, is_rational, parse_scalar


def _parse_block(rows, name: str) -> np.ndarray:
    """The payload block name from its list of rows; object dtype when every entry is rational."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SpecFormatError(f"a block must be a list of rows, got {rows!r}")
    if len({len(row) for row in rows}) > 1:
        raise SpecFormatError(f"{name} has rows of unequal lengths")
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


def _check_shape(block, dimension: int, n: int, name: str) -> None:
    k = space_dimension(dimension, n)
    if block.shape != (k, k):
        raise ValueError(f"{name} has shape {block.shape}, expected ({k}, {k})")


@dataclass(frozen=True, eq=False)
class FockInput(_linalg.ReadOnly):
    """Externally supplied Gram and preservation blocks up to a fixed depth.

    grams[n] is the symmetric candidate Gram at degree n (n = 0..depth);
    bzero[i][n] is the proposed preservation block of coordinate i+1 acting
    on degree n. Creation blocks are always the canonical index shifts. Each
    family is a tuple of read-only arrays; a change is a new value
    (`dataclasses.replace`). A value keeps its last validation report
    (`validate`); copies and pickles start with none.
    """

    dimension: int
    depth: int
    grams: tuple
    bzero: tuple

    _arrays = ("grams", "bzero")

    def __post_init__(self):
        super().__post_init__()
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
            _check_shape(g, d, n, f"Gram at degree {n}")
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
                _check_shape(b, d, n, f"preservation block at coordinate {i + 1}, degree {n}")

    @cached_property
    def exact(self) -> bool:
        return all(
            is_rational(v) for g in self.grams for v in g.flat
        ) and all(is_rational(v) for per in self.bzero for b in per for v in b.flat)

    @classmethod
    def from_fock_data(cls, fock: FockData) -> "FockInput":
        return cls(fock.dimension, fock.depth, fock.grams, fock.azero)

    @classmethod
    def from_omegas(cls, dimension: int, omegas: list, bzero: list = None) -> "FockInput":
        """Recover Grams from form generators: G_n = diag(w(alpha)) @ Omega_n."""
        grams = []
        for n, om in enumerate(omegas):
            _check_shape(om, dimension, n, f"Gram at degree {n}")
            weights = _level_weights(dimension, n)
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
            mat = _parse_block(rows, f"'{key}' block at degree {n}")
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
            for i, per in enumerate(raw_b):
                if not isinstance(per, list) or len(per) != n_max + 1:
                    raise SpecFormatError(f"each 'bzero' family must list {n_max + 1} blocks")
                name = f"'bzero' block at coordinate {i + 1}, degree"
                bzero.append([_parse_block(rows, f"{name} {n}") for n, rows in enumerate(per)])
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


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    detail: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    depth: int
    checks: tuple = ()
    fock: FockData | None = None

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

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
    positivity: a pass records residual 0; a non-positive pivot records the
    binary64 negativity (at least ulp(0)) against tolerance 0. Every other
    exact check passes only at residual 0.

    The checks run once per payload: a FockInput keeps its report under
    the mode and tolerances it was made with, and `validate` returns that
    same report when called again with them (`reconstruct_discrete` reads
    it); a changed payload is a new value (`dataclasses.replace`), validated
    afresh. A report, like its checks, is read-only, and so are its blocks:
    the payload's arrays, and the blocks it completed them with. Its exact
    blocks are built on their first read of `report.fock`.
    """
    key = (mode, tol or Tolerances())
    last = fi.__dict__.get("_validation")
    if last is None or last[0] != key:
        last = fi.__dict__["_validation"] = (key, _run_validation(fi, *key))
    return last[1]


def _run_validation(fi: FockInput, mode: str, tol: Tolerances) -> ValidationReport:
    """The report of `validate` on fi's blocks, each cleared once."""
    exact = resolve_mode(fi.exact, mode) == "exact"
    d, n_max = fi.dimension, fi.depth
    # the report's blocks hold the payload families, not fi, which holds the report
    payload_grams, payload_bzero = fi.grams, fi.bzero
    # the checks run on the blocks' computing form, each cleared once
    form = _linalg.cleared if exact else _linalg.to_float
    grams = [form(g) for g in payload_grams]
    bzero = [[form(b) for b in per] for per in payload_bzero]
    checks = []

    def add(name, detail, residual, tolerance, exact_residual=exact):
        residual = float(residual)
        tolerance = _recorded_tolerance(residual, tolerance, exact_residual)
        checks.append(ValidationCheck(name, detail, residual, tolerance))

    # in exact mode grams holds pairs, so the vacuum entry is read off the payload
    vacuum = (payload_grams if exact else grams)[0][0, 0]
    add("normalization", "vacuum Gram", _floored(abs(float(vacuum) - 1.0), vacuum != 1), tol.comm)

    def negativity(evals):
        return max(0.0, -float(np.min(evals, initial=0.0)))

    splits = []
    for n, g in enumerate(grams):
        if exact:
            # the exact split alone decides, and a pass has residual 0
            residual, tolerance = 0.0, tol.psd * max(1.0, _max_abs(g))
            try:
                splits.append(_linalg.split_gram(g, True, tol.rank, tol.psd))
            except InconsistentMomentsError:
                # a non-positive pivot, whose negative direction may lie below
                # binary64 resolution: the check records the negativity of the
                # symmetrized binary64 Gram and fails with no tolerance
                gf = _linalg.to_float(payload_grams[n])
                residual = max(negativity(np.linalg.eigvalsh(0.5 * (gf + gf.T))), math.ulp(0.0))
                tolerance = 0.0
        else:
            # one eigendecomposition gives the psd record and the split
            evals, split = _linalg.eigen_split(g, tol.rank)
            residual = negativity(evals)
            tolerance = tol.psd * max(1.0, float(np.max(np.abs(evals), initial=0.0)))
            if residual <= tolerance:
                splits.append(split)
        add("psd", f"degree {n}", residual, tolerance, exact_residual=False)
    if len(splits) < len(grams) or not checks[0].passed:
        return ValidationReport(n_max, tuple(checks))

    fock, adjointness = complete_fock(grams, splits, bzero, exact, tol)

    # condition (i): kernel directions stay seminorm-zero under creation and
    # preservation
    seminorm = _seminorms(fock)
    for n in range(n_max + 1):
        null = splits[n].null
        if null.shape[1] == 0:
            continue
        scale = max(1.0, _max_abs(grams[n]))
        next_scale = max(1.0, _max_abs(grams[n + 1])) if n < n_max else None
        for i in range(d):
            if n < n_max:
                residual = seminorm(lambda: _linalg.times(fock.aplus[i][n], null), n + 1)
                add("kernel_creation", f"coordinate {i + 1}, degree {n}", residual, tol.null * next_scale)
            residual = seminorm(lambda: _linalg.times(bzero[i][n], null), n)
            add("kernel_preservation", f"coordinate {i + 1}, degree {n}", residual, tol.null * scale)

    for (i, n), (residual, scale) in symmetry_residuals(grams, bzero).items():
        add("hermiticity", f"coordinate {i + 1}, degree {n}", residual, tol.adj * scale)
    for (i, n), (residual, scale) in adjointness.items():
        add("adjointness", f"coordinate {i + 1}, degree {n}", residual, tol.adj * scale)
    # an entry comes with the tolerance it is recorded against (`_recorded_tolerance`)
    for e in check_commutation(fock).entries:
        checks.append(ValidationCheck(e.relation, f"pair {e.pair}, degree {e.degree}", e.residual, e.tolerance))
    if exact:
        fock = _published_fock(fock, lambda: payload_grams, lambda: payload_bzero)
    return ValidationReport(n_max, tuple(checks), fock)


def _orthonormal_compression(grams: list, splits: list):
    """lift(A, t, s) = Q_t^T G_t A Q_s, a block from level s to level t on the quotients.

    Q_n = C_n D_n^(-1/2), from the combos C_n and squared norms D_n of the
    given split of G_n; on the quotients the Fock operators are symmetric.
    Exact splits come with the cleared Grams and blocks of `validate`: there
    C_t^T G_t A C_s is formed exactly and rounded once, so it does not
    inherit the conditioning of the monomial Grams. A creation block, and
    the combos of a diagonal Gram, are index maps (`_linalg.Units`), whose
    products are index moves (`_linalg.times`).
    """
    if isinstance(splits[0].norms2, _linalg.Cleared):
        # a pair's num / den rounds each entry once (int true division)
        left = [_linalg.times(s.combos.T, g) for s, g in zip(splits, grams)]
        scales = [1 / np.sqrt(_linalg.to_float(s.norms2.num / s.norms2.den)) for s in splits]

        def lift(mat, t, s):
            block = _linalg.times(left[t], _linalg.times(mat, splits[s].combos))
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
    raised). The blocks are validated first; the report `validate` made on
    the same FockInput with the same mode and tolerances is read again (see
    `validate`). Ranks and quotients come from that report's cleared blocks
    and the Gram splits their computing form keeps, exact for exact blocks. The
    coordinate operators are compressed to the orthonormal quotient of the
    non-degenerate slices and jointly diagonalized in binary64; atoms are
    read off the diagonals, weights off the squared vacuum row. Coordinates
    and weights within 1e-8 of a fraction with denominator <= 64 are
    snapped; the raw binary64 values are kept alongside.

    Raises
    ------
    ValidationFailedError
        If `validate` rejects the blocks.
    NotFinitelySupportedError
        If no Gram slice within the depth has rank zero.
    """
    report = validate(fi, mode=mode, tol=tol)
    if not report.passed:
        raise ValidationFailedError(f"blocks failed validation: {report.summary()}")
    fock = _linalg.computing(report.fock)
    splits = [_split(fock, n) for n in range(fi.depth + 1)]
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
    `fock.tolerances`. A FockData whose aplus is not the canonical shifts
    raises ValueError, as at its first check.
    """
    _linalg.computing(fock)  # refuses a non-canonical aplus
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
