"""Reference oracles the tests compare the library against.

Plain, unoptimized definitions: the moment and localizing matrices entry by
entry, Lambda of a polynomial term by term, the commutator [X_j, X_k]
applied basis vector by basis vector, the float moments of a recurrence
by a list recursion, and the moments of products and discrete measures on
the scalars as given, and the self-adjointness bounds and level spectra
on the public arrays. The library computes none of these this way; it
reads its moments from `gradation._moment_rows`, checks the commutation
relations block by block (`check_commutation`), and forms the bounds and
spectra on the computing form. `fock_payload` parses a block payload
entry by entry into object or binary64 arrays, which the library parses
in one pass into pairs (`FockInput.from_json_dict`). `edited` and
`replaced` make the changed copies of read-only library values that tests
compare with the originals.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np

import mvop
from mvop._linalg import cleared, computing, rank_cutoff, split_gram
from mvop.fock import _seminorms


def moment_matrix(functional, degree: int, shift=None) -> np.ndarray:
    """Lambda(x^(a+b+shift)) for a, b over the monomials of degree <= degree.

    Rows and columns follow ``monomials_up_to`` (graded-lex), so the matrix
    of a lower degree is a leading block. Without shift this is the moment
    matrix; with shift = e_i it is the localizing matrix of x_i.
    Object-typed for exact functionals.
    """
    monos = mvop.monomials_up_to(functional.dimension, degree)
    shift = shift or (0,) * functional.dimension
    return np.array(
        [[functional.moment(tuple(map(sum, zip(a, b, shift)))) for b in monos] for a in monos],
        dtype=object if functional.exact else float,
    )


def edited(blocks, *path, change):
    """A copy of a block, or of a (nested) family of blocks, with change(entry) at path.

    path indexes down through the family to a block, then names the entry
    in it. Only the blocks on the path are copied, as writable arrays, and
    the families holding them as lists; every other block is shared.
    """
    index, *rest = path
    if not rest:
        out = blocks.copy()
        out[index] = change(out[index])
        return out
    out = list(blocks)
    out[index] = edited(blocks[index], *rest, change=change)
    return out


def replaced(value, name, *path, change):
    """dataclasses.replace of value with field name `edited` at path."""
    return dataclasses.replace(value, **{name: edited(getattr(value, name), *path, change=change)})


def expectation(functional, f):
    """Lambda applied to a polynomial, term by term."""
    assert f.dimension == functional.dimension
    total = 0
    for alpha, coeff in f.terms.items():
        total = total + coeff * functional.moment(alpha)
    return total


def x_commutator_residual(fock, j: int, k: int, n: int) -> float:
    """Seminorm residual of [X_j, X_k] applied to the degree-n slice.

    Needs n <= depth - 2 so both applications stay within the built blocks.
    Coordinates are 0-based.
    """
    for c in (j, k):
        if not 0 <= c < fock.dimension:
            raise ValueError(f"coordinate {c} outside 0..{fock.dimension - 1}")
    if n < 0:
        raise ValueError(f"degree {n} must be non-negative")
    if n > fock.depth - 2:
        raise mvop.DepthExceededError(
            f"commutator at degree {n} needs depth {n + 2}, built {fock.depth}"
        )
    blocks = computing(fock)
    seminorm = _seminorms(blocks)
    size = blocks.grams[n].shape[0]
    worst = 0.0
    for col in range(size):
        e = np.zeros(size, dtype=object if fock.exact else float)
        e[col] = 1 if fock.exact else 1.0
        state = {n: e}
        jk = mvop.apply_coordinate(fock, j, mvop.apply_coordinate(fock, k, state))
        kj = mvop.apply_coordinate(fock, k, mvop.apply_coordinate(fock, j, state))
        total = 0.0
        # both words reach the same levels; exact words are Fraction vectors,
        # whose difference is measured as a pair
        for level in set(jk) | set(kj):
            diff = (cleared if fock.exact else np.asarray)(jk[level] - kj[level])
            total += seminorm(lambda: diff[:, None], level) ** 2
        worst = max(worst, math.sqrt(total))
    return worst


def product_moment(factors, alpha):
    """Lambda(x^alpha) of a product: each factor's moment of its slice of alpha, multiplied in order from 1."""
    value, lo = 1, 0
    for f in factors:
        value = value * f.moment(alpha[lo : lo + f.dimension])
        lo += f.dimension
    return value


def discrete_moment(measure, alpha):
    """Lambda(x^alpha) of a discrete measure: weight times powers, atom by atom, summed from 0.

    A power with a zero exponent is skipped, not multiplied in.
    """
    total = 0
    for atom, w in zip(measure.atoms, measure.weights):
        value = w
        for x, e in zip(atom, alpha):
            if e:
                value = value * x**e
        total = total + value
    return total


def float_jacobi_moments(pair, depth: int) -> list:
    """m_0..m_depth of a float recurrence pair in binary64, by the plain list recursion.

    Row i of the truncated transfer matrix sums v[i-1], alpha_i v[i] and
    omega_i v[i+1], in that order, starting from 0.
    """
    omegas, alphas = pair.extended(depth)
    omegas, alphas = [float(w) for w in omegas], [float(a) for a in alphas]
    v = [1.0] + [0.0] * depth
    moments = [v[0]]
    for _ in range(depth):
        v = [
            sum(([v[i - 1]] if i else []) + ([alphas[i] * v[i], omegas[i] * v[i + 1]] if i < depth else []))
            for i in range(depth + 1)
        ]
        moments.append(v[0])
    return moments


def self_adjointness_bounds(fock, degrees) -> list:
    """a_n of `self_adjointness_bound` for each degree n, from the public arrays.

    The raising blocks are products of the public blocks with `@`, on
    Fractions for exact ones, and each is rounded to binary64 entry by
    entry; the quotients Q_n = C_n D_n^(-1/2) come from the float splits of
    the binary64 Grams, and the lifted block is Q_t^T G_t A Q_s.
    """
    tol = fock.tolerances
    grams = [np.asarray(g, dtype=float) for g in fock.grams]
    splits = [split_gram(g, tol.rank, tol.psd) for g in grams]
    qs = [s.combos / np.sqrt(s.norms2) for s in splits]

    def lift(mat, t, s):
        return qs[t].T @ grams[t] @ np.asarray(mat, dtype=float) @ qs[s]

    bounds = []
    for n in degrees:
        worst = 0.0
        for ap, az in zip(fock.aplus, fock.azero):
            upper_left = lift(ap[n] @ ap[n - 1], n + 1, n - 1)
            upper_right = lift(ap[n] @ az[n] + az[n + 1] @ ap[n], n + 1, n)
            lower_right = lift(ap[n + 1] @ ap[n], n + 2, n)
            corner = np.zeros((lower_right.shape[0], upper_left.shape[1]))
            block = np.block([[upper_left, upper_right], [corner, lower_right]])
            if block.size:
                worst = max(worst, float(np.linalg.norm(block, 2)))
        bounds.append(worst)
    return bounds


def nonzero_spectrum(g, n) -> list:
    """`mvop.nonzero_spectrum` of level n from its public Gram, rounded to binary64 entry by entry."""
    lev = g.level(n)
    scale = np.array([1.0 / math.sqrt(float(w)) for w in lev.weights])
    sym = np.asarray(lev.gram, dtype=float) * np.outer(scale, scale)
    evals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    cut = rank_cutoff(len(evals), float(np.max(np.abs(evals), initial=0.0)), g.tol.rank)
    distinct: list = []
    for v in sorted(v for v in evals if abs(v) > cut):
        if distinct and abs(v - distinct[-1][-1]) <= 1e-9 * max(1.0, abs(v)):
            distinct[-1].append(v)
        else:
            distinct.append([v])
    return [sum(c) / len(c) for c in distinct]


def scalar(value):
    """A document value as int, Fraction or float: every string read as a Fraction, an integral one as int."""
    if isinstance(value, bool):
        raise mvop.SpecFormatError(f"boolean is not a valid scalar: {value!r}")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise mvop.SpecFormatError(f"non-finite scalar {value!r}")
        return value
    if isinstance(value, str):
        try:
            frac = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise mvop.SpecFormatError(f"cannot parse scalar {value!r}") from exc
        return int(frac) if frac.denominator == 1 else frac
    raise mvop.SpecFormatError(f"cannot parse scalar of type {type(value).__name__}")


def _rational(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _block(rows, name: str) -> np.ndarray:
    """One payload block, entry by entry: an object array when every entry is rational, else binary64."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise mvop.SpecFormatError(f"a block must be a list of rows, got {rows!r}")
    if len({len(row) for row in rows}) > 1:
        raise mvop.SpecFormatError(f"{name} has rows of unequal lengths")
    parsed = [[scalar(v) for v in row] for row in rows]
    if all(_rational(v) for row in parsed for v in row):
        return np.array(parsed, dtype=object)
    return np.array([[float(v) for v in row] for row in parsed], dtype=float)


def _checked(d: int, n_max: int, grams: list, bzero: list) -> None:
    """The checks of a FockInput, on its public arrays: ValueError names the first failure."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n_max < 0:
        raise ValueError(f"depth must be >= 0, got {n_max}")
    if len(grams) != n_max + 1:
        raise ValueError(f"expected {n_max + 1} Gram blocks, got {len(grams)}")
    if len(bzero) != d:
        raise ValueError(f"expected {d} preservation families, got {len(bzero)}")

    def shape(block, n, name):
        k = mvop.space_dimension(d, n)
        if block.shape != (k, k):
            raise ValueError(f"{name} has shape {block.shape}, expected ({k}, {k})")

    for n, g in enumerate(grams):
        shape(g, n, f"Gram at degree {n}")
        if all(map(_rational, g.flat)):
            asymmetric = (g != g.T).any()
        else:
            gf = g.astype(float)
            asymmetric = np.abs(gf - gf.T).max() > 1e-10 * max(1.0, np.abs(gf).max())
        if asymmetric:
            raise ValueError(f"Gram at degree {n} is not symmetric")
    for i, per_level in enumerate(bzero):
        if len(per_level) != n_max + 1:
            raise ValueError(
                f"coordinate {i + 1} has {len(per_level)} preservation blocks, expected {n_max + 1}"
            )
        for n, b in enumerate(per_level):
            shape(b, n, f"preservation block at coordinate {i + 1}, degree {n}")


def fock_payload(payload) -> tuple:
    """(grams, bzero, exact) of a block payload, each entry parsed on its own (`scalar`).

    Each block is an object array when all its entries are rational, else a
    binary64 one; omega blocks are scaled row by row by the index weights.
    exact is whether every entry of every block is rational. A malformed
    payload raises SpecFormatError, with the message
    `FockInput.from_json_dict` gives it.
    """
    if not isinstance(payload, dict):
        raise mvop.SpecFormatError("fock payload must be a JSON object")
    try:
        d, n_max = payload["dimension"], payload["depth"]
    except KeyError as exc:
        raise mvop.SpecFormatError(f"bad fock payload header: {exc}") from None
    for name, value in (("dimension", d), ("depth", n_max)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise mvop.SpecFormatError(f"{name!r} must be an integer, got {value!r}")
    if "gram" in payload and "omega" in payload:
        raise mvop.SpecFormatError("give either 'gram' or 'omega' blocks, not both")
    key = "gram" if "gram" in payload else "omega" if "omega" in payload else None
    if key is None:
        raise mvop.SpecFormatError("fock payload needs 'gram' or 'omega' blocks")
    raw = payload[key]
    if not isinstance(raw, list) or len(raw) != n_max + 1:
        raise mvop.SpecFormatError(f"'{key}' must list {n_max + 1} blocks")
    grams = []
    for n, rows in enumerate(raw):
        block = _block(rows, f"'{key}' block at degree {n}")
        k = mvop.space_dimension(d, n)
        if block.shape != (k, k):
            raise mvop.SpecFormatError(
                f"'{key}' block at degree {n} has shape {block.shape}, expected ({k}, {k})"
            )
        grams.append(block)
    raw_b = payload.get("bzero")
    if raw_b is None:
        zero = [np.zeros((mvop.space_dimension(d, n),) * 2, dtype=object) for n in range(n_max + 1)]
        bzero = [list(zero) for _ in range(d)]
    else:
        if not isinstance(raw_b, list) or len(raw_b) != d:
            raise mvop.SpecFormatError(f"'bzero' must list {d} coordinate families")
        bzero = []
        for i, per in enumerate(raw_b):
            if not isinstance(per, list) or len(per) != n_max + 1:
                raise mvop.SpecFormatError(f"each 'bzero' family must list {n_max + 1} blocks")
            name = f"'bzero' block at coordinate {i + 1}, degree"
            bzero.append([_block(rows, f"{name} {n}") for n, rows in enumerate(per)])
    if key == "omega":
        for n, g in enumerate(grams):
            exact = all(map(_rational, g.flat))
            weights = [mvop.index_weight(a) for a in mvop.monomials_of_degree(d, n)]
            grams[n] = g * np.array([w if exact else float(w) for w in weights], dtype=object if exact else float)[:, None]
    try:
        _checked(d, n_max, grams, bzero)
    except ValueError as exc:
        raise mvop.SpecFormatError(str(exc)) from None
    blocks = [*grams, *(b for per in bzero for b in per)]
    return grams, bzero, all(_rational(v) for b in blocks for v in b.flat)
