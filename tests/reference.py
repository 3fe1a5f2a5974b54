"""Reference oracles the tests compare the library against.

Plain, unoptimized definitions: the moment and localizing matrices entry by
entry, Lambda of a polynomial term by term, the commutator [X_j, X_k]
applied basis vector by basis vector, the float moments of a recurrence
by a list recursion, and the moments of products and discrete measures on
the scalars as given. The library computes none of these
this way; it reads its moments from `gradation._moment_rows` and checks the
commutation relations block by block (`check_commutation`). `edited` and
`replaced` make the changed copies of read-only library values that tests
compare with the originals.
"""

import dataclasses
import math

import numpy as np

import mvop
from mvop._linalg import cleared, computing
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
