"""Reference oracles the tests compare the library against.

Plain, unoptimized definitions: the moment and localizing matrices entry by
entry, Lambda of a polynomial term by term, and the commutator [X_j, X_k]
applied basis vector by basis vector. The library computes none of these
this way; it reads its moments from `gradation._moment_rows` and checks the
commutation relations block by block (`check_commutation`).
"""

import math

import numpy as np

import mvop
from mvop.fock import _cleared_fock, _gradation_splits, _seminorms


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
    blocks = _cleared_fock(fock)
    seminorm = _seminorms(blocks.grams, fock.tolerances.rank, _gradation_splits(fock))
    size = blocks.grams[n].shape[0]
    worst = 0.0
    for col in range(size):
        e = np.zeros(size, dtype=object if fock.exact else float)
        e[col] = 1 if fock.exact else 1.0
        state = {n: e}
        jk = mvop.apply_coordinate(blocks, j, mvop.apply_coordinate(blocks, k, state))
        kj = mvop.apply_coordinate(blocks, k, mvop.apply_coordinate(blocks, j, state))
        total = 0.0
        # both words reach the same levels
        for level in set(jk) | set(kj):
            total += seminorm(lambda: (jk[level] - kj[level])[:, None], level) ** 2
        worst = max(worst, math.sqrt(total))
    return worst
