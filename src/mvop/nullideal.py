"""Rank deficiency of the gradation and generators of the null ideal.

Polynomials annihilated by the seminorm of a functional form an ideal. Per
degree, the Gram kernel consists of the top coefficient vectors of the null
polynomials; stripping the directions inherited from the degree below (the
creation shifts of its kernel, which carry every shifted earlier generator)
leaves the genuinely new generators of that degree. The shifts are the
creation blocks of the shape (`fock._creation`). Exact shifts, and the
kernels of diagonal levels, are index maps, multiplied only by `_linalg.times`.
Generators are built as Polynomial objects only from those new kernel columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .fock import _creation
from .gradation import GradationBasis
from .polynomial import Polynomial

TOL_EVAL = 1e-8


@dataclass(frozen=True)
class RankSequence:
    degrees: tuple
    dims: tuple
    ranks: tuple
    nullities: tuple

    @property
    def has_deficiency(self) -> bool:
        return any(v > 0 for v in self.nullities)

    @property
    def first_deficient_degree(self) -> int | None:
        for n, v in zip(self.degrees, self.nullities):
            if v > 0:
                return n
        return None


def rank_sequence(g: GradationBasis) -> RankSequence:
    """Dimension, rank, and nullity of every built degree slice."""
    table = g.dimension_table()
    return RankSequence(
        degrees=tuple(row[0] for row in table),
        dims=tuple(row[1] for row in table),
        ranks=tuple(row[2] for row in table),
        nullities=tuple(row[3] for row in table),
    )


def _monic(f: Polynomial) -> Polynomial:
    # graded-lex leading term: highest degree, then lexicographically largest
    lead = max(f.terms, key=lambda a: (sum(a), a))
    return f / f.terms[lead]


def null_polynomials(g: GradationBasis, n: int) -> list:
    """Monic null polynomials of degree n (leading term in graded-lex order)."""
    return [_monic(f) for f in g.level(n).null_basis()]


@dataclass
class NullIdealBasis:
    dimension: int
    max_degree: int
    generators: list
    by_degree: dict
    reduction_log: list = field(default_factory=list)


def _new_kernel_directions(kernel, inherited, tol_rank: float):
    """Basis of (column span of kernel) orthogonal to the inherited columns.

    An exact kernel (a pair or a map) takes pairs, a float one binary64
    arrays. kernel has a column: the caller skips empty kernels. Float
    inherited columns are creation shifts of orthonormal columns, and a
    shift is an isometry, so the largest singular value is 1, above the
    rank cutoff (< 1).
    """
    if inherited.shape[1] == 0:
        return kernel
    if isinstance(kernel, (_linalg.Cleared, _linalg.Units)):
        # v = kernel @ y with inherited^T v = 0: y in the kernel of a = inherited^T kernel,
        # which is the kernel of the Gram a^T a, with the same RREF basis
        a = _linalg.times(inherited.T, kernel)
        return _linalg.times(kernel, _linalg.split_gram(_linalg.matmul(a.T, a), 0.0, 0.0).null)
    u, s, _ = np.linalg.svd(inherited, full_matrices=False)
    cut = _linalg.rank_cutoff(inherited.shape[0], s[0], tol_rank)
    u = u[:, s > cut]
    # kernel columns are orthonormal, so the singular values of u^T kernel are
    # cosines of principal angles; trailing near-zero ones are the new
    # directions
    _, s2, vt = np.linalg.svd(u.T @ kernel, full_matrices=True)
    rank = int(np.sum(s2 > 1e-7))
    return kernel @ vt.T[:, rank:]


def base_generators(g: GradationBasis) -> NullIdealBasis:
    """Degree-minimal generators of the null ideal up to the built depth.

    Null polynomials form an ideal, so x_i p is null whenever p is: the
    degree-n Gram kernel contains the creation shifts A_i^+ K_{n-1} of the
    degree-(n-1) kernel, which span the top coefficient vectors of every
    shifted lower-degree generator. Only kernel directions outside that span
    yield new generators, returned as monic polynomials. The reduction log
    records, per deficient degree, how many kernel directions were inherited
    versus new.
    """
    d = g.dimension
    generators: list = []
    by_degree: dict = {}
    log = []
    for n in range(g.max_degree + 1):
        lev = g.level(n)
        kernel = _linalg.computing(lev).split.null
        if kernel.shape[1] == 0:
            continue
        # the degree-0 Gram is the positive vacuum norm, so n >= 1 here
        below = _linalg.computing(g.level(n - 1)).split.null
        # A_i^+ K_{n-1}: an exact shift is a row scatter; float shifts stay
        # products, since the SVD below can see the sign of a zero
        creation = _creation(d, g.max_degree, g.exact)
        inherited = _linalg.stack([_linalg.times(creation[i][n - 1], below) for i in range(d)], axis=1)
        new_dirs = _new_kernel_directions(kernel, inherited, g.tol.rank)
        fresh = [_monic(f) for f in lev.combine(new_dirs)]
        generators.extend(fresh)
        if fresh:
            by_degree[n] = fresh
        log.append(
            {
                "degree": n,
                "kernel": kernel.shape[1],
                "inherited": kernel.shape[1] - len(fresh),
                "new": len(fresh),
            }
        )
    return NullIdealBasis(
        dimension=d,
        max_degree=g.max_degree,
        generators=generators,
        by_degree=by_degree,
        reduction_log=log,
    )


def support_membership(basis: NullIdealBasis, point) -> bool:
    """Whether a point annihilates every generator (candidate support point).

    A float value counts as zero within `TOL_EVAL` in absolute value.
    """
    point = tuple(point)
    if len(point) != basis.dimension:
        raise ValueError(f"point has length {len(point)}, expected {basis.dimension}")
    for f in basis.generators:
        value = f.evaluate(point)
        if isinstance(value, float):
            if abs(value) > TOL_EVAL:
                return False
        elif value != 0:
            return False
    return True
