"""Coordinate marginals of a functional and 1-D recurrence extraction.

Restricting a moment functional to a subset of coordinates gives the marginal
functional (remaining exponents set to zero). For one-dimensional functionals
the classical three-term recurrence coefficients are computed from the moment
sequence alone by the Chebyshev algorithm (Gautschi, Orthogonal Polynomials:
Computation and Approximation, 2004, Algorithm 2.1), in O(depth^2) scalar
operations; together with jacobi_to_moments this inverts the 1-D moment
problem up to the reliable depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import DepthExceededError, InconsistentMomentsError
from .gradation import resolve_mode
from .measures import JacobiPair1D, MomentFunctional
from .scalars import Tolerances


@dataclass(frozen=True)
class MarginalSpec:
    """Selection of coordinates (0-based, strictly increasing) of a source."""

    source: MomentFunctional
    coords: tuple

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("select at least one coordinate")
        if any(c < 0 or c >= self.source.dimension for c in coords):
            raise ValueError(
                f"coordinates {coords} outside 0..{self.source.dimension - 1}"
            )
        if any(b <= a for a, b in zip(coords, coords[1:])):
            raise ValueError(f"coordinates must be strictly increasing, got {coords}")


def _marginal_moment(source: MomentFunctional, coords: tuple, alpha):
    full = [0] * source.dimension
    for c, e in zip(coords, alpha):
        full[c] = e
    return source.moment(tuple(full))


def marginal_functional(spec: MarginalSpec) -> MomentFunctional:
    """Functional of the selected coordinates; other exponents are zero."""
    source = spec.source
    coords = spec.coords
    return MomentFunctional(
        len(coords),
        partial(_marginal_moment, source, coords),
        source.max_reliable_degree,
        exact=source.exact,
        tag=f"marginal({source.tag})",
    )


def jacobi_1d(functional: MomentFunctional, depth: int, *, mode: str = "auto") -> JacobiPair1D:
    """Three-term recurrence coefficients of a 1-D functional.

    Runs the Chebyshev algorithm on the mixed moments
    sigma_k(l) = <p_k, x^l> of the monic orthogonal polynomials
    p_{k+1} = (x - alpha_{k+1}) p_k - omega_k p_{k-1}, p_0 = 1, starting from
    sigma_0(l) = mu_l: the next row is
    sigma_{k+1}(l) = sigma_k(l+1) - alpha_{k+1} sigma_k(l) - omega_k sigma_{k-1}(l),
    sigma_k(k) = <p_k, p_k> is the squared norm, omega_k is the ratio of
    consecutive squared norms and alpha_{k+1} the difference of consecutive
    ratios sigma_k(k+1) / sigma_k(k). Exact mode works on Fractions, float
    mode in binary64. Returns omega_1..omega_depth and alpha_1..alpha_depth.
    When a squared norm vanishes the measure is finitely supported and the
    remaining coefficients are zero by convention.

    Raises
    ------
    DepthExceededError
        If the functional cannot supply moments to degree 2*depth.
    InconsistentMomentsError
        If a squared norm is negative beyond the fixed `Tolerances.psd` floor.
    """
    if functional.dimension != 1:
        raise ValueError(f"need a 1-D functional, got dimension {functional.dimension}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    mode = resolve_mode(functional.exact, mode)
    if 2 * depth > functional.max_reliable_degree:
        raise DepthExceededError(
            f"recurrence to depth {depth} needs moments to {2 * depth}, "
            f"but only {functional.max_reliable_degree} are reliable"
        )
    exact = mode == "exact"
    scalar = Fraction if exact else float
    size = 2 * depth + 1
    # rows indexed by l; cur = sigma_k is read for l = k..2*depth-k, prev = sigma_{k-1}
    prev, cur = [0] * size, [scalar(functional.moment((l,))) for l in range(size)]
    omegas, alphas = [], []
    omega = ratio_prev = 0
    for k in range(depth):
        ratio = cur[k + 1] / cur[k]
        alpha = ratio - ratio_prev
        alphas.append(alpha)
        nxt = [0] * (k + 1) + [
            cur[l + 1] - alpha * cur[l] - omega * prev[l] for l in range(k + 1, size - k - 1)
        ]
        norm, scale = nxt[k + 1], max(1.0, abs(float(cur[k])))
        if exact:
            negative = norm < 0
            vanished = norm == 0
        else:
            negative = norm < -Tolerances.psd * scale
            vanished = norm <= Tolerances.null * scale
        if negative:
            raise InconsistentMomentsError(f"negative squared norm {norm} at step {k + 1}")
        if vanished:
            break
        omega = norm / cur[k]
        omegas.append(omega)
        prev, cur, ratio_prev = cur, nxt, ratio
    zero = 0 if exact else 0.0
    return JacobiPair1D(
        omegas=tuple(omegas) + (zero,) * (depth - len(omegas)),
        alphas=tuple(alphas) + (zero,) * (depth - len(alphas)),
    )
