"""Coordinate marginals of a functional and 1-D recurrence extraction.

Restricting a moment functional to a subset of coordinates gives the marginal
functional (remaining exponents set to zero). For one-dimensional functionals
the classical three-term recurrence coefficients are extracted by the monic
Stieltjes iteration; together with jacobi_to_moments this inverts the 1-D
moment problem up to the reliable depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthExceededError, InconsistentMomentsError
from .gradation import build_gradations, resolve_mode
from .measures import JacobiPair1D, MomentFunctional, as_float_functional
from .polynomial import Polynomial
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


def marginal_functional(spec: MarginalSpec) -> MomentFunctional:
    """Functional of the selected coordinates; other exponents are zero."""
    source = spec.source
    coords = spec.coords

    def compute(alpha):
        full = [0] * source.dimension
        for c, e in zip(coords, alpha):
            full[c] = e
        return source.moment(tuple(full))

    return MomentFunctional(
        len(coords),
        compute,
        source.max_reliable_degree,
        exact=source.exact,
        tag=f"marginal({source.tag})",
    )


def jacobi_1d(
    functional: MomentFunctional,
    depth: int,
    *,
    mode: str = "auto",
    tol: Tolerances | None = None,
) -> JacobiPair1D:
    """Three-term recurrence coefficients of a 1-D functional.

    Runs the monic Stieltjes iteration: p_0 = 1 and
    p_{k+1} = (x - alpha_{k+1}) p_k - omega_k p_{k-1}, with
    alpha_{k+1} = <x p_k, p_k> / <p_k, p_k> and omega_k the ratio of
    consecutive squared norms. Returns omega_1..omega_depth and
    alpha_1..alpha_depth. When a squared norm vanishes the measure is
    finitely supported and the remaining coefficients are zero by convention.

    Raises
    ------
    DepthExceededError
        If the functional cannot supply moments to degree 2*depth.
    InconsistentMomentsError
        If a squared norm is negative beyond tolerance.
    """
    if functional.dimension != 1:
        raise ValueError(f"need a 1-D functional, got dimension {functional.dimension}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    tol = tol or Tolerances()
    mode = resolve_mode(functional.exact, mode)
    if 2 * depth > functional.max_reliable_degree:
        raise DepthExceededError(
            f"recurrence to depth {depth} needs moments to {2 * depth}, "
            f"but only {functional.max_reliable_degree} are reliable"
        )
    if mode == "float" and functional.exact:
        functional = as_float_functional(functional)
    exact = mode == "exact"

    def ratio(num, den):
        # int / int must stay rational in exact mode
        return Fraction(num) / Fraction(den) if exact else num / den

    x = Polynomial.variable(1, 0)
    omegas, alphas = [], []
    prev, cur = Polynomial.zero(1), Polynomial.one(1)
    s_prev, s_cur = None, functional.expectation(cur * cur)
    terminated = False
    for k in range(depth):
        if terminated:
            omegas.append(0 if exact else 0.0)
            alphas.append(0 if exact else 0.0)
            continue
        a = ratio(functional.expectation(x * cur * cur), s_cur)
        alphas.append(a)
        if k > 0:
            omegas.append(ratio(s_cur, s_prev))
        nxt = (x - a) * cur - (omegas[-1] * prev if k > 0 else Polynomial.zero(1))
        s_nxt = functional.expectation(nxt * nxt)
        scale = max(1.0, abs(float(s_cur)))
        if exact:
            negative = s_nxt < 0
            vanished = s_nxt == 0
        else:
            negative = float(s_nxt) < -tol.psd * scale
            vanished = float(s_nxt) <= tol.null * scale
        if negative:
            raise InconsistentMomentsError(
                f"negative squared norm {s_nxt} at step {k + 1}"
            )
        prev, cur = cur, nxt
        s_prev, s_cur = s_cur, s_nxt
        if vanished:
            omegas.append(0 if exact else 0.0)
            terminated = True
        elif k == depth - 1:
            omegas.append(ratio(s_cur, s_prev))
    return JacobiPair1D(omegas=tuple(omegas), alphas=tuple(alphas))


def marginal_omega(
    spec: MarginalSpec,
    degree: int,
    *,
    mode: str = "auto",
    tol: Tolerances | None = None,
):
    """Form generator of the marginal functional at one degree."""
    g = build_gradations(marginal_functional(spec), degree, mode=mode, tol=tol)
    return g.level(degree).omega()
