"""Reference values the benchmark checks mvop's outputs against.

Nothing here imports mvop: every value comes from a closed form or from a
short independent computation on the generating data (atoms, weights,
recurrence coefficients), so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# Absolute tolerances for binary64 results. Reconstruction read-outs get the
# 1e-8 within which mvop snaps them to fractions. Circle results come from raw
# moments up to degree 2 * depth + 2; the depth-12 Hankel matrix of the
# x-marginal has condition number ~4e8, so rounding alone may reach
# eps * cond ~ 1e-7 there, and the circle tolerance sits ten times above that.
FLOAT_TOL = 1e-8
CIRCLE_TOL = 1e-6
# Within IDENTIFY_TOL a read-out still names its source value: the favard
# inputs have coordinates p/q with q <= 4 (distinct ones differ by >= 1/12)
# and weights r/s with s <= 72 (distinct ones differ by >= 1/72**2). A
# reconstruction that misses FLOAT_TOL but meets IDENTIFY_TOL found the
# right measure imprecisely; one that misses IDENTIFY_TOL is wrong.
IDENTIFY_TOL = 1e-6


def multi_indices(dimension: int, max_degree: int) -> list:
    """Every multi-index of total degree <= max_degree (any fixed order)."""
    return [
        alpha
        for n in range(max_degree + 1)
        for alpha in itertools.product(range(n + 1), repeat=dimension)
        if sum(alpha) == n
    ]


def double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def circle_moment(alpha) -> Fraction:
    """E[cos^a sin^b] under the uniform measure on the unit circle."""
    a, b = alpha
    if a % 2 or b % 2:
        return Fraction(0)
    return Fraction(double_factorial(a - 1) * double_factorial(b - 1), double_factorial(a + b))


def circle_ranks(depth: int) -> tuple:
    """One constant, then two independent directions per degree on a curve."""
    return (1,) + (2,) * depth


CIRCLE_GENERATOR = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}  # x^2 + y^2 - 1, monic


def arcsine_recurrence(depth: int) -> tuple:
    """Monic recurrence of the x-marginal of the circle (arcsine law on [-1, 1])."""
    omegas = tuple([0.5] + [0.25] * (depth - 1))[:depth]
    return omegas, (0.0,) * depth


def close(a, b, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


def gaussian_moment(k: int) -> int:
    return double_factorial(k - 1) if k % 2 == 0 else 0


def gaussian_recurrence(depth: int) -> tuple:
    """Monic Hermite recurrence: x p_k = p_{k+1} + k p_{k-1}."""
    return tuple(range(1, depth + 1)), (0,) * depth


def discrete_moment(atoms, weights, k: int):
    return sum(w * a**k for a, w in zip(atoms, weights))


def recurrence_moment(omegas, alphas, k: int) -> Fraction:
    """m_k as the weighted count of Motzkin paths of length k (Flajolet).

    A path starts and ends at height 0; a level step at height h weighs
    alphas[h], a down step from height h weighs omegas[h - 1].
    """
    paths = {0: Fraction(1)}
    for step in range(k):
        nxt: dict = {}
        for h, v in paths.items():
            if h < k - step - 1:  # only paths that can still get back to 0
                nxt[h + 1] = nxt.get(h + 1, 0) + v
            nxt[h] = nxt.get(h, 0) + v * alphas[h]
            if h > 0:
                nxt[h - 1] = nxt.get(h - 1, 0) + v * omegas[h - 1]
        paths = nxt
    return Fraction(paths.get(0, 0))


def discrete_recurrence(atoms, weights, depth: int) -> tuple:
    """Stieltjes procedure on the atom values, with mvop's termination convention.

    The polynomials are held as their values at the atoms. Once a squared
    norm vanishes (p_m is zero on all m atoms) omega_m is 0 and every later
    coefficient is 0.
    """
    def norm2(values):
        return sum(w * v * v for v, w in zip(values, weights))

    prev = [Fraction(0)] * len(atoms)
    cur = [Fraction(1)] * len(atoms)
    s_prev, s_cur = None, norm2(cur)
    omegas, alphas = [], []
    for k in range(depth):
        if s_cur == 0:
            omegas.append(0)
            alphas.append(0)
            continue
        a = sum(w * x * v * v for x, v, w in zip(atoms, cur, weights)) / s_cur
        alphas.append(a)
        om = s_cur / s_prev if k > 0 else 0
        nxt = [(x - a) * c - om * p for x, c, p in zip(atoms, cur, prev)]
        prev, cur = cur, nxt
        s_prev, s_cur = s_cur, norm2(nxt)
        omegas.append(s_cur / s_prev)
    return tuple(omegas), tuple(alphas)


def grid_ranks(atom_counts, depth: int) -> tuple:
    """Ranks of a product measure whose i-th factor has atom_counts[i] atoms.

    None stands for an infinite support. The degree-n rank counts the
    multi-indices of degree n with every exponent below its factor's atom
    count: those monomials stay independent on the grid of atoms, every
    other one reduces modulo the factor's vanishing polynomial.
    """
    caps = [math.inf if m is None else m for m in atom_counts]
    out = []
    for n in range(depth + 1):
        out.append(
            sum(
                1
                for alpha in itertools.product(range(n + 1), repeat=len(caps))
                if sum(alpha) == n and all(e < c for e, c in zip(alpha, caps))
            )
        )
    return tuple(out)


def same_measure(atoms, weights, got_atoms, got_weights, raw_atoms, raw_weights,
                 tol: float = FLOAT_TOL) -> str | None:
    """None when a reconstruction equals the source measure, else the reason.

    Values the reconstruction returned as rationals must match exactly; a
    value it left as binary64 must lie within tol. The raw binary64
    read-outs must also lie within tol.
    """
    want = sorted(zip(atoms, weights), key=lambda t: tuple(float(x) for x in t[0]))
    if len(got_atoms) != len(want):
        return f"{len(got_atoms)} atoms reconstructed, {len(want)} expected"

    def match(got, expected):
        if isinstance(got, float):
            return close(got, expected, tol)
        return got == expected

    for j, (atom, weight) in enumerate(want):
        if not all(match(g, x) for g, x in zip(got_atoms[j], atom)):
            return f"atom {j}: got {got_atoms[j]}, expected {atom}"
        if not match(got_weights[j], weight):
            return f"weight {j}: got {got_weights[j]}, expected {weight}"
        if not all(close(g, x, tol) for g, x in zip(raw_atoms[j], atom)):
            return f"raw atom {j}: got {raw_atoms[j]}, expected {atom}"
        if not close(raw_weights[j], weight, tol):
            return f"raw weight {j}: got {raw_weights[j]}, expected {weight}"
    return None
