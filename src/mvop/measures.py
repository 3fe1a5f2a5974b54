"""Moment functionals with several backends.

Every backend produces a MomentFunctional: a normalized supplier of mixed
moments of multi-index arguments up to a reliable depth. Backends: discrete
atom lists, products of lower-dimensional functionals, the uniform measures on
the unit circle and half circle, explicit moment tables, standard Gaussian
factors, and moments generated from 1-D recurrence coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .errors import DepthExceededError, SpecFormatError
from .polynomial import _check_index, monomials_up_to
from .scalars import is_rational

UNBOUNDED_DEPTH = 10**9


def _double_factorial(k: int) -> int:
    """(k)!! with the empty-product convention for k <= 0."""
    return math.prod(range(k, 0, -2)) if k > 0 else 1


class MomentFunctional:
    """Supplier of mixed moments Lambda(x^alpha).

    Parameters
    ----------
    dimension : int
        Number of variables.
    compute : callable
        Maps a multi-index tuple to the moment value.
    max_reliable_degree : int
        Depth up to which moments are available; requests beyond raise
        DepthExceededError (moments are never extrapolated).
    exact : bool
        True when every returned value is rational (int/Fraction).
    tag : str
        Backend label, for reports.
    """

    def __init__(self, dimension, compute, max_reliable_degree, exact, tag):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if max_reliable_degree < 0:
            raise ValueError("max_reliable_degree must be >= 0")
        self.dimension = dimension
        self.max_reliable_degree = max_reliable_degree
        self.exact = bool(exact)
        self.tag = tag
        self._compute = compute
        self._cache: dict = {}
        zero = self.moment((0,) * dimension)
        if is_rational(zero):
            ok = zero == 1
        else:
            ok = abs(zero - 1.0) <= 1e-12
        if not ok:
            raise SpecFormatError(f"functional is not normalized: moment(0) = {zero}")

    def moment(self, alpha):
        """The mixed moment Lambda(x^alpha)."""
        alpha = tuple(alpha)
        # only checked multi-indices enter the cache, so a hit needs no check
        if alpha in self._cache:
            return self._cache[alpha]
        _check_index(alpha, self.dimension)
        if sum(alpha) > self.max_reliable_degree:
            raise DepthExceededError(
                f"moment of degree {sum(alpha)} requested, but only degrees "
                f"<= {self.max_reliable_degree} are reliable"
            )
        self._cache[alpha] = self._compute(alpha)
        return self._cache[alpha]

    def __repr__(self):
        return (
            f"MomentFunctional(d={self.dimension}, tag={self.tag!r}, "
            f"depth={self.max_reliable_degree}, exact={self.exact})"
        )


def _float_moment(f: MomentFunctional, alpha) -> float:
    return float(f.moment(alpha))


def as_float_functional(f: MomentFunctional) -> MomentFunctional:
    """Same moments coerced to binary64 (used when the run mode is float)."""
    return MomentFunctional(
        f.dimension,
        partial(_float_moment, f),
        f.max_reliable_degree,
        exact=False,
        tag=f.tag,
    )


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure: atoms and positive weights."""

    atoms: tuple
    weights: tuple
    raw_atoms: tuple | None = field(default=None, compare=False)
    raw_weights: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        atoms = tuple(tuple(a) for a in self.atoms)
        weights = tuple(self.weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        if len(atoms) != len(weights):
            raise ValueError(
                f"got {len(atoms)} atoms but {len(weights)} weights"
            )
        d = len(atoms[0])
        if any(len(a) != d for a in atoms):
            raise ValueError("atoms must all have the same dimension")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atoms must be pairwise distinct")
        if any(not w > 0 for w in weights):
            raise ValueError("weights must be positive")
        total = sum(weights)
        if all(is_rational(w) for w in weights):
            ok = total == 1
        else:
            ok = abs(float(total) - 1.0) <= 1e-12
        if not ok:
            raise ValueError(f"weights must sum to 1, got {total}")

    @property
    def dimension(self) -> int:
        return len(self.atoms[0])

    @property
    def is_exact(self) -> bool:
        return all(is_rational(w) for w in self.weights) and all(
            is_rational(x) for a in self.atoms for x in a
        )


def _discrete_moment(m: DiscreteMeasure, alpha):
    total = 0
    for atom, w in zip(m.atoms, m.weights):
        value = w
        for x, e in zip(atom, alpha):
            if e:
                value = value * x**e
        total = total + value
    return total


def discrete_functional(m: DiscreteMeasure, max_degree: int | None = None) -> MomentFunctional:
    """Moments of a finitely supported measure: sum of weighted atom powers."""
    cap = UNBOUNDED_DEPTH if max_degree is None else max_degree
    compute = partial(_discrete_moment, m)
    return MomentFunctional(m.dimension, compute, cap, exact=m.is_exact, tag="discrete")


def _product_moment(blocks: tuple, alpha):
    value = 1
    for f, lo, hi in blocks:
        value = value * f.moment(alpha[lo:hi])
    return value


def product_functional(factors: list) -> MomentFunctional:
    """Product measure: moments factor across the component functionals.

    Factors are usually 1-D; higher-dimensional factors are allowed, with the
    multi-index split across consecutive coordinate blocks.
    """
    if not factors:
        raise ValueError("need at least one factor")
    dims = [f.dimension for f in factors]
    dimension = sum(dims)
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    cap = min(f.max_reliable_degree for f in factors)
    exact = all(f.exact for f in factors)
    compute = partial(_product_moment, tuple(zip(factors, offsets, offsets[1:])))
    return MomentFunctional(dimension, compute, cap, exact=exact, tag="product")


def _gaussian_moment(alpha):
    k = alpha[0]
    return _double_factorial(k - 1) if k % 2 == 0 else 0


def gaussian_functional() -> MomentFunctional:
    """Standard 1-D Gaussian: m_{2k} = (2k-1)!!, odd moments 0. No sampling."""
    return MomentFunctional(1, _gaussian_moment, UNBOUNDED_DEPTH, exact=True, tag="gaussian")


def _circle_moment(alpha) -> float:
    a, b = alpha
    if a % 2 or b % 2:
        return 0.0
    # int true division rounds correctly
    return _double_factorial(a - 1) * _double_factorial(b - 1) / _double_factorial(a + b)


def _half_circle_moment(alpha) -> float:
    a, b = alpha
    if a % 2 or b % 2 == 0:
        # odd in x or even in y: the full circle's moment
        return _circle_moment(alpha)
    t = b // 2
    rat = Fraction(
        _double_factorial(a - 1) * math.factorial(t) * 2 ** (t + 1),
        _double_factorial(a + b),
    )
    return float(rat) / math.pi


def circle_functional(half: bool = False, max_degree: int = 12) -> MomentFunctional:
    """Uniform measure on the unit circle (d=2), or on its upper half.

    Closed-form values (a beta-function reduction). Full circle:
    E[x^a y^b] = (a-1)!!(b-1)!!/(a+b)!! when a and b are both even, rounded
    once to binary64, and 0 when either is odd. Half circle: the full
    circle's value for odd a or even b, and for odd b
    (a-1)!! t! 2^(t+1) / (a+b)!!, rounded once, divided by pi (t = b // 2).
    """
    if half:
        return MomentFunctional(2, _half_circle_moment, max_degree, exact=False, tag="half_circle")
    return MomentFunctional(2, _circle_moment, max_degree, exact=False, tag="circle")


@dataclass(frozen=True)
class JacobiPair1D:
    """1-D recurrence coefficients: omegas (off-diagonal squares) and alphas (shifts).

    Either every omega is positive, or the sequence terminates: all entries
    from the first zero onward are zero (finitely supported measure).
    """

    omegas: tuple
    alphas: tuple

    def __post_init__(self):
        omegas = tuple(self.omegas)
        alphas = tuple(self.alphas)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) != len(omegas):
            raise ValueError(
                f"got {len(omegas)} omegas but {len(alphas)} alphas"
            )
        if any(w < 0 for w in omegas):
            raise ValueError(f"negative omega in {omegas}")
        seen_zero = False
        for w in omegas:
            if w == 0:
                seen_zero = True
            elif seen_zero:
                raise ValueError("omegas must stay zero after the first zero entry")

    @property
    def terminated(self) -> bool:
        return any(w == 0 for w in self.omegas)

    @property
    def is_exact(self) -> bool:
        return all(is_rational(v) for v in self.omegas + self.alphas)

    def extended(self, depth: int) -> tuple:
        """(omega_1..omega_depth, alpha_1..alpha_depth); zero-padded once terminated."""
        if depth <= len(self.omegas):
            return self.omegas[:depth], self.alphas[:depth]
        if not self.terminated:
            raise DepthExceededError(
                f"recurrence data has {len(self.omegas)} coefficients; "
                f"depth {depth} would extrapolate"
            )
        pad = depth - len(self.omegas)
        return self.omegas + (0,) * pad, self.alphas + (0,) * pad


def _listed_moment(moments: tuple, alpha):
    return moments[alpha[0]]


def jacobi_to_moments(pair: JacobiPair1D, depth: int) -> MomentFunctional:
    """1-D moments from recurrence coefficients.

    m_k is the (0,0) entry of the k-th power of the truncated transfer matrix
    of size depth+1 (monic normalization: unit subdiagonal, alphas on the
    diagonal, omegas on the superdiagonal); rational inputs stay rational.
    Row i of it adds v[i-1], alpha_i v[i] and omega_i v[i+1], in that order.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    omegas, alphas = pair.extended(depth)
    exact = pair.is_exact
    size = depth + 1
    if not exact:
        omegas, alphas = [float(w) for w in omegas], [float(a) for a in alphas]
    v = [Fraction(1) if exact else 1.0] + [Fraction(0) if exact else 0.0] * depth
    moments = [v[0]]
    for _ in range(depth):
        v = [
            sum(
                ([v[i - 1]] if i else [])
                + ([alphas[i] * v[i], omegas[i] * v[i + 1]] if i < depth else [])
            )
            for i in range(size)
        ]
        moments.append(v[0])

    compute = partial(_listed_moment, tuple(moments))
    return MomentFunctional(1, compute, depth, exact=exact, tag="jacobi")


def table_functional(dimension: int, entries: dict, depth: int) -> MomentFunctional:
    """Lookup-backed functional from an explicit moment table.

    Every key must be a multi-index of length dimension, every multi-index
    of total degree <= depth must be present, and the zero-index entry must
    equal 1 (checked by MomentFunctional).
    """
    table = {tuple(k): v for k, v in entries.items()}
    for alpha in table:
        _check_index(alpha, dimension)
    missing = [a for a in monomials_up_to(dimension, depth) if a not in table]
    if missing:
        raise SpecFormatError(
            f"moment table is missing {len(missing)} entries within depth {depth}, "
            f"first missing: {missing[0]}"
        )
    exact = all(is_rational(v) for v in table.values())
    return MomentFunctional(dimension, table.__getitem__, depth, exact=exact, tag="table")
