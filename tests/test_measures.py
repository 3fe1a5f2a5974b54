import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

import mvop
from mvop.measures import as_float_functional


def double_factorial(k):
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def circle_moment_oracle(a, b):
    # uniform measure on the unit circle, x = cos, y = sin
    if a % 2 or b % 2:
        return 0.0
    return double_factorial(a - 1) * double_factorial(b - 1) / double_factorial(a + b)


def test_circle_moments_match_closed_form(circle):
    for a in range(9):
        for b in range(9 - a):
            got = circle.moment((a, b))
            assert got == pytest.approx(circle_moment_oracle(a, b), abs=1e-12)


def test_circle_moments_are_the_rounded_closed_form():
    # every moment is (a-1)!!(b-1)!!/(a+b)!! (0 for odd a or b), rounded once
    degree = 26
    circle = mvop.circle_functional(max_degree=degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = 0
            if a % 2 == 0 and b % 2 == 0:
                exact = Fraction(
                    double_factorial(a - 1) * double_factorial(b - 1), double_factorial(a + b)
                )
            got = circle.moment((a, b))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(float(exact)).tobytes()


def test_half_circle_moments_match_quadrature(half_circle):
    for a in range(7):
        for b in range(7 - a):
            want, err = integrate.quad(
                lambda t, a=a, b=b: math.cos(t) ** a * math.sin(t) ** b / math.pi,
                0.0,
                math.pi,
            )
            assert err < 1e-7
            assert half_circle.moment((a, b)) == pytest.approx(want, abs=1e-9)


def test_circle_depth_guard(circle):
    assert circle.max_reliable_degree == 18
    with pytest.raises(mvop.DepthExceededError):
        circle.moment((19, 0))


def test_gaussian_moments():
    g = mvop.gaussian_functional()
    for k in range(10):
        assert g.moment((2 * k,)) == double_factorial(2 * k - 1)
        assert g.moment((2 * k + 1,)) == 0
    assert g.exact
    assert g.moment((0,)) == 1


def test_moment_index_validation():
    g = mvop.gaussian_functional()
    with pytest.raises(ValueError):
        g.moment((1, 2))
    with pytest.raises(ValueError):
        g.moment((-1,))


def test_moment_cache_hit_returns_the_cached_value():
    calls = []

    def compute(alpha):
        calls.append(alpha)
        return Fraction(1, 1 + sum(alpha))

    f = mvop.MomentFunctional(2, compute, 4, exact=True, tag="counted")
    first = f.moment([1, 2])
    assert f.moment((1, 2)) is first
    for bad, error in [((1, 2, 0), ValueError), ((-1, 1), ValueError), ((3, 2), mvop.DepthExceededError)]:
        for _ in range(2):
            with pytest.raises(error):
                f.moment(bad)
    # the normalization check, then one computation; bad indices never reach it
    assert calls == [(0, 0), (1, 2)]


def test_discrete_measure_validation():
    F = Fraction
    with pytest.raises(ValueError):
        mvop.DiscreteMeasure(atoms=(), weights=())
    with pytest.raises(ValueError):
        mvop.DiscreteMeasure(atoms=((0, 0), (0, 0)), weights=(F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        mvop.DiscreteMeasure(atoms=((0, 0), (1, 1)), weights=(F(3, 4), F(1, 2)))
    with pytest.raises(ValueError):
        mvop.DiscreteMeasure(atoms=((0, 0), (1, 1)), weights=(F(3, 2), F(-1, 2)))
    with pytest.raises(ValueError):
        mvop.DiscreteMeasure(atoms=((0, 0), (1,)), weights=(F(1, 2), F(1, 2)))
    m = mvop.DiscreteMeasure(atoms=((0.5, 0.25),), weights=(1.0,))
    assert m.dimension == 2
    assert not m.is_exact


def test_discrete_functional_moments(square_fn):
    assert square_fn.moment((0, 0)) == 1
    assert square_fn.moment((2, 2)) == 1
    assert square_fn.moment((1, 0)) == 0
    assert square_fn.moment((3, 1)) == 0
    assert square_fn.moment((4, 0)) == 1
    assert square_fn.exact


def test_product_functional_factorizes(gauss2):
    for a in range(5):
        for b in range(5):
            want = double_factorial(a - 1) * double_factorial(b - 1)
            if a % 2 or b % 2:
                want = 0
            assert gauss2.moment((a, b)) == want


def test_product_functional_mixed_dimensions(circle):
    f = mvop.product_functional((circle, mvop.gaussian_functional()))
    assert f.dimension == 3
    assert f.moment((2, 0, 2)) == pytest.approx(0.5, abs=1e-12)
    assert f.max_reliable_degree == 18


def test_as_float_functional(square_fn):
    ff = as_float_functional(square_fn)
    assert not ff.exact
    assert isinstance(ff.moment((2, 0)), float)
    assert ff.moment((2, 0)) == 1.0


def test_table_functional_requires_all_entries():
    with pytest.raises(mvop.SpecFormatError):
        mvop.table_functional(1, {(0,): 1, (1,): 0}, 2)
    with pytest.raises(mvop.SpecFormatError):
        mvop.table_functional(1, {(0,): 2, (1,): 0, (2,): 1}, 2)
    f = mvop.table_functional(1, {(0,): 1, (1,): 0, (2,): Fraction(1, 2)}, 2)
    assert f.moment((2,)) == Fraction(1, 2)
    with pytest.raises(mvop.DepthExceededError):
        f.moment((3,))


def test_table_functional_checks_every_key():
    entries = {(0,): 1, (1,): 0, (2,): 1}
    for bad in [(-1,), (1, 1), (Fraction(1, 2),)]:
        with pytest.raises(ValueError, match="multi-index"):
            mvop.table_functional(1, {**entries, bad: 5}, 2)


def test_jacobi_pair_validation():
    with pytest.raises(ValueError):
        mvop.JacobiPair1D(omegas=(1, 2), alphas=(0,))
    with pytest.raises(ValueError):
        mvop.JacobiPair1D(omegas=(-1,), alphas=(0,))
    with pytest.raises(ValueError):
        mvop.JacobiPair1D(omegas=(1, 0, 2), alphas=(0, 0, 0))
    pair = mvop.JacobiPair1D(omegas=(1, 0), alphas=(0, 0))
    assert pair.terminated
    assert not mvop.JacobiPair1D(omegas=(1, 2), alphas=(0, 0)).terminated


def test_terminated_pair_extension():
    pair = mvop.JacobiPair1D(
        omegas=(Fraction(1, 2), 0), alphas=(Fraction(1, 2), Fraction(1, 2))
    )
    omegas, alphas = pair.extended(6)
    assert len(omegas) == 6
    assert omegas[2:] == (0, 0, 0, 0)
    assert alphas[:2] == pair.alphas[:2]
    assert alphas[2:] == (0, 0, 0, 0)
    open_pair = mvop.JacobiPair1D(omegas=(1, 2), alphas=(0, 0))
    with pytest.raises(mvop.DepthExceededError):
        open_pair.extended(6)


def jacobi_moment_oracle(omegas, alphas, depth):
    """Spectral oracle: m_j = e0^T J^j e0 for the symmetric Jacobi matrix."""
    size = len(omegas) + 1
    j = np.zeros((size, size))
    for k, a in enumerate(alphas[:size]):
        j[k, k] = float(a)
    for k, w in enumerate(omegas[: size - 1]):
        j[k, k + 1] = j[k + 1, k] = math.sqrt(float(w))
    out = []
    vec = np.zeros(size)
    vec[0] = 1.0
    for _ in range(depth + 1):
        out.append(vec[0])
        vec = j @ vec
    return out


def test_jacobi_to_moments_gaussian():
    pair = mvop.JacobiPair1D(omegas=(1, 2, 3, 4), alphas=(0, 0, 0, 0))
    f = mvop.jacobi_to_moments(pair, 4)
    for k in range(5):
        want = double_factorial(k - 1) if k % 2 == 0 else 0
        assert f.moment((k,)) == want


def test_jacobi_to_moments_point_mass():
    pair = mvop.JacobiPair1D(omegas=(0,), alphas=(Fraction(2, 3),))
    f = mvop.jacobi_to_moments(pair, 5)
    for k in range(6):
        assert f.moment((k,)) == Fraction(2, 3) ** k


def test_jacobi_to_moments_matches_spectral_oracle():
    rng = np.random.default_rng(5)
    for _ in range(8):
        omegas = tuple(Fraction(int(rng.integers(0, 5)), int(rng.integers(1, 4))) for _ in range(4))
        # keep the zero-suffix convention
        omegas = tuple(
            0 if any(w == 0 for w in omegas[: k + 1]) else w
            for k, w in enumerate(omegas)
        )
        alphas = tuple(Fraction(int(rng.integers(-3, 4)), 2) for _ in range(4))
        pair = mvop.JacobiPair1D(omegas=omegas, alphas=alphas)
        f = mvop.jacobi_to_moments(pair, 4)
        want = jacobi_moment_oracle(omegas, alphas, 4)
        for k in range(5):
            assert float(f.moment((k,))) == pytest.approx(want[k], abs=1e-9)


def dense_transfer_moments(pair, depth):
    """m_k as the (0,0) entry of T^k, T the dense truncated transfer matrix."""
    omegas, alphas = pair.extended(depth)
    exact = pair.is_exact
    size = depth + 1
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    t = [[zero] * size for _ in range(size)]
    for k in range(depth):
        t[k][k] = alphas[k] if exact else float(alphas[k])
        t[k + 1][k] = one
        t[k][k + 1] = omegas[k] if exact else float(omegas[k])
    v = [one] + [zero] * depth
    out = []
    for _ in range(depth + 1):
        out.append(v[0])
        v = [sum(t[i][j] * v[j] for j in range(size)) for i in range(size)]
    return out


@pytest.mark.parametrize("depth", [0, 1, 10])
def test_jacobi_to_moments_matches_dense_transfer(depth):
    rng = np.random.default_rng(depth)
    for _ in range(6):
        omegas = tuple(Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 5))) for _ in range(10))
        alphas = tuple(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))) for _ in range(10))
        rational = mvop.JacobiPair1D(omegas, alphas)
        floats = mvop.JacobiPair1D(
            tuple(float(w) * 1.1 for w in omegas), tuple(float(a) - 0.3 for a in alphas)
        )
        for pair in (rational, floats):
            f = mvop.jacobi_to_moments(pair, depth)
            got = [f.moment((k,)) for k in range(depth + 1)]
            want = dense_transfer_moments(pair, depth)
            assert [type(v) for v in got] == [type(v) for v in want]
            if pair.is_exact:
                assert got == want
            else:
                assert np.array(got).tobytes() == np.array(want).tobytes()


def test_jacobi_to_moments_depth_guard():
    pair = mvop.JacobiPair1D(omegas=(1, 1), alphas=(0, 0))
    f = mvop.jacobi_to_moments(pair, 2)
    with pytest.raises(mvop.DepthExceededError):
        f.moment((3,))


def test_normalization_enforced():
    with pytest.raises(mvop.SpecFormatError):
        mvop.MomentFunctional(
            dimension=1,
            compute=lambda alpha: 2,
            max_reliable_degree=4,
            exact=True,
            tag="constant",
        )
