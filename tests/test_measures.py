import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

import mvop
from mvop.measures import as_float_functional
from reference import discrete_moment, float_jacobi_moments, product_moment


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


def typed(v):
    """(type, value), with a float by its bits."""
    return (type(v), v.hex() if isinstance(v, float) else v)


def random_rational(rng, lo, hi, max_den):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_factor(rng, kind):
    """A 1-D exact factor: a Gaussian, a rational recurrence to degree 10, or a 3..6-atom rational measure."""
    if kind == "gaussian":
        return mvop.gaussian_functional()
    if kind == "jacobi":
        omegas = tuple(random_rational(rng, 1, 9, 4) for _ in range(10))
        alphas = tuple(random_rational(rng, -4, 4, 4) for _ in range(10))
        return mvop.jacobi_to_moments(mvop.JacobiPair1D(omegas, alphas), 10)
    k = rng.randint(3, 6)
    atoms = set()
    while len(atoms) < k:
        atoms.add(random_rational(rng, -8, 8, 4))
    raw = [rng.randint(1, 9) for _ in range(k)]
    weights = tuple(Fraction(w, sum(raw)) for w in raw)
    return mvop.discrete_functional(mvop.DiscreteMeasure(tuple((a,) for a in sorted(atoms)), weights))


def assert_moments_match(f, reference, degree=10):
    for alpha in mvop.monomials_up_to(f.dimension, degree):
        assert typed(f.moment(alpha)) == typed(reference(alpha)), alpha


def test_exact_product_moments_match_the_product_in_order():
    rng = random.Random(3535)
    for _ in range(12):
        factors = [random_factor(rng, rng.choice(("gaussian", "jacobi", "discrete"))) for _ in range(3)]
        f = mvop.product_functional(factors)
        assert f.exact
        assert_moments_match(f, lambda alpha: product_moment(factors, alpha))
    # a 2-D discrete factor, an int-valued one and a Fraction-valued one
    F = Fraction
    plane = mvop.DiscreteMeasure(((F(1, 2), 3), (-2, F(5, 3)), (0, 1)), (F(1, 6), F(1, 2), F(1, 3)))
    plane = mvop.discrete_functional(plane)
    point = mvop.discrete_functional(mvop.DiscreteMeasure(((2, -3),), (1,)))
    jacobi = mvop.jacobi_to_moments(mvop.JacobiPair1D((F(1, 2),) * 10, (F(-1, 3),) * 10), 10)
    gaussian = mvop.gaussian_functional()
    for factors in ([plane, gaussian], [gaussian, point], [point, jacobi, plane]):
        f = mvop.product_functional(factors)
        assert_moments_match(f, lambda alpha: product_moment(factors, alpha))
    # every factor value an int gives ints
    f = mvop.product_functional([point, gaussian])
    assert all(type(f.moment(alpha)) is int for alpha in mvop.monomials_up_to(3, 10))


def test_exact_discrete_moments_match_the_atom_by_atom_sum():
    F = Fraction
    rng = random.Random(3536)
    measures = [
        mvop.DiscreteMeasure(((7,),), (1,)),
        mvop.DiscreteMeasure(((2, -3, 0),), (1,)),
        mvop.DiscreteMeasure(((F(1, 2), 3),), (1,)),
        mvop.DiscreteMeasure(((F(4, 2), 3),), (F(1),)),
        mvop.DiscreteMeasure(((1, 1), (-1, 1), (-1, -1), (1, -1)), (F(1, 4),) * 4),
        mvop.DiscreteMeasure(((0, F(-2, 3), 5), (1, 1, F(1, 7))), (F(2, 5), F(3, 5))),
    ]
    for d in (1, 2, 3):
        for _ in range(4):
            k = rng.randint(1, 5)
            atoms = set()
            while len(atoms) < k:
                point = [random_rational(rng, -8, 8, 4) if rng.random() < 0.7 else rng.randint(-3, 3) for _ in range(d)]
                atoms.add(tuple(point))
            raw = [rng.randint(1, 9) for _ in range(k)]
            measures.append(mvop.DiscreteMeasure(tuple(atoms), tuple(F(w, sum(raw)) for w in raw)))
    for m in measures:
        f = mvop.discrete_functional(m)
        assert f.exact
        assert_moments_match(f, lambda alpha: discrete_moment(m, alpha))
    # a single int atom of weight 1 has int moments; a Fraction coordinate
    # makes a Fraction exactly where its exponent is positive
    f = mvop.discrete_functional(measures[2])
    assert type(f.moment((0, 2))) is int and type(f.moment((1, 0))) is Fraction


def test_float_and_mixed_product_moments_are_the_product_in_order(circle):
    F = Fraction
    square = mvop.discrete_functional(mvop.DiscreteMeasure(((F(1, 3), -2), (F(1, 4), 1)), (F(1, 3), F(2, 3))))
    float_measure = mvop.DiscreteMeasure(((0.5, 0.25), (1.5, -2.0)), (0.25, 0.75))
    floats = mvop.discrete_functional(float_measure)
    assert_moments_match(floats, lambda alpha: discrete_moment(float_measure, alpha))
    gaussian = mvop.gaussian_functional()
    products = [[circle, gaussian], [gaussian, circle], [square, circle, gaussian], [floats, square]]
    for factors in products + [[as_float_functional(square), gaussian]]:
        f = mvop.product_functional(factors)
        assert not f.exact
        assert_moments_match(f, lambda alpha: product_moment(factors, alpha))


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


def test_float_jacobi_to_moments_is_the_list_recursion():
    # entries from 1e-300 to 1e300 of both signs, signed zeros, and
    # terminated pairs padded past their length: bit for bit
    rng = random.Random(3000)

    def entry():
        if rng.random() < 0.1:
            return rng.choice((0.0, -0.0))
        return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300, 300)

    terminated = 0
    for _ in range(400):
        n = rng.randint(1, 30)
        omegas = [abs(entry()) or 1.0 for _ in range(n)]
        if rng.random() < 0.3:
            stop = rng.randint(0, n - 1)
            omegas[stop:] = [rng.choice((0.0, -0.0)) for _ in omegas[stop:]]
        pair = mvop.JacobiPair1D(tuple(omegas), tuple(entry() for _ in range(n)))
        depth = rng.randint(0, 30) if pair.terminated else rng.randint(0, n)
        terminated += pair.terminated and depth > n
        f = mvop.jacobi_to_moments(pair, depth)
        got = [f.moment((k,)) for k in range(depth + 1)]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(float_jacobi_moments(pair, depth)).tobytes()
    assert terminated > 20


def fraction_loop_moments(pair, depth):
    """The exact recurrence on Fractions, row i adding v[i-1], alpha_i v[i] and omega_i v[i+1]."""
    omegas, alphas = pair.extended(depth)
    v = [Fraction(1)] + [Fraction(0)] * depth
    moments = [v[0]]
    for _ in range(depth):
        v = [
            sum(([v[i - 1]] if i else []) + ([alphas[i] * v[i], omegas[i] * v[i + 1]] if i < depth else []))
            for i in range(depth + 1)
        ]
        moments.append(v[0])
    return moments


def test_exact_jacobi_to_moments_matches_the_fraction_loop():
    # int and Fraction coefficients, terminated pairs padded past their length
    rng = np.random.default_rng(4040)
    terminated = 0
    for _ in range(200):
        n = int(rng.integers(0, 9))
        omegas = [Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 8))) for _ in range(n)]
        if n and rng.random() < 0.4:
            cut = int(rng.integers(0, n))
            omegas = omegas[:cut] + [0] * (n - cut)
        alphas = [
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
            if rng.random() < 0.7
            else int(rng.integers(-3, 4))
            for _ in range(n)
        ]
        pair = mvop.JacobiPair1D(tuple(omegas), tuple(alphas))
        depth = int(rng.integers(0, n + 6)) if pair.terminated else int(rng.integers(0, n + 1))
        terminated += pair.terminated and depth > n
        f = mvop.jacobi_to_moments(pair, depth)
        got = [f.moment((k,)) for k in range(depth + 1)]
        want = fraction_loop_moments(pair, depth)
        assert got == want
        assert all(type(v) is Fraction for v in got)
    assert terminated > 20


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
