import math
import random
from fractions import Fraction

import numpy as np
import pytest

import mvop


def chebyshev_coefficients(n_max):
    """Integer recursion T_{n+1} = 2 x T_n - T_{n-1} (ascending power lists)."""
    polys = [[1], [0, 1]]
    while len(polys) <= n_max:
        prev, cur = polys[-2], polys[-1]
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        polys.append(nxt)
    return polys


def monic_from_pair(pair, n_max):
    x = mvop.Polynomial.variable(1, 0)
    ps = [mvop.Polynomial.one(1)]
    if n_max >= 1:
        ps.append(x - pair.alphas[0])
    for k in range(1, n_max):
        ps.append((x - pair.alphas[k]) * ps[k] - pair.omegas[k - 1] * ps[k - 1])
    return ps


def test_marginal_spec_validation(circle):
    with pytest.raises(ValueError):
        mvop.MarginalSpec(source=circle, coords=())
    with pytest.raises(ValueError):
        mvop.MarginalSpec(source=circle, coords=(1, 0))
    with pytest.raises(ValueError):
        mvop.MarginalSpec(source=circle, coords=(0, 0))
    with pytest.raises(ValueError):
        mvop.MarginalSpec(source=circle, coords=(2,))
    with pytest.raises(ValueError):
        mvop.MarginalSpec(source=circle, coords=(-1,))


def test_arcsine_moments(circle):
    f = mvop.marginal_functional(mvop.MarginalSpec(source=circle, coords=(0,)))
    assert f.dimension == 1
    for k in range(9):
        want = math.comb(2 * k, k) / 4.0**k
        assert f.moment((2 * k,)) == pytest.approx(want, abs=1e-12)
        if 2 * k + 1 <= 18:
            assert f.moment((2 * k + 1,)) == pytest.approx(0.0, abs=1e-15)


def test_arcsine_recurrence(circle):
    f = mvop.marginal_functional(mvop.MarginalSpec(source=circle, coords=(0,)))
    pair = mvop.jacobi_1d(f, 6)
    want = (0.5, 0.25, 0.25, 0.25, 0.25, 0.25)
    for got, expected in zip(pair.omegas, want):
        assert got == pytest.approx(expected, abs=1e-9)
    for a in pair.alphas:
        assert a == pytest.approx(0.0, abs=1e-9)


def test_arcsine_polynomials_are_monic_chebyshev(circle):
    f = mvop.marginal_functional(mvop.MarginalSpec(source=circle, coords=(0,)))
    pair = mvop.jacobi_1d(f, 8)
    ps = monic_from_pair(pair, 8)
    cheb = chebyshev_coefficients(8)
    for n in range(1, 9):
        assert cheb[n][-1] == 2 ** (n - 1)
        want = [c / 2 ** (n - 1) for c in cheb[n]]
        got = [float(ps[n].terms.get((j,), 0)) for j in range(n + 1)]
        assert got == pytest.approx(want, abs=1e-9)


def test_skew_marginal_exact(skew_fn):
    spec = mvop.MarginalSpec(source=skew_fn, coords=(0,))
    f = mvop.marginal_functional(spec)
    assert f.exact
    assert f.moment((1,)) == 1
    # the x-marginal is the three-point measure (0, 1, 2) with weights 1/4, 1/2, 1/4
    direct = mvop.discrete_functional(
        mvop.DiscreteMeasure(
            atoms=((0,), (1,), (2,)),
            weights=(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
        )
    )
    for j in range(9):
        assert f.moment((j,)) == direct.moment((j,))
    pair = mvop.jacobi_1d(f, 3)
    assert pair.omegas == (Fraction(1, 2), Fraction(1, 2), 0)
    assert pair.alphas == (1, 1, 1)
    assert pair.terminated


def test_skew_marginal_float_termination(skew_fn):
    f = mvop.marginal_functional(mvop.MarginalSpec(source=skew_fn, coords=(0,)))
    pair = mvop.jacobi_1d(f, 4, mode="float")
    assert pair.omegas[0] == pytest.approx(0.5, abs=1e-12)
    assert pair.omegas[1] == pytest.approx(0.5, abs=1e-12)
    assert pair.omegas[2] == 0
    assert pair.omegas[3] == 0
    assert pair.terminated


def marginal_omega(spec, degree):
    """Form generator of the marginal functional at one degree."""
    return mvop.build_gradations(mvop.marginal_functional(spec), degree).level(degree).omega()


def test_skew_marginal_omegas(skew_fn):
    spec = mvop.MarginalSpec(source=skew_fn, coords=(0,))
    assert marginal_omega(spec, 1).tolist() == [[Fraction(1, 2)]]
    assert marginal_omega(spec, 2).tolist() == [[Fraction(1, 4)]]


def test_circle_marginal_omega(circle):
    spec = mvop.MarginalSpec(source=circle, coords=(0,))
    omega2 = marginal_omega(spec, 2)
    assert omega2.shape == (1, 1)
    assert omega2[0, 0] == pytest.approx(0.125, abs=1e-12)


def test_full_coordinate_marginal_is_identity(skew_fn):
    f = mvop.marginal_functional(mvop.MarginalSpec(source=skew_fn, coords=(0, 1)))
    for a in range(5):
        for b in range(5 - a):
            assert f.moment((a, b)) == skew_fn.moment((a, b))
    assert "marginal" in f.tag


def test_gaussian_marginal_recurrence(gauss2):
    f = mvop.marginal_functional(mvop.MarginalSpec(source=gauss2, coords=(1,)))
    pair = mvop.jacobi_1d(f, 5)
    assert pair.is_exact
    assert pair.omegas == (1, 2, 3, 4, 5)
    assert pair.alphas == (0, 0, 0, 0, 0)


def test_cylinder_marginal_recovers_circle(cylinder, circle_gradation):
    spec = mvop.MarginalSpec(source=cylinder, coords=(0, 1))
    for n in (1, 2):
        got = marginal_omega(spec, n)
        want = circle_gradation.level(n).omega()
        assert np.max(np.abs(got - want)) <= 1e-12


def test_jacobi_round_trip_arcsine(circle):
    f = mvop.marginal_functional(mvop.MarginalSpec(source=circle, coords=(0,)))
    pair = mvop.jacobi_1d(f, 6)
    back = mvop.jacobi_to_moments(pair, 6)
    for j in range(7):
        assert back.moment((j,)) == pytest.approx(f.moment((j,)), abs=1e-12)


def test_jacobi_round_trip_terminated(skew_fn):
    f = mvop.marginal_functional(mvop.MarginalSpec(source=skew_fn, coords=(0,)))
    pair = mvop.jacobi_1d(f, 3)
    back = mvop.jacobi_to_moments(pair, 8)
    for j in range(9):
        assert back.moment((j,)) == f.moment((j,))


def test_jacobi_1d_input_validation(circle):
    with pytest.raises(ValueError):
        mvop.jacobi_1d(circle, 3)
    f = mvop.marginal_functional(mvop.MarginalSpec(source=circle, coords=(0,)))
    with pytest.raises(mvop.DepthExceededError):
        mvop.jacobi_1d(f, 10)
    bad = mvop.table_functional(1, {(0,): 1, (1,): 0, (2,): -1}, 2)
    with pytest.raises(mvop.InconsistentMomentsError):
        mvop.jacobi_1d(bad, 1)


def random_recurrence(rng, length):
    """Positive rational omegas, ending in zeros in about a third of the draws, and rational alphas."""
    omegas = [Fraction(rng.randint(1, 9), rng.randint(1, 8)) for _ in range(length)]
    if length and rng.random() < 0.35:
        cut = rng.randrange(length)
        omegas[cut:] = [0] * (length - cut)
    alphas = [Fraction(rng.randint(-4, 4), rng.randint(1, 8)) for _ in range(length)]
    return mvop.JacobiPair1D(tuple(omegas), tuple(alphas))


def stieltjes_on_atoms(atoms, weights, depth):
    """Monic recurrence of a discrete measure, from its orthogonal polynomials' values on the atoms."""
    omegas, alphas = [], []
    prev, cur, omega, norm = [0] * len(atoms), [1] * len(atoms), 0, Fraction(1)
    for _ in range(depth):
        alpha = sum(w * x * p * p for w, x, p in zip(weights, atoms, cur)) / norm
        alphas.append(alpha)
        nxt = [(x - alpha) * p - omega * q for x, p, q in zip(atoms, cur, prev)]
        nxt_norm = sum(w * p * p for w, p in zip(weights, nxt))
        if nxt_norm == 0:
            break
        omega = nxt_norm / norm
        omegas.append(omega)
        prev, cur, norm = cur, nxt, nxt_norm
    return (
        tuple(omegas) + (0,) * (depth - len(omegas)),
        tuple(alphas) + (0,) * (depth - len(alphas)),
    )


def assert_exact_pair(pair, omegas, alphas):
    """Equal values; computed entries are Fractions, the zeros after a vanishing norm are ints."""
    assert pair.omegas == omegas and pair.alphas == alphas
    computed = next((k for k, w in enumerate(pair.omegas) if w == 0), len(pair.omegas))
    assert all(type(w) is Fraction for w in pair.omegas[:computed])
    assert all(type(a) is Fraction for a in pair.alphas[: computed + 1])
    assert all(type(v) is int and v == 0 for v in pair.omegas[computed:])
    assert all(type(v) is int and v == 0 for v in pair.alphas[computed + 1 :])


@pytest.mark.parametrize("depth", range(13))
def test_exact_recurrence_round_trip(depth):
    rng = random.Random(1000 + depth)
    for _ in range(6):
        given = random_recurrence(rng, 2 * depth)
        pair = mvop.jacobi_1d(mvop.jacobi_to_moments(given, 2 * depth), depth)
        cut = next((k for k, w in enumerate(given.omegas[:depth]) if w == 0), depth)
        want_alphas = given.alphas[: cut + 1][:depth] + (0,) * (depth - cut - 1)
        assert_exact_pair(pair, given.omegas[:depth], want_alphas)

    for _ in range(6):
        count = rng.randint(1, 8)
        atoms = sorted({Fraction(rng.randint(-256, 256), rng.randint(1, 128)) for _ in range(count)})
        raw = [rng.randint(1, 9) for _ in atoms]
        weights = [Fraction(r, sum(raw)) for r in raw]
        f = mvop.discrete_functional(
            mvop.DiscreteMeasure(tuple((a,) for a in atoms), tuple(weights))
        )
        pair = mvop.jacobi_1d(f, depth)
        assert_exact_pair(pair, *stieltjes_on_atoms(atoms, weights, depth))
        back = mvop.jacobi_to_moments(pair, depth)
        assert all(back.moment((j,)) == f.moment((j,)) for j in range(depth + 1))


@pytest.mark.parametrize("depth, bound", [(13, 1e-8), (14, 5e-8)])
def test_arcsine_recurrence_float_accuracy(depth, bound):
    circle = mvop.circle_functional(max_degree=28)
    f = mvop.marginal_functional(mvop.MarginalSpec(source=circle, coords=(0,)))
    pair = mvop.jacobi_1d(f, depth)
    want = (0.5,) + (0.25,) * (depth - 1)
    assert max(abs(w - v) for w, v in zip(pair.omegas, want)) <= bound
    assert max(abs(a) for a in pair.alphas) <= bound


def test_arcsine_recurrence_is_the_closed_form_in_float():
    # correctly rounded moments give every coefficient exactly, up to the
    # depth where the squared norm 2^-35 meets the float null cutoff
    circle = mvop.circle_functional(max_degree=34)
    f = mvop.marginal_functional(mvop.MarginalSpec(source=circle, coords=(0,)))
    pair = mvop.jacobi_1d(f, 17)
    assert pair.omegas == (0.5,) + (0.25,) * 16
    assert pair.alphas == (0.0,) * 17
