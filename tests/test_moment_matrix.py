"""The moment-matrix formulation against the polynomial-product definitions.

Gram blocks and preservation right-hand sides are assembled from the moment
and localizing matrices; here they are recomputed term by term as
Lambda(c_a c_b) and Lambda(x_i c_a c_b) from the candidate polynomials.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import mvop
from mvop import _linalg
from mvop.gradation import _moment_rows
from reference import expectation, moment_matrix


def _gauss3():
    return mvop.product_functional([mvop.gaussian_functional()] * 3)


def _discrete():
    atoms = ((2, 0), (1, 1), (0, 0), (1, -1), (Fraction(1, 2), Fraction(-3, 4)))
    weights = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4))
    return mvop.discrete_functional(mvop.DiscreteMeasure(atoms=atoms, weights=weights))


CASES = {
    "circle-float": (lambda: mvop.circle_functional(max_degree=16), 7, "float"),
    "gauss3-exact": (_gauss3, 3, "exact"),
    "gauss3-float": (_gauss3, 3, "float"),
    "discrete-exact": (_discrete, 5, "exact"),
    "discrete-float": (_discrete, 4, "float"),
}


def _assert_block_matches(got, left, right, f, exact):
    """got[a, b] == Lambda(left[a] * right[b]).

    Float blocks match within 1e-12 of the block scale: the largest
    l1(left[a]) * l1(right[b]) times the largest moment magnitude involved,
    which bounds the terms a float product sums.
    """
    want = [[expectation(f, p * q) for q in right] for p in left]
    if exact:
        assert got.tolist() == want
        return
    degree = max(p.degree for p in left) + max(q.degree for q in right)
    moment_bound = max(abs(f.moment(a)) for a in mvop.monomials_up_to(f.dimension, degree))
    l1 = [sum(abs(c) for c in p.terms.values()) for p in left + right]
    scale = max(l1[: len(left)]) * max(l1[len(left) :]) * moment_bound
    assert np.max(np.abs(np.asarray(got, dtype=float) - np.array(want, dtype=float))) <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(CASES))
def test_blocks_match_polynomial_products(name):
    make, depth, mode = CASES[name]
    g = mvop.build_gradations(make(), depth, mode=mode)
    fock = mvop.assemble_fock(g)
    f, d = g.functional, g.dimension
    for lev in g.levels:
        cands = lev.candidates
        _assert_block_matches(lev.gram, cands, cands, f, g.exact)
        for i in range(d):
            # G_n A_i^0 is the preservation right-hand side on the Gram range,
            # which holds all of it for moment-born data
            lifted = _linalg.matmul(lev.gram, fock.azero[i][lev.degree])
            x = mvop.Polynomial.variable(d, i)
            _assert_block_matches(lifted, [x * c for c in cands], cands, f, g.exact)


def test_moment_matrix_layout():
    f = _discrete()
    monos = mvop.monomials_up_to(2, 3)
    hankel = moment_matrix(f, 3)
    localizing = moment_matrix(f, 3, (0, 1))
    assert hankel.shape == localizing.shape == (len(monos), len(monos))
    for r, a in enumerate(monos):
        for c, b in enumerate(monos):
            assert hankel[r, c] == f.moment((a[0] + b[0], a[1] + b[1]))
            assert localizing[r, c] == f.moment((a[0] + b[0], a[1] + b[1] + 1))
    float_hankel = moment_matrix(mvop.as_float_functional(f), 3)
    assert float_hankel.dtype == np.float64


@pytest.mark.parametrize("lo", [0, 1, 2])
def test_moment_rows_are_the_cleared_rows(lo):
    # clearing each distinct moment once and spreading the numerators gives
    # the pair of the rows of degree lo..4 of the moment matrix, over its
    # columns of degree <= 3: the same numerators over the same denominator
    f = _discrete()
    first, columns = len(mvop.monomials_up_to(2, lo - 1)), len(mvop.monomials_up_to(2, 3))
    got = _moment_rows(f, lo, 4, 3)
    want = _linalg.cleared(moment_matrix(f, 4)[first:, :columns])
    assert got.den == want.den and got.num.tolist() == want.num.tolist()
    assert all(type(v) is int for v in got.num.flat)
    float_f = mvop.as_float_functional(f)
    float_want = moment_matrix(float_f, 4)[first:, :columns]
    assert _moment_rows(float_f, lo, 4, 3).tobytes() == float_want.tobytes()


def test_exact_matmul_matches_fraction_products():
    rng = random.Random(7)

    def rational_matrix(rows, cols):
        out = np.empty((rows, cols), dtype=object)
        for idx in np.ndindex(rows, cols):
            out[idx] = rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
        return out

    a, b, c = rational_matrix(4, 3), rational_matrix(3, 5), rational_matrix(5, 2)
    got = _linalg.matmul(a, b, c)
    assert got.dtype == object
    assert got.tolist() == (a @ b @ c).tolist()
    assert all(isinstance(v, Fraction) for v in got.flat)
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(_linalg.matmul(x, x.T), x @ x.T)
