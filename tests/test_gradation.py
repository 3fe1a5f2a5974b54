from fractions import Fraction

import numpy as np
import pytest

import mvop
from mvop import _linalg
from mvop.gradation import index_weight
from reference import expectation


def test_index_weight():
    assert index_weight((2, 0)) == 1
    assert index_weight((1, 1)) == Fraction(1, 2)
    assert index_weight((2, 1)) == Fraction(1, 3)
    assert index_weight((1, 1, 1)) == Fraction(1, 6)
    assert index_weight((0, 0)) == 1


def test_circle_form_generators(circle_gradation):
    omega1 = circle_gradation.level(1).omega()
    omega2 = circle_gradation.level(2).omega()
    want1 = np.array([[0.5, 0.0], [0.0, 0.5]])
    want2 = np.array([[1, 0, -1], [0, 2, 0], [-1, 0, 1]]) / 8.0
    assert np.max(np.abs(omega1 - want1)) <= 1e-10
    assert np.max(np.abs(omega2 - want2)) <= 1e-10


def test_circle_gram_level_two(circle_gradation):
    want = np.array([[1, 0, -1], [0, 1, 0], [-1, 0, 1]]) / 8.0
    assert np.max(np.abs(circle_gradation.level(2).gram - want)) <= 1e-10


def test_circle_omega_is_weighted_gram(circle_gradation):
    lev = circle_gradation.level(3)
    weights = [float(index_weight(a)) for a in lev.monomials]
    rebuilt = np.diag([1.0 / w for w in weights]) @ lev.gram
    assert np.max(np.abs(lev.omega() - rebuilt)) <= 1e-14


def test_circle_ranks(circle_gradation):
    table = circle_gradation.dimension_table()
    assert [row[0] for row in table] == list(range(9))
    assert [row[2] for row in table] == [1] + [2] * 8
    assert [row[1] for row in table] == list(range(1, 10))


def test_square_is_exact(square_gradation):
    assert square_gradation.exact
    assert square_gradation.mode == "exact"
    g2 = square_gradation.level(2).gram
    assert g2.tolist() == [
        [0, 0, 0],
        [0, 1, 0],
        [0, 0, 0],
    ]
    assert [lev.rank for lev in square_gradation.levels] == [1, 2, 1, 0]


def test_square_float_mode(square_fn):
    g = mvop.build_gradations(square_fn, 3, mode="float")
    assert g.mode == "float"
    assert not g.exact
    assert g.level(1).gram.dtype == np.float64
    assert [lev.rank for lev in g.levels] == [1, 2, 1, 0]


def test_cross_level_orthogonality_float(circle_gradation):
    for m in range(3):
        for n in range(m + 1, 4):
            for u in circle_gradation.level(m).ortho_basis():
                for v in circle_gradation.level(n).ortho_basis():
                    assert abs(expectation(circle_gradation.functional, u * v)) <= 1e-12


def test_cross_level_orthogonality_exact(square_gradation):
    for m in range(3):
        for n in range(m + 1, 4):
            for u in square_gradation.level(m).ortho_basis():
                for v in square_gradation.level(n).ortho_basis():
                    assert expectation(square_gradation.functional, u * v) == 0


def test_single_atom_rank_collapse():
    m = mvop.DiscreteMeasure(atoms=((Fraction(1, 2), 3),), weights=(1,))
    g = mvop.build_gradations(mvop.discrete_functional(m), 2)
    assert [lev.rank for lev in g.levels] == [1, 0, 0]
    assert g.level(1).nullity == 2


def test_non_psd_table_rejected():
    f = mvop.table_functional(1, {(0,): 1, (1,): 0, (2,): -1}, 2)
    with pytest.raises(mvop.InconsistentMomentsError):
        mvop.build_gradations(f, 1)


def test_depth_guard(circle):
    with pytest.raises(mvop.DepthExceededError):
        mvop.build_gradations(circle, 10)


def test_candidates_are_monic_in_leading_monomial(circle_gradation):
    # candidate for alpha is x^alpha minus lower-degree corrections
    for n in range(4):
        lev = circle_gradation.level(n)
        for alpha, cand in zip(lev.monomials, lev.candidates):
            assert cand.terms.get(alpha, 0) == pytest.approx(1.0)
            assert cand.degree == n


def test_mode_validation(square_fn):
    with pytest.raises(ValueError):
        mvop.build_gradations(square_fn, 2, mode="symbolic")


@pytest.mark.parametrize("name, depth", [("circle", 8), ("half_circle", 7), ("square_fn", 3)])
def test_level_split_is_the_split_of_the_stored_gram(request, name, depth):
    # no Gram is rewritten after its rank decision
    g = mvop.build_gradations(request.getfixturevalue(name), depth)
    assert any(lev.nullity for lev in g.levels)
    for lev in g.levels:
        again = _linalg.split_gram(lev.gram, exact=g.exact, tol_rank=g.tol.rank, tol_psd=g.tol.psd)
        for field in ("combos", "norms2", "null"):
            mine, theirs = getattr(lev.split, field), getattr(again, field)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            if g.exact:
                assert mine.tolist() == theirs.tolist()
            else:
                assert np.array_equal(mine, theirs)
