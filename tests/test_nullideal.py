from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvop
from mvop.nullideal import _monic, _new_kernel_directions


def moment_matrix_ranks(functional, n_max, tol=1e-8):
    """Oracle: rank increments of the truncated moment matrices."""
    ranks = []
    prev = 0
    for n in range(n_max + 1):
        rows = mvop.monomials_up_to(functional.dimension, n)
        m = np.array(
            [
                [
                    float(functional.moment(tuple(a + b for a, b in zip(r, c))))
                    for c in rows
                ]
                for r in rows
            ]
        )
        rank = int(np.linalg.matrix_rank(m, tol=tol))
        ranks.append(rank - prev)
        prev = rank
    return ranks


def coefficient_vector(poly, degree):
    return np.array(
        [float(poly.terms.get(a, 0)) for a in mvop.monomials_up_to(poly.dimension, degree)]
    )


def in_span(poly, basis_polys, degree, tol=1e-9):
    if not basis_polys:
        return False
    a = np.column_stack([coefficient_vector(q, degree) for q in basis_polys])
    b = coefficient_vector(poly, degree)
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(np.max(np.abs(a @ coef - b))) <= tol


def test_rank_sequence_circle(circle_gradation):
    rs = mvop.rank_sequence(circle_gradation)
    assert rs.dims == tuple(range(1, 10))
    assert rs.ranks == (1,) + (2,) * 8
    assert rs.nullities == (0, 0) + tuple(range(1, 8))
    assert rs.has_deficiency
    assert rs.first_deficient_degree == 2


def test_rank_sequence_matches_moment_matrix_oracle(circle, skew_fn):
    g = mvop.build_gradations(circle, 4)
    assert list(mvop.rank_sequence(g).ranks) == moment_matrix_ranks(circle, 4)
    g2 = mvop.build_gradations(skew_fn, 3)
    assert list(mvop.rank_sequence(g2).ranks) == moment_matrix_ranks(skew_fn, 3)


def test_circle_single_generator(circle_gradation):
    polys = mvop.null_polynomials(circle_gradation, 2)
    assert len(polys) == 1
    gen = polys[0]
    want = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}
    assert set(gen.terms) == set(want)
    for alpha, coeff in want.items():
        assert gen.terms[alpha] == pytest.approx(coeff, abs=1e-9)


def test_null_polynomials_are_monic(circle_gradation, square_gradation):
    for g in (circle_gradation, square_gradation):
        for n in range(g.max_degree + 1):
            for f in mvop.null_polynomials(g, n):
                lead = max(f.terms, key=lambda a: (sum(a), a))
                assert f.terms[lead] == 1


def test_square_generators(square_gradation):
    basis = mvop.base_generators(square_gradation)
    assert len(basis.generators) == 2
    terms = sorted(tuple(sorted(f.terms.items())) for f in basis.generators)
    assert terms == [
        (((0, 0), Fraction(-1)), ((0, 2), Fraction(1))),
        (((0, 0), Fraction(-1)), ((2, 0), Fraction(1))),
    ]
    assert basis.by_degree.keys() == {2}


def test_square_reduction_log_absorbs_degree_three(square_gradation):
    basis = mvop.base_generators(square_gradation)
    by_degree = {entry["degree"]: entry for entry in basis.reduction_log}
    assert by_degree[2] == {"degree": 2, "kernel": 2, "inherited": 0, "new": 2}
    assert by_degree[3] == {"degree": 3, "kernel": 4, "inherited": 4, "new": 0}


def test_circle_inheritance_absorbs_higher_degrees(circle_gradation):
    basis = mvop.base_generators(circle_gradation)
    assert len(basis.generators) == 1
    for entry in basis.reduction_log:
        if entry["degree"] == 2:
            assert entry["new"] == 1
        else:
            assert entry["new"] == 0
            assert entry["inherited"] == entry["kernel"]


def test_diamond_two_generators(diamond_fn):
    g = mvop.build_gradations(diamond_fn, 3)
    basis = mvop.base_generators(g)
    assert sorted(f.degree for f in basis.generators) == [2, 2]
    x = mvop.Polynomial.variable(2, 0)
    y = mvop.Polynomial.variable(2, 1)
    assert in_span(x * y, basis.by_degree[2], 2, tol=1e-12)
    assert in_span(x * x + y * y - 1, basis.by_degree[2], 2, tol=1e-12)


def test_support_membership(circle_gradation, square_gradation, square_measure):
    circle_basis = mvop.base_generators(circle_gradation)
    assert mvop.support_membership(circle_basis, (0.6, 0.8))
    assert mvop.support_membership(circle_basis, (-1.0, 0.0))
    assert not mvop.support_membership(circle_basis, (0.0, 0.0))
    assert not mvop.support_membership(circle_basis, (1.0, 1.0))
    square_basis = mvop.base_generators(square_gradation)
    for atom in square_measure.atoms:
        assert mvop.support_membership(square_basis, atom)
    assert not mvop.support_membership(square_basis, (0, 0))


def test_deficiency_iff_nonempty_kernel(
    circle_gradation, square_gradation, half_circle, gauss2, sine_table
):
    cases = [
        (circle_gradation, True),
        (square_gradation, True),
        (mvop.build_gradations(half_circle, 3), True),
        (mvop.build_gradations(gauss2, 4), False),
        (mvop.build_gradations(sine_table, 4), False),
    ]
    for g, deficient in cases:
        rs = mvop.rank_sequence(g)
        assert rs.has_deficiency is deficient
        if deficient:
            first = rs.first_deficient_degree
            assert mvop.null_polynomials(g, first)
        else:
            assert rs.first_deficient_degree is None
            for n in range(g.max_degree + 1):
                assert mvop.null_polynomials(g, n) == []
            assert mvop.base_generators(g).generators == []


def test_level_surface_polynomial_in_null_span(circle_gradation, half_circle, skew_fn):
    x = mvop.Polynomial.variable(2, 0)
    y = mvop.Polynomial.variable(2, 1)
    circle_poly = x * x + y * y - 1
    assert in_span(circle_poly, mvop.null_polynomials(circle_gradation, 2), 2)
    half = mvop.build_gradations(half_circle, 3)
    assert in_span(circle_poly, mvop.null_polynomials(half, 2), 2)
    # the four skew points lie on the conics x^2 + y^2 - 2x and xy - y
    skew = mvop.build_gradations(skew_fn, 3)
    assert in_span(x * x + y * y - 2 * x, mvop.null_polynomials(skew, 2), 2)
    assert in_span(x * y - y, mvop.null_polynomials(skew, 2), 2)


def test_cylinder_ranks_match_oracle(cylinder):
    g = mvop.build_gradations(cylinder, 4)
    ranks = list(mvop.rank_sequence(g).ranks)
    oracle = moment_matrix_ranks(cylinder, 4)
    assert ranks == oracle
    assert oracle == [1] + [2 * n + 1 for n in range(1, 5)]
    for n in range(1, 5):
        assert ranks[n] != 2 * (2 * n + 1)


def test_rank_sequence_fields(square_gradation):
    rs = mvop.rank_sequence(square_gradation)
    assert rs.degrees == (0, 1, 2, 3)
    assert rs.dims == (1, 2, 3, 4)
    assert rs.ranks == (1, 2, 1, 0)
    assert rs.nullities == (0, 0, 2, 4)


def ref_base_generators(g):
    """Exact generators with the inherited directions at degree n built as the
    top coefficients of x^beta * gen, for every earlier generator gen of degree
    m and every monomial x^beta of degree n - m."""
    d = g.dimension
    generators, log = [], []
    for n in range(g.max_degree + 1):
        lev = g.level(n)
        kernel = lev.split.null
        if kernel.shape[1] == 0:
            continue
        columns = [
            (mvop.Polynomial.monomial(beta) * gen).top_homogeneous(n)
            for m, gen in generators
            for beta in mvop.monomials_of_degree(d, n - m)
        ]
        inherited = np.array(columns, dtype=object).reshape(len(columns), lev.dimension).T
        new_dirs = _new_kernel_directions(kernel, inherited, True, 0)
        fresh = [_monic(f) for f in lev.combine(new_dirs)]
        generators += [(n, f) for f in fresh]
        nu = kernel.shape[1]
        log.append({"degree": n, "kernel": nu, "inherited": nu - len(fresh), "new": len(fresh)})
    return [f for _, f in generators], log


def assert_generators_match_reference(functional, depth):
    g = mvop.build_gradations(functional, depth)
    assert g.exact
    basis = mvop.base_generators(g)
    generators, log = ref_base_generators(g)
    assert basis.reduction_log == log
    assert [f.terms for f in basis.generators] == [f.terms for f in generators]
    assert [f.degree for f in basis.generators] == [f.degree for f in generators]


SIX_POINTS_3D = mvop.DiscreteMeasure(
    atoms=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 1, 1), (1, 2, 0)),
    weights=tuple(Fraction(k, 8) for k in (2, 1, 1, 2, 1, 1)),
)


@pytest.mark.parametrize("name", ["square_fn", "skew_fn", "diamond_fn", "six_points_3d"])
def test_inherited_directions_match_generator_products(request, name):
    if name == "six_points_3d":
        functional, depth = mvop.discrete_functional(SIX_POINTS_3D), 3
    else:
        functional, depth = request.getfixturevalue(name), 4
    assert_generators_match_reference(functional, depth)


small_rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def rational_measures(draw):
    d = draw(st.sampled_from([2, 3]))
    atoms = draw(
        st.lists(st.tuples(*[small_rationals] * d), min_size=1, max_size=8, unique=True)
    )
    raw = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
    weights = tuple(Fraction(r, sum(raw)) for r in raw)
    return mvop.DiscreteMeasure(atoms=tuple(atoms), weights=weights)


@settings(max_examples=40, deadline=None)
@given(rational_measures())
def test_inherited_directions_match_generator_products_random(measure):
    depth = 4 if measure.dimension == 2 else 3
    assert_generators_match_reference(mvop.discrete_functional(measure), depth)
