from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvop.polynomial import (
    Polynomial,
    graded_lex_key,
    monomials_of_degree,
    monomials_up_to,
    space_dimension,
)

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
indices = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
polys = st.dictionaries(indices, coeffs, max_size=5).map(
    lambda terms: Polynomial(2, terms)
)
points = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def _recursive_monomials(d, n):
    # the listing by leading exponent, highest first, then the rest recursively
    if d == 1:
        return ((n,),)
    return tuple((k,) + rest for k in range(n, -1, -1) for rest in _recursive_monomials(d - 1, n - k))


def test_monomial_enumeration():
    assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials_of_degree(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials_up_to(2, 2) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    ]
    for d in (1, 2, 3):
        for n in range(5):
            assert space_dimension(d, n) == len(monomials_of_degree(d, n))
    for d in range(1, 7):
        for n in range(8):
            assert monomials_of_degree(d, n) == _recursive_monomials(d, n)


def test_graded_lex_order():
    # degree first, then descending lexicographic within a degree
    assert graded_lex_key((2, 0)) < graded_lex_key((1, 1))
    assert graded_lex_key((1, 1)) < graded_lex_key((0, 2))
    assert graded_lex_key((0, 2)) < graded_lex_key((3, 0))
    ordered = sorted([(0, 2), (3, 0), (1, 1), (0, 0), (2, 0)], key=graded_lex_key)
    assert ordered == [(0, 0), (2, 0), (1, 1), (0, 2), (3, 0)]


def test_constructors():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert x.terms == {(1, 0): 1}
    assert y.terms == {(0, 1): 1}
    assert Polynomial.monomial((2, 1), 3).terms == {(2, 1): 3}
    assert Polynomial.one(2).degree == 0
    assert Polynomial.zero(2).degree == -1
    assert Polynomial.zero(2).is_zero
    with pytest.raises(ValueError):
        Polynomial.variable(2, 2)
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})


def test_zero_coefficients_pruned():
    x = Polynomial.variable(2, 0)
    assert (x - x).is_zero
    assert (x - x).terms == {}
    f = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): 0})
    assert (0, 1) not in f.terms


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys, polys, points)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(f, g, p):
    assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)
    assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_sorted_terms_ascending(f):
    keys = [graded_lex_key(a) for a, _ in f.sorted_terms()]
    assert keys == sorted(keys)


def test_degree_and_scalar_ops():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    f = x * x + 2 * y - 3
    assert f.degree == 2
    assert (f / 2).terms[(2, 0)] == Fraction(1, 2)
    assert (2 * f).terms[(0, 1)] == 4
    assert f.is_exact


def test_evaluate_exact():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    f = (x + y) * (x - y)
    value = f.evaluate((Fraction(1, 3), Fraction(1, 2)))
    assert value == Fraction(1, 9) - Fraction(1, 4)
    with pytest.raises(ValueError):
        f.evaluate((1,))
