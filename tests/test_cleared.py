"""Exact matrices as cleared pairs (integer numerators over one denominator).

The pair kernels (product, difference, `_max_abs`, Gram seminorm) are compared
with plain Fraction arithmetic on drawn rational matrices, empty and
all-zero ones included, and every pair the exact pipeline builds is checked
to be reduced: gcd(den, every numerator) = 1 with den > 0. So is every
vacuum word state, which is int numerators over one den and no pair.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvop
from mvop import _linalg
from mvop._linalg import Cleared
from mvop.fock import _max_abs
from reference import x_commutator_residual

# ---------------------------------------------------------------- strategies

entries = st.one_of(
    st.integers(-9, 9),
    st.just(0),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**9)),
    st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 4, 6, 7, 12, 2**40])),
)


def matrices(rows, cols, values=entries):
    return st.lists(values, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: np.array(xs, dtype=object).reshape(rows, cols)
    )


dims = st.integers(0, 4)
shapes = st.tuples(dims, dims, dims)
kinds = st.sampled_from(["mixed", "int", "zero"])


def drawn(draw, rows, cols, kind):
    values = {"mixed": entries, "int": st.integers(-(10**6), 10**6), "zero": st.just(0)}[kind]
    return draw(matrices(rows, cols, values))


# ---------------------------------------------------------------- references


def ref_product(a, b):
    out = np.empty((a.shape[0], b.shape[1]), dtype=object)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum((Fraction(a[i, k]) * b[k, j] for k in range(a.shape[1])), Fraction(0))
    return out


def is_reduced(pair) -> bool:
    return pair.den > 0 and math.gcd(pair.den, *pair.num.flat) == 1


def same(pair, ref) -> bool:
    got = _linalg.published(pair)
    return got.shape == ref.shape and all(Fraction(x) == y for x, y in zip(ref.flat, got.flat))


# ---------------------------------------------------------------- kernels


@settings(max_examples=150, deadline=None)
@given(st.data(), shapes, kinds, kinds)
def test_pair_product_matches_fractions(data, shape, kind_a, kind_b):
    m, k, n = shape
    a, b = drawn(data.draw, m, k, kind_a), drawn(data.draw, k, n, kind_b)
    pa, pb = _linalg.cleared(a), _linalg.cleared(b)
    assert is_reduced(pa) and is_reduced(pb)
    got = _linalg.matmul(pa, pb)
    assert is_reduced(got)
    assert same(got, ref_product(a, b))
    # Fraction arrays take the same route and come back as Fractions
    as_fractions = _linalg.matmul(a, b)
    assert all(type(v) is Fraction for v in as_fractions.flat)
    assert as_fractions.tolist() == _linalg.published(got).tolist()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.tuples(dims, dims), kinds, kinds)
def test_pair_difference_and_max_abs_match_fractions(data, shape, kind_a, kind_b):
    a, b = drawn(data.draw, *shape, kind_a), drawn(data.draw, *shape, kind_b)
    diff = _linalg.cleared(a) - _linalg.cleared(b)
    assert is_reduced(diff)
    ref = np.array([Fraction(x) - Fraction(y) for x, y in zip(a.flat, b.flat)], dtype=object)
    assert same(diff, ref.reshape(shape))
    for pair, mat in ((diff, ref.reshape(shape)), (_linalg.cleared(a), a)):
        want = max((abs(float(x)) for x in mat.flat), default=0.0)
        got = _max_abs(pair)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.tuples(st.integers(1, 4), st.integers(0, 4)), kinds, kinds)
def test_pair_gram_seminorm_matches_fractions(data, shape, kind_c, kind_g):
    size, cols = shape
    c = drawn(data.draw, size, cols, kind_c)
    half = drawn(data.draw, size, size, kind_g)
    gram = ref_product(half.T, half)
    if cols == 0:
        return
    quad = ref_product(ref_product(c.T, gram), c)
    want = max(quad[i, i] for i in range(cols))
    got = _linalg.max_quadratic(_linalg.cleared(c), _linalg.cleared(gram))
    assert got == want and type(got) is Fraction


def test_max_abs_rounds_once_like_the_entries():
    # numerators around a rounding tie of binary64: max |num| / den rounds to
    # the same double as the largest rounded entry
    den = 3 * 2**60
    big = 2**113 + 1
    mat = np.array(
        [[Fraction(big, den), Fraction(-big - 2, den)], [Fraction(0), Fraction(1, den)]], dtype=object
    )
    want = max(abs(float(x)) for x in mat.flat)
    assert _max_abs(_linalg.cleared(mat)) == want


def test_float_entry_cannot_be_cleared():
    floats = np.array([[0.5]])
    for mat in (np.array([[Fraction(1, 3), 0.5]], dtype=object), floats):
        with pytest.raises(ValueError, match="non-rational entry"):
            _linalg.cleared(mat)
    assert _linalg.floated(floats) is floats


def test_empty_and_zero_pairs():
    for shape in ((0, 3), (3, 0), (0, 0)):
        pair = _linalg.cleared(np.zeros(shape, dtype=object))
        assert pair.den == 1 and _max_abs(pair) == 0.0 and is_reduced(pair)
    zero = _linalg.cleared(np.array([[Fraction(0), 0]], dtype=object))
    assert zero.den == 1 and _linalg.published(zero).tolist() == [[Fraction(0), Fraction(0)]]
    third = _linalg.cleared(np.array([[Fraction(1, 3)]], dtype=object))
    assert (third - third).den == 1


def test_a_pair_takes_no_entry_assignment():
    # a pair decides once whether it is diagonal, which holds as it never changes
    pair = _linalg.cleared(np.zeros((2, 2), dtype=object))
    assert pair.diagonal.tolist() == [0, 0]
    with pytest.raises(TypeError):
        pair[0:1, 1:2] = _linalg.cleared(np.array([[Fraction(1, 3)]], dtype=object))
    assert pair.diagonal.tolist() == [0, 0] and not pair.num.any()


@given(st.data(), st.lists(st.tuples(dims, kinds), min_size=1, max_size=3), dims)
def test_transpose_negation_and_stack_stay_reduced(data, parts, rows):
    # these take no gcd: the result of reduced pairs is reduced by construction
    mats = [drawn(data.draw, rows, cols, kind) for cols, kind in parts]
    pairs = [_linalg.cleared(m) for m in mats]
    for pair, mat in zip(pairs, mats):
        for got, want in ((pair.T, mat.T), (-pair, -mat)):
            assert is_reduced(got) and _linalg.published(got).tolist() == want.tolist()
    for axis in (0, 1):
        ms = mats if axis == 1 else [m.T for m in mats]
        got = _linalg.stack(pairs if axis == 1 else [p.T for p in pairs], axis=axis)
        assert is_reduced(got)
        assert _linalg.published(got).tolist() == np.concatenate(ms, axis=axis).tolist()


# ---------------------------------------------------------------- pipeline


def test_every_pipeline_pair_is_reduced(monkeypatch):
    # pairs made by the constructor, which reduces, and by `Cleared.reduced`,
    # which takes them as reduced by construction; vacuum words make none, so
    # the floor of pairs taken counts the checks, solves and validation only
    made, taken = [], []
    init, reduced = Cleared.__init__, Cleared.reduced.__func__

    def recording_init(self, num, den):
        init(self, num, den)
        made.append(self)

    def recording_reduced(cls, num, den):
        taken.append(reduced(cls, num, den))
        return taken[-1]

    monkeypatch.setattr(Cleared, "__init__", recording_init)
    monkeypatch.setattr(Cleared, "reduced", classmethod(recording_reduced))
    recurrence = mvop.JacobiPair1D((Fraction(3, 2), 2, Fraction(5, 4)) * 4, (0, Fraction(1, 2), -1) * 4)
    weights = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    atoms = mvop.DiscreteMeasure(((-1,), (Fraction(1, 2),), (2,)), weights)
    measures = [
        mvop.product_functional([mvop.gaussian_functional()] * 3),
        mvop.product_functional(
            [
                mvop.gaussian_functional(),
                mvop.jacobi_to_moments(recurrence, 12),
                mvop.discrete_functional(atoms),
            ]
        ),
        mvop.discrete_functional(
            mvop.DiscreteMeasure(
                ((6, 0), (3, 3), (0, 0), (3, -3), (Fraction(3, 2), Fraction(-9, 4))),
                (Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4)),
            )
        ),
    ]
    for f in measures:
        depth = 3 if f.dimension == 3 else 4
        g = mvop.build_gradations(f, depth)
        fock = mvop.assemble_fock(g)
        assert mvop.check_commutation(fock).passed
        mvop.adjointness_residuals(fock)
        mvop.azero_symmetry_residuals(fock)
        x_commutator_residual(fock, 0, 1, 1)
        for alpha in mvop.monomials_up_to(f.dimension, depth):
            mvop.vacuum_moment(fock, alpha)
        # word states are int numerators over one den, no pair: each is reduced once
        *_, states = fock._vacuum
        assert len(states) == len(mvop.monomials_up_to(f.dimension, depth))
        for levels, den in states.values():
            assert den > 0 and math.gcd(den, *(v for level in levels for v in level)) == 1
        report = mvop.validate(mvop.FockInput.from_fock_data(fock))
        assert report.passed
    assert len(made) > 1000 and len(taken) > 300
    assert all(is_reduced(p) for p in made + taken)
