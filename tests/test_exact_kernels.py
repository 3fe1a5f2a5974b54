"""Exact kernels on integer numerators against plain Fraction arithmetic.

Commutation residuals, Gram seminorms, validation checks and the exact Gram
split run on cleared integer numerators. The references here redo them the
direct way: Fraction object products with `@`, the full quadratic form, and
row reduction followed by metric Gram-Schmidt for the split.
"""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvop
from mvop import _linalg
from mvop import fock as fock_module
from mvop._linalg import _eliminate
from mvop.errors import InconsistentMomentsError
from mvop.fock import annihilation_blocks, creation_matrix
from mvop.nullideal import _new_kernel_directions
from mvop.scalars import Tolerances
from reference import edited, replaced, x_commutator_residual

# ---------------------------------------------------------------- references


def ref_rref(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    pivots, r = [], 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def ref_nullspace(rows):
    rref, pivots = ref_rref(rows)
    ncols = len(rows[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rref[i][f]
        basis.append(v)
    return basis


def ref_split(gram):
    """Row reduction for pivots and kernel, then metric Gram-Schmidt of the pivot unit vectors."""
    d = gram.shape[0]
    rows = [[Fraction(gram[i, j]) for j in range(d)] for i in range(d)]
    null = ref_nullspace(rows)
    _, pivots = ref_rref(rows)

    def metric_dot(u, v):
        gv = [sum(rows[i][j] * v[j] for j in range(d)) for i in range(d)]
        return sum(u[i] * gv[i] for i in range(d))

    ortho, norms2 = [], []
    for p in pivots:
        u = [Fraction(int(i == p)) for i in range(d)]
        for w, n2 in zip(ortho, norms2):
            coeff = metric_dot(w, u) / n2
            u = [x - coeff * y for x, y in zip(u, w)]
        n2 = metric_dot(u, u)
        if n2 <= 0:
            raise InconsistentMomentsError(
                f"exact Gram matrix is not positive semidefinite (pivot norm {n2})"
            )
        ortho.append(u)
        norms2.append(n2)
    combos = [list(col) for col in zip(*ortho)] if ortho else [[] for _ in range(d)]
    null_cols = [list(col) for col in zip(*null)] if null else [[] for _ in range(d)]
    return combos, norms2, null_cols


def ref_seminorm(cols, gram):
    if cols.size == 0:
        return 0.0
    quad = cols.T @ gram @ cols
    return math.sqrt(max(0.0, float(max(quad[i, i] for i in range(quad.shape[0])))))


def max_abs(mat):
    a = np.asarray(mat, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def ref_commutation(fock, tol):
    """(relation, pair, degree, residual, tolerance) of each commutation entry, by Fraction `@`."""
    ap = lambda i, n: fock.aplus[i][n]
    az = lambda i, n: fock.azero[i][n]
    am = lambda i, n: fock.aminus[i][n]
    out = []

    def record(relation, pair, n, block, level, parts):
        scale = max([1.0] + [max_abs(p) for p in parts])
        residual = ref_seminorm(block, fock.grams[level])
        out.append((relation, pair, n, residual, tol.comm * scale))

    for j in range(fock.dimension):
        for k in range(j + 1, fock.dimension):
            pair = (j + 1, k + 1)
            for n in range(fock.depth - 1):
                block = ap(j, n + 1) @ ap(k, n) - ap(k, n + 1) @ ap(j, n)
                record("CR1", pair, n, block, n + 2, [ap(j, n), ap(k, n + 1)])
            for n in range(fock.depth):
                block = (
                    ap(j, n) @ az(k, n)
                    - az(k, n + 1) @ ap(j, n)
                    + az(j, n + 1) @ ap(k, n)
                    - ap(k, n) @ az(j, n)
                )
                record("CR2", pair, n, block, n + 1, [ap(j, n), ap(k, n), az(j, n + 1), az(k, n + 1)])
            for n in range(fock.depth):
                block = (
                    -am(k, n + 1) @ ap(j, n)
                    + az(j, n) @ az(k, n)
                    - az(k, n) @ az(j, n)
                    + am(j, n + 1) @ ap(k, n)
                )
                if n:
                    block = block + ap(j, n - 1) @ am(k, n) - ap(k, n - 1) @ am(j, n)
                record("CR3", pair, n, block, n, [az(j, n), az(k, n), am(j, n + 1), am(k, n + 1)])
    return out


def ref_vacuum(fock, alpha):
    """The vacuum coefficient of the word x^alpha, rightmost factor first, by Fraction `@`."""
    state = {0: np.array([1], dtype=object)}
    for i in reversed(range(fock.dimension)):
        for _ in range(alpha[i]):
            out = {}
            for n, v in state.items():
                moves = [(n + 1, fock.aplus[i][n]), (n, fock.azero[i][n])]
                moves += [(n - 1, fock.aminus[i][n])] if n else []
                for level, block in moves:
                    out[level] = out[level] + block @ v if level in out else block @ v
            state = out
    return state[0][0]


def ref_validate_checks(fi, tol):
    """(name, detail, residual, tolerance) of every validation check of an exact payload."""
    report = mvop.validate(fi, tol=tol)
    head = [c for c in report.checks if c.name in ("normalization", "psd")]
    out = [(c.name, c.detail, c.residual, c.tolerance) for c in head]
    if report.fock is None:
        return out
    d, n_max, grams, bzero = fi.dimension, fi.depth, fi.grams, fi.bzero
    splits = []
    for g in grams:
        combos, norms2, null = ref_split(g)
        splits.append(
            _linalg.GramSplit(
                np.array(combos, dtype=object).reshape(g.shape[0], -1),
                np.array(norms2, dtype=object),
                np.array(null, dtype=object).reshape(g.shape[0], -1),
            )
        )
    aplus = [[creation_matrix(d, i, n, dtype=object) for n in range(n_max)] for i in range(d)]
    for n in range(n_max + 1):
        null = splits[n].null
        if null.shape[1] == 0:
            continue
        for i in range(d):
            if n < n_max:
                residual = ref_seminorm(aplus[i][n] @ null, grams[n + 1])
                tolerance = tol.null * max(1.0, max_abs(grams[n + 1]))
                out.append(("kernel_creation", f"coordinate {i + 1}, degree {n}", residual, tolerance))
            residual = ref_seminorm(bzero[i][n] @ null, grams[n])
            tolerance = tol.null * max(1.0, max_abs(grams[n]))
            out.append(("kernel_preservation", f"coordinate {i + 1}, degree {n}", residual, tolerance))
    for i in range(d):
        for n in range(n_max + 1):
            s = grams[n] @ bzero[i][n]
            tolerance = tol.adj * max(1.0, max_abs(s))
            out.append(("hermiticity", f"coordinate {i + 1}, degree {n}", max_abs(s - s.T), tolerance))
    aminus, residuals = annihilation_blocks(*map(_linalg.cleared, (aplus, grams, splits)))
    for (i, n), (residual, scale) in residuals.items():
        out.append(("adjointness", f"coordinate {i + 1}, degree {n}", residual, tol.adj * scale))
    fock = mvop.FockData(d, n_max, True, grams, aplus, bzero, _linalg.published(aminus))
    for relation, pair, n, residual, tolerance in ref_commutation(fock, tol):
        out.append((relation, f"pair {pair}, degree {n}", residual, tolerance))
    return out


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def gauss3_fock():
    f = mvop.product_functional([mvop.gaussian_functional()] * 3)
    return mvop.assemble_fock(mvop.build_gradations(f, 4))


@pytest.fixture(scope="module")
def square_exact_fock(square_gradation):
    return mvop.assemble_fock(square_gradation)


@pytest.fixture(scope="module")
def skewed_fock():
    # non-symmetric atoms: nonzero preservation blocks and Gram entries above 1
    atoms = ((6, 0), (3, 3), (0, 0), (3, -3), (Fraction(3, 2), Fraction(-9, 4)))
    weights = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4))
    f = mvop.discrete_functional(mvop.DiscreteMeasure(atoms=atoms, weights=weights))
    return mvop.assemble_fock(mvop.build_gradations(f, 4))


@pytest.fixture
def focks(gauss3_fock, square_exact_fock, skewed_fock):
    return {"gauss3": gauss3_fock, "square": square_exact_fock, "skewed": skewed_fock}


def tampered_payload(fock):
    fi = mvop.FockInput.from_fock_data(fock)
    fi = replaced(fi, "bzero", 0, 1, (0, 1), change=lambda v: v + Fraction(1, 1000))
    return replaced(fi, "bzero", 1, 2, (1, 0), change=lambda v: v + Fraction(1, 7))


def entries(report):
    return [(e.relation, e.pair, e.degree, e.residual, e.tolerance) for e in report.entries]


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("name", ["gauss3", "square", "skewed"])
def test_commutation_entries_match_fraction_products(name, focks):
    fock = focks[name]
    tol = fock.tolerances
    assert entries(mvop.check_commutation(fock)) == ref_commutation(fock, tol)


@pytest.mark.parametrize("name", ["gauss3", "skewed"])
def test_fock_residuals_match_fraction_products(name, focks):
    fock = focks[name]
    for (i, n), got in mvop.adjointness_residuals(fock).items():
        lhs = fock.grams[n - 1] @ fock.aminus[i - 1][n]
        rhs = fock.aplus[i - 1][n - 1].T @ fock.grams[n]
        assert got == max_abs(lhs - rhs) / max(1.0, max_abs(rhs))
    for (i, n), got in mvop.azero_symmetry_residuals(fock).items():
        s = fock.grams[n] @ fock.azero[i - 1][n]
        assert got == max_abs(s - s.T) / max(1.0, max_abs(s))


@pytest.mark.parametrize("name", ["square", "skewed"])
@pytest.mark.parametrize("kind", ["genuine", "tampered"])
def test_validation_checks_match_fraction_products(kind, name, focks):
    fi = mvop.FockInput.from_fock_data(focks[name])
    if kind == "tampered":
        fi = tampered_payload(focks[name])
    tol = Tolerances()
    report = mvop.validate(fi, tol=tol)
    assert report.passed == (kind == "genuine")
    got = [(c.name, c.detail, c.residual, c.tolerance) for c in report.checks]
    assert got == ref_validate_checks(fi, tol)


@pytest.mark.parametrize("name", ["square", "skewed"])
def test_vacuum_moments_are_exact(name, focks):
    fock = focks[name]
    functional = fock.gradation.functional
    for alpha in mvop.monomials_up_to(2, fock.depth):
        got = mvop.vacuum_moment(fock, alpha)
        assert got == functional.moment(alpha)
        assert isinstance(got, (int, Fraction))


small_rationals = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4, 6])
)


def assert_split_matches(gram):
    try:
        want = ref_split(gram)
    except InconsistentMomentsError as exc:
        with pytest.raises(InconsistentMomentsError) as got:
            _linalg.split_gram(_linalg.cleared(gram), tol_rank=1e-10, tol_psd=1e-10)
        assert str(got.value) == str(exc)
        return
    split = _linalg.published(_linalg.split_gram(_linalg.cleared(gram), tol_rank=1e-10, tol_psd=1e-10))
    combos, norms2, null = want
    d = gram.shape[0]
    assert split.combos.shape == (d, len(norms2)) and split.null.shape[0] == d
    assert split.combos.tolist() == combos
    assert split.norms2.tolist() == norms2
    assert split.null.tolist() == null
    for arr in (split.combos, split.norms2, split.null):
        assert all(type(v) is Fraction for v in arr.flat)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.lists(
            st.lists(small_rationals, min_size=d, max_size=d), min_size=1, max_size=d + 1
        )
    )
)
def test_split_matches_rref_gram_schmidt_on_psd(rows):
    # G = B^T B is PSD; fewer or dependent rows of B make it rank-deficient
    b = np.array(rows, dtype=object)
    assert_split_matches(b.T @ b)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.lists(small_rationals, min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2).map(
            lambda upper: (d, upper)
        )
    )
)
def test_split_matches_rref_gram_schmidt_on_symmetric(drawn):
    # indefinite draws must raise the same pivot-norm error
    d, upper = drawn
    gram = np.empty((d, d), dtype=object)
    for (i, j), v in zip(zip(*np.triu_indices(d)), upper):
        gram[i, j] = gram[j, i] = v
    assert_split_matches(gram)


def test_split_on_fixed_grams():
    cases = [
        [[1, 1], [1, 0]],
        [[0, 0], [0, 0]],
        [[Fraction(1, 2), 1, 0], [1, Fraction(1, 3), 0], [0, 0, 0]],
        [[4, 2, 2], [2, 1, 1], [2, 1, 1]],
        [[0, 0, 0], [0, 2, 1], [0, 1, 3]],
        [[-1]],
    ]
    for rows in cases:
        assert_split_matches(np.array(rows, dtype=object))


def test_split_on_elimination_branch_points():
    cases = [
        # zero diagonals (so zero rows and columns) before a later pivot
        [[0, 0, 0], [0, 0, 0], [0, 0, 5]],
        [[0, 0], [0, Fraction(1, 3)]],
        # a zero diagonal with a nonzero off-diagonal entry: pivot norm 0
        [[0, 1], [1, 2]],
        [[1, 1, 0], [1, 1, 1], [0, 1, 0]],
        [[0] * 4] * 4,
        [[0]],
        [[Fraction(3, 2)]],
        [[-2]],
    ]
    for rows in cases:
        assert_split_matches(np.array(rows, dtype=object))
    with pytest.raises(InconsistentMomentsError, match=r"\(pivot norm 0\)$"):
        _linalg.split_gram(_linalg.cleared(np.array(cases[3], dtype=object)), tol_rank=1e-10, tol_psd=1e-10)


def test_zero_gram_pair_split():
    # the pair path favard takes: a zero Gram is all null, with the identity as kernel
    for d in range(1, 10):
        zero = np.zeros((d, d), dtype=object)
        split = _linalg.split_gram(_linalg.cleared(zero), tol_rank=1e-10, tol_psd=1e-10)
        assert split.combos.shape == (d, 0) and split.norms2.shape == (0,)
        assert isinstance(split.null, _linalg.Units)
        null = split.null.pair()
        assert null.den == 1
        assert null.num.tolist() == np.eye(d, dtype=int).tolist()
        assert all(type(v) is int for v in null.num.flat)
        published = _linalg.published(split)
        assert (published.combos.tolist(), published.norms2.tolist(), published.null.tolist()) == ref_split(zero)


def diagonal_gram(rng, d: int, negative: bool = False) -> np.ndarray:
    """A d x d rational diagonal Gram with zero entries; negative ones if asked."""
    gram = np.zeros((d, d), dtype=object)
    for i in range(d):
        if rng.random() < 0.6:
            gram[i, i] = Fraction(rng.randint(-9 if negative else 1, 9) or 1, rng.randint(1, 6))
    return gram


def pair_lists(x) -> tuple:
    """A pair's numerators and den; a map (`Units`) as its pair."""
    x = x.pair() if isinstance(x, _linalg.Units) else x
    return x.num.tolist(), x.den


def holds_maps(split) -> bool:
    return isinstance(split.combos, _linalg.Units) or isinstance(split.null, _linalg.Units)


@pytest.fixture
def eliminations(monkeypatch):
    """The Grams given to the fraction-free elimination."""
    calls = []
    eliminate = _linalg._eliminate

    def counting(gram):
        calls.append(gram)
        return eliminate(gram)

    monkeypatch.setattr(_linalg, "_eliminate", counting)
    return calls


def test_diagonal_split_is_read_off(eliminations):
    rng = random.Random(2323)
    for _ in range(80):
        d = rng.randint(1, 8)
        gram = diagonal_gram(rng, d)
        assert_split_matches(gram)
        pair = _linalg.cleared(gram)
        split = _linalg.split_gram(pair, tol_rank=1e-10, tol_psd=1e-10)
        nonzero = [i for i in range(d) if gram[i, i]]
        assert isinstance(split.combos, _linalg.Units) and isinstance(split.null, _linalg.Units)
        assert split.combos.rows.tolist() == nonzero
        assert split.null.rows.tolist() == [i for i in range(d) if i not in nonzero]
    assert eliminations == []


def test_diagonal_split_equals_the_elimination_pair_for_pair():
    rng = random.Random(2424)
    for _ in range(80):
        pair = _linalg.cleared(diagonal_gram(rng, rng.randint(1, 8)))
        got, want = _linalg._exact_split(pair), _eliminate(pair)
        for name in ("combos", "norms2", "null"):
            assert pair_lists(getattr(got, name)) == pair_lists(getattr(want, name))
        assert not holds_maps(want) and not holds_maps(_linalg.published(got))


def test_negative_diagonal_entry_raises_the_elimination_error(eliminations):
    rng = random.Random(2525)
    raised = 0
    for _ in range(80):
        pair = _linalg.cleared(diagonal_gram(rng, rng.randint(1, 8), negative=True))
        try:
            _eliminate(pair)
        except InconsistentMomentsError as exc:
            want = str(exc)
        else:
            continue
        raised += 1
        with pytest.raises(InconsistentMomentsError) as got:
            _linalg.split_gram(pair, tol_rank=1e-10, tol_psd=1e-10)
        assert str(got.value) == want
    assert raised > 20 and eliminations == []
    # the first negative entry in index order is named, not the largest one
    gram = np.diag([Fraction(1, 2), 0, Fraction(-1, 3), -5]).astype(object)
    with pytest.raises(InconsistentMomentsError, match=r"\(pivot norm -1/3\)$"):
        _linalg.split_gram(_linalg.cleared(gram), tol_rank=1e-10, tol_psd=1e-10)


def test_one_off_diagonal_pair_takes_the_elimination(eliminations):
    gram = np.diag([2, 0, Fraction(3, 2), 1]).astype(object)
    gram[0, 2] = gram[2, 0] = Fraction(1, 2)
    assert_split_matches(gram)
    split = _linalg.split_gram(_linalg.cleared(gram), tol_rank=1e-10, tol_psd=1e-10)
    assert not holds_maps(split) and len(eliminations) == 2
    # one entry alone makes the Gram asymmetric, which the elimination refuses
    gram[2, 0] = 0
    with pytest.raises(InconsistentMomentsError, match="not symmetric"):
        _linalg.split_gram(_linalg.cleared(gram), tol_rank=1e-10, tol_psd=1e-10)
    assert len(eliminations) == 3


def test_diagonal_solves_match_the_products():
    rng = random.Random(2626)
    for _ in range(60):
        d, m = rng.randint(1, 7), rng.randint(1, 4)
        gram = _linalg.cleared(diagonal_gram(rng, d))
        split = _linalg.split_gram(gram, tol_rank=1e-10, tol_psd=1e-10)
        # the same split without its maps takes the products
        dense = _linalg.cleared(_linalg.published(split))
        assert not holds_maps(dense)
        rhs = _linalg.cleared(
            np.array([[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)] for _ in range(d)])
        )
        a = _linalg.pseudo_apply(split, rhs)
        assert pair_lists(a) == pair_lists(_linalg.pseudo_apply(dense, rhs))
        assert pair_lists(_linalg.gram_times(gram, a)) == pair_lists(_linalg.matmul(gram, a))
        for name in ("combos", "null"):
            coef = _linalg.cleared(
                np.array([[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)] for _ in range(3)])
            )
            assert pair_lists(_linalg.times(coef, getattr(split, name))) == pair_lists(
                _linalg.matmul(coef, getattr(dense, name))
            )
        # a Gram edited after its split, a new pair, is multiplied as it stands
        entries = _linalg.published(gram)
        entries[0, d - 1] = Fraction(1, 7)
        edited = _linalg.cleared(entries)
        want = _linalg.published(edited) @ _linalg.published(a)
        assert _linalg.published(_linalg.gram_times(edited, a)).tolist() == want.tolist()


def test_times_moves_match_the_products():
    # creation maps and their negatives, transposed or not, on either side of
    # a pair, on a vector, and times a map: each move equals the dense product
    rng = random.Random(2727)

    def rational(*shape):
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(math.prod(shape))]
        return np.array(entries, dtype=object).reshape(shape)

    for _ in range(40):
        d, n, m = rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 3)
        i = rng.randrange(d)
        shift = fock_module._creation(d, n + 1, True)[i][n]
        size, k = shift.shape
        for units, dense in ((shift, creation_matrix(d, i, n, object)), (-shift, -creation_matrix(d, i, n, object))):
            assert units.pair().num.tolist() == dense.tolist()
            kernel = _linalg.Units(np.array(sorted(rng.sample(range(k), rng.randint(0, k))), dtype=int), k)
            cases = [
                (units, rational(k, m), dense, None),
                (units, rational(k), dense, None),
                (units.T, rational(size, m), dense.T, None),
                (rational(m, size), units, None, dense),
                (rational(m, k), units.T, None, dense.T),
                (units, kernel, dense, kernel.pair()),
            ]
            for a, b, dense_a, dense_b in map(_linalg.cleared, cases):
                got = _linalg.times(a, b)
                want = _linalg.matmul(a if dense_a is None else dense_a, b if dense_b is None else dense_b)
                assert isinstance(got, _linalg.Cleared)
                assert _linalg.published(got).tolist() == _linalg.published(want).tolist()
                assert math.gcd(got.den, *got.num.flat) == 1
            # a sum of moves and products, as the commutation checks form it
            r, left, p, q = (_linalg.cleared(rational(*shape)) for shape in ((k, k), (size, size), (size, k), (k, k)))
            got = _linalg.times_sum([(units, r), (left, -units), (p, q), (-units, q)])
            r, left, p, q = map(_linalg.published, (r, left, p, q))
            want = dense @ r - left @ dense + p @ q - dense @ q
            assert _linalg.published(got).tolist() == want.tolist() and math.gcd(got.den, *got.num.flat) == 1


def test_a_sum_of_products_alone_is_reduced_once(monkeypatch):
    # with no map term the product of the stacked factors is the sum: one gcd
    rng = random.Random(3131)

    def rational(*shape):
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(math.prod(shape))]
        return _linalg.cleared(np.array(entries, dtype=object).reshape(shape))

    terms = [(rational(3, 2), rational(2, 4)), (rational(3, 3), rational(3, 4))]
    want = sum(_linalg.published(a) @ _linalg.published(b) for a, b in terms)
    reductions = []
    init = _linalg.Cleared.__init__
    monkeypatch.setattr(_linalg.Cleared, "__init__", lambda self, *args: reductions.append(1) or init(self, *args))
    got = _linalg.times_sum(terms)
    assert len(reductions) == 1
    assert _linalg.published(got).tolist() == want.tolist() and math.gcd(got.den, *got.num.flat) == 1


@st.composite
def rectangular(draw, cols=None):
    """A rational matrix of drawn rank (0 to full), with zeroed rows and columns and copied rows."""
    rows, cols = draw(st.integers(1, 6)), cols or draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(rows, cols)))

    def block(n, m):
        entries = draw(st.lists(small_rationals, min_size=n * m, max_size=n * m))
        return np.array(entries, dtype=object).reshape(n, m)

    a = np.zeros((rows, cols), dtype=object) + block(rows, rank) @ block(rank, cols)
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        a[i, :] = 0
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        a[:, j] = 0
    for i, j in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1)), max_size=2)):
        a[j] = a[i]
    return a


@settings(max_examples=150, deadline=None)
@given(rectangular())
def test_gram_kernel_is_the_rref_kernel(a):
    pair = _linalg.cleared(a)
    null = _linalg.published(_linalg.split_gram(_linalg.matmul(pair.T, pair), tol_rank=1e-10, tol_psd=1e-10).null)
    assert null.T.tolist() == ref_nullspace(a.tolist())
    assert all(type(v) is Fraction for v in null.flat)


@settings(max_examples=150, deadline=None)
@given(rectangular(), st.data())
def test_new_kernel_directions_exact(kernel, data):
    inherited = data.draw(rectangular(cols=kernel.shape[0])).T
    got = _linalg.published(_new_kernel_directions(_linalg.cleared(kernel), _linalg.cleared(inherited), 1e-10))
    want = [kernel @ np.array(v, dtype=object) for v in ref_nullspace((inherited.T @ kernel).tolist())]
    assert got.shape == (kernel.shape[0], len(want))
    assert got.T.tolist() == [list(col) for col in want]


# ---------------------------------------------------------------- float entries


def test_float_entry_in_fock_input_is_reported(square_exact_fock):
    fi = mvop.FockInput.from_fock_data(square_exact_fock)
    fi = replaced(fi, "bzero", 0, 1, (0, 1), change=lambda v: v + 0.001)
    report = mvop.validate(fi)
    failed = {c.name for c in report.failures()}
    assert "hermiticity" in failed
    assert failed & {"CR2", "CR3"}


def test_float_entry_in_exact_blocks_falls_back(skewed_fock):
    # blocks holding a float entry are a float copy (exact=False), which
    # computes on binary64 copies of its Fraction arrays
    azero = edited(skewed_fock.azero, 0, 1, (0, 1), change=lambda v: v + 0.001)
    fock = dataclasses.replace(skewed_fock, exact=False, azero=azero)
    report = mvop.check_commutation(fock)
    assert not report.passed
    # binary64 residuals against the Fraction products' to within rounding
    got, want = entries(report), ref_commutation(fock, fock.tolerances)
    assert [e[:3] + e[4:] for e in got] == [e[:3] + e[4:] for e in want]
    assert [e[3] for e in got] == pytest.approx([e[3] for e in want], rel=1e-6, abs=1e-12)
    assert max(mvop.azero_symmetry_residuals(fock).values()) > 1e-4
    assert x_commutator_residual(fock, 0, 1, 1) > 1e-4


def test_exact_values_hold_rationals_and_float_values_compute_in_binary64(skewed_fock):
    # an exact FockData holding a float entry raises, built directly or
    # through replace, on its first computation
    bump = lambda v: v + 0.001
    azero = edited(skewed_fock.azero, 0, 1, (0, 1), change=bump)
    blocks = (skewed_fock.grams, skewed_fock.aplus, azero, skewed_fock.aminus)
    uses = (
        mvop.check_commutation,
        mvop.adjointness_residuals,
        mvop.azero_symmetry_residuals,
        lambda fock: mvop.vacuum_moment(fock, (1, 1)),
        lambda fock: mvop.apply_coordinate(fock, 0, {1: np.array([1, 0], dtype=object)}),
    )
    for fock in (mvop.FockData(2, 4, True, *blocks), dataclasses.replace(skewed_fock, azero=azero)):
        for use in uses:
            with pytest.raises(ValueError, match="non-rational entry"):
                use(fock)

    # so does an exact level: its ranks, and the assembly that reads it
    g = skewed_fock.gradation
    level = replaced(g.levels[2], "gram", (0, 0), change=bump)
    assert level.exact and g.levels[2].exact
    levels = [*g.levels[:2], level, *g.levels[3:]]
    for use in (lambda: level.rank, lambda: mvop.assemble_fock(dataclasses.replace(g, levels=levels))):
        with pytest.raises(ValueError, match="non-rational entry"):
            use()

    # a float FockData given Fraction arrays computes on their binary64 copies
    def floats(family):
        return [[None if b is None else b.astype(float) for b in per] for per in family]

    given = mvop.FockData(2, 4, False, *blocks)
    copy = mvop.FockData(2, 4, False, [a.astype(float) for a in blocks[0]], *map(floats, blocks[1:]))
    assert entries(mvop.check_commutation(given)) == entries(mvop.check_commutation(copy))
    assert not mvop.check_commutation(given).passed
    assert mvop.vacuum_moment(given, (2, 1)) == mvop.vacuum_moment(copy, (2, 1))
    state = {1: np.array([1.0, -2.0])}
    for n, v in mvop.apply_coordinate(given, 0, state).items():
        assert v.dtype == float and v.tobytes() == mvop.apply_coordinate(copy, 0, state)[n].tobytes()
    # and a float level combines Fraction columns in binary64
    float_level = mvop.build_gradations(g.functional, 2, mode="float").levels[2]
    eye = np.eye(float_level.dimension)
    got = float_level.combine(eye.astype(object) * Fraction(1))
    assert [p.terms for p in got] == [p.terms for p in float_level.combine(eye)]
    assert all(type(c) is float for p in got for c in p.terms.values())


def _non_canonical(aplus, step):
    """Creation families that are not the canonical shifts of a d = 2 shape of depth >= 2."""
    # A_1^+ y gains a y^2 component
    yield edited(aplus, 0, 1, (2, 1), change=lambda v: v + step)
    # A_1^+(1) with its last row dropped: the shape of no degree-1 shift
    yield [[aplus[0][0], aplus[0][1][:-1], *aplus[0][2:]], list(aplus[1])]
    # one level short, and one coordinate too many
    yield [list(per[:-1]) for per in aplus]
    yield [*aplus, aplus[0]]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_non_canonical_creation_blocks_are_refused(mode, skewed_fock):
    # A^+ is a constant of the shape: a FockData given any other aplus, built
    # directly or through replace (of assembled blocks or of a validation
    # report's), raises at its first computation, and again at the next
    # depth 3: the float gradation of the 5 atoms degenerates at depth 4
    assembled = mvop.assemble_fock(mvop.build_gradations(skewed_fock.gradation.functional, 3, mode=mode))
    reported = mvop.validate(mvop.FockInput.from_fock_data(assembled)).fock
    exact = mode == "exact"
    vector = np.array([Fraction(1, 3), -2] if exact else [1.0, -2.0], dtype=object if exact else float)
    uses = (
        mvop.check_commutation,
        mvop.adjointness_residuals,
        mvop.azero_symmetry_residuals,
        lambda f: mvop.vacuum_moment(f, (1, 1)),
        lambda f: mvop.apply_coordinate(f, 0, {1: vector}),
    )

    def direct(fock, aplus):
        return mvop.FockData(fock.dimension, fock.depth, fock.exact, fock.grams, aplus, fock.azero, fock.aminus)

    for fock in (assembled, reported):
        for build in (direct, lambda f, aplus: dataclasses.replace(f, aplus=aplus)):
            # the canonical shifts, given as arrays, are taken
            given = build(fock, [[b.copy() for b in per] for per in fock.aplus])
            assert entries(mvop.check_commutation(given)) == entries(mvop.check_commutation(fock))
            assert mvop.vacuum_moment(given, (1, 1)) == mvop.vacuum_moment(fock, (1, 1))
            for aplus in _non_canonical(fock.aplus, Fraction(1, 3) if exact else 1e-3):
                tampered = build(fock, aplus)
                for use in uses + uses:
                    with pytest.raises(ValueError, match="canonical creation shifts"):
                        use(tampered)


def test_matmul_on_mixed_object_array():
    # exact products run on pairs only: a float entry among exact ones is
    # refused where the pair is made
    a = np.array([[Fraction(1, 3), 2], [0.5, Fraction(-3, 4)]], dtype=object)
    b = np.array([[Fraction(2, 5), 1], [3, Fraction(1, 7)]], dtype=object)
    with pytest.raises(ValueError, match="non-rational entry"):
        _linalg.cleared(a)
    pb = _linalg.cleared(b)
    assert _linalg.published(_linalg.matmul(pb, pb, pb)).tolist() == (b @ (b @ b)).tolist()
    assert _linalg.max_quadratic(pb, pb) == max((b.T @ b @ b)[i, i] for i in range(2))


def test_matmul_takes_int_and_float_arrays_among_exact_ones(skew_fn):
    pair = _linalg.cleared(np.array([[Fraction(1, 3), 2], [0, Fraction(-3, 4)]], dtype=object))
    frac = _linalg.published(pair)
    ints, floats = np.array([[2, -1], [5, 3]]), np.array([[0.5, 1.0], [-2.0, 0.25]])
    # an int array is cleared to a pair over den 1, and multiplies as one
    assert _linalg.published(_linalg.matmul(pair, _linalg.cleared(ints))).tolist() == (frac @ ints.astype(object)).tolist()
    assert _linalg.published(_linalg.matmul(_linalg.cleared(ints), pair)).tolist() == (ints.astype(object) @ frac).tolist()
    # a float array has non-rational entries: it makes no pair
    with pytest.raises(ValueError, match="non-rational entry"):
        _linalg.cleared(floats)

    # DegreeBasis.combine: int columns give the polynomials of object ones,
    # float columns the same values as floats
    lev = mvop.build_gradations(skew_fn, 3).levels[2]
    eye = np.eye(3, dtype=int)
    want = [sorted((a, type(c), c) for a, c in p.terms.items()) for p in lev.combine(eye.astype(object))]
    got = [sorted((a, type(c), c) for a, c in p.terms.items()) for p in lev.combine(eye)]
    assert got == want and any(t is Fraction for p in want for _, t, _ in p)
    floats = lev.combine(np.eye(3))
    assert [p.terms for p in floats] == [p.terms for p in lev.combine(eye)]
    assert all(type(c) is float for p in floats for c in p.terms.values())
