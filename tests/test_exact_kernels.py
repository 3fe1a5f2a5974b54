"""Exact kernels on integer numerators against plain Fraction arithmetic.

Commutation residuals, Gram seminorms, validation checks and the exact Gram
split run on cleared integer numerators. The references here redo them the
direct way: Fraction object products with `@`, the full quadratic form, and
row reduction followed by metric Gram-Schmidt for the split.
"""

import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvop
from mvop import _linalg
from mvop import fock as fock_module
from mvop.errors import InconsistentMomentsError
from mvop.fock import annihilation_blocks, creation_matrix
from mvop.nullideal import _new_kernel_directions
from mvop.scalars import Tolerances
from reference import x_commutator_residual

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
    aminus, residuals = annihilation_blocks(aplus, grams, splits)
    for (i, n), (residual, scale) in residuals.items():
        out.append(("adjointness", f"coordinate {i + 1}, degree {n}", residual, tol.adj * scale))
    fock = mvop.FockData(d, n_max, True, grams, aplus, bzero, aminus)
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
    fi.bzero[0][1][0, 1] += Fraction(1, 1000)
    fi.bzero[1][2][1, 0] += Fraction(1, 7)
    return fi


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
            _linalg.split_gram(gram, exact=True, tol_rank=1e-10, tol_psd=1e-10)
        assert str(got.value) == str(exc)
        return
    split = _linalg.split_gram(gram, exact=True, tol_rank=1e-10, tol_psd=1e-10)
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
        _linalg.split_gram(np.array(cases[3], dtype=object), exact=True, tol_rank=1e-10, tol_psd=1e-10)


def test_zero_gram_pair_split():
    # the pair path favard takes: a zero Gram is all null, with the identity as kernel
    for d in range(1, 10):
        zero = np.zeros((d, d), dtype=object)
        split = _linalg.split_gram(_linalg.cleared(zero), exact=True, tol_rank=1e-10, tol_psd=1e-10)
        assert split.combos.shape == (d, 0) and split.norms2.shape == (0,)
        assert isinstance(split.null, _linalg.Cleared) and split.null.den == 1
        assert split.null.num.tolist() == np.eye(d, dtype=int).tolist()
        assert all(type(v) is int for v in split.null.num.flat)
        published = _linalg.published(split)
        assert (published.combos.tolist(), published.norms2.tolist(), published.null.tolist()) == ref_split(zero)


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
    null = _linalg.split_gram(_linalg.matmul(a.T, a), exact=True, tol_rank=1e-10, tol_psd=1e-10).null
    assert null.T.tolist() == ref_nullspace(a.tolist())
    assert all(type(v) is Fraction for v in null.flat)


@settings(max_examples=150, deadline=None)
@given(rectangular(), st.data())
def test_new_kernel_directions_exact(kernel, data):
    inherited = data.draw(rectangular(cols=kernel.shape[0])).T
    got = _new_kernel_directions(kernel, inherited, True, 1e-10)
    want = [kernel @ np.array(v, dtype=object) for v in ref_nullspace((inherited.T @ kernel).tolist())]
    assert got.shape == (kernel.shape[0], len(want))
    assert got.T.tolist() == [list(col) for col in want]


# ---------------------------------------------------------------- float entries


def test_float_entry_in_fock_input_is_reported(square_exact_fock):
    fi = mvop.FockInput.from_fock_data(square_exact_fock)
    fi.bzero[0][1][0, 1] += 0.001
    report = mvop.validate(fi)
    failed = {c.name for c in report.failures()}
    assert "hermiticity" in failed
    assert failed & {"CR2", "CR3"}


def test_float_entry_in_exact_blocks_falls_back(skewed_fock):
    fock = copy.deepcopy(skewed_fock)
    fock.azero[0][1][0, 1] += 0.001
    report = mvop.check_commutation(fock)
    assert not report.passed
    assert entries(report) == pytest.approx(ref_commutation(fock, fock.tolerances))
    assert max(mvop.azero_symmetry_residuals(fock).values()) > 1e-4
    assert x_commutator_residual(fock, 0, 1, 1) > 1e-4


def _tamper_creation(aplus, step):
    # A_1^+ y gains a y^2 component, so [A_1^+, A_2^+] misses at degree 0
    aplus[0][1][2, 1] += step


@pytest.mark.parametrize("exact", [True, False])
def test_tampered_creation_block_fails_cr1(exact, skewed_fock):
    # a creation block with one entry changed is no canonical shift: every
    # block is multiplied as a matrix, as for any user-built blocks
    if exact:
        # published and edited in place, or assigned before any read, on
        # assembled blocks and on those of a validation report
        published = copy.deepcopy(skewed_fock)
        _tamper_creation(published.aplus, Fraction(1, 3))
        assigned = mvop.assemble_fock(skewed_fock.gradation)
        reported = mvop.validate(mvop.FockInput.from_fock_data(skewed_fock)).fock
        for fock in (assigned, reported):
            aplus = [[creation_matrix(2, i, n, object) for n in range(4)] for i in range(2)]
            _tamper_creation(aplus, Fraction(1, 3))
            fock.aplus = aplus
        for fock in (published, assigned, reported):
            report = mvop.check_commutation(fock)
            assert ("CR1", 0) in {(e.relation, e.degree) for e in report.failures()}
            assert entries(report) == ref_commutation(fock, fock.tolerances)
            words = mvop.monomials_up_to(2, 3)
            assert [mvop.vacuum_moment(fock, w) for w in words] == [ref_vacuum(fock, w) for w in words]
        return
    fock = mvop.assemble_fock(mvop.build_gradations(mvop.circle_functional(max_degree=14), 6))
    _tamper_creation(fock.aplus, 1e-3)
    report = mvop.check_commutation(fock)
    assert ("CR1", 0) in {(e.relation, e.degree) for e in report.failures()}
    # the float CR1 residuals of the dense products, term by term
    seminorm = fock_module._seminorms(fock.grams, fock.tolerances.rank)
    ap = fock.aplus
    want = [
        seminorm(lambda: ap[0][n + 1] @ ap[1][n] + (-ap[1][n + 1]) @ ap[0][n], n + 2)
        for n in range(fock.depth - 1)
    ]
    assert [e.residual for e in report.entries if e.relation == "CR1"] == want


def test_matmul_on_mixed_object_array():
    a = np.array([[Fraction(1, 3), 2], [0.5, Fraction(-3, 4)]], dtype=object)
    b = np.array([[Fraction(2, 5), 1], [3, Fraction(1, 7)]], dtype=object)
    assert _linalg.matmul(a, b).tolist() == (a @ b).tolist()
    assert _linalg.matmul(b, a, b).tolist() == (b @ (a @ b)).tolist()
    assert _linalg.max_quadratic(a, b) == max((a.T @ b @ a)[i, i] for i in range(2))


def test_matmul_takes_int_and_float_arrays_among_exact_ones(skew_fn):
    pair = _linalg.cleared(np.array([[Fraction(1, 3), 2], [0, Fraction(-3, 4)]], dtype=object))
    frac = _linalg.published(pair)
    ints, floats = np.array([[2, -1], [5, 3]]), np.array([[0.5, 1.0], [-2.0, 0.25]])
    assert _linalg.published(_linalg.matmul(pair, ints)).tolist() == (frac @ ints.astype(object)).tolist()
    assert _linalg.matmul(ints, frac).tolist() == (ints.astype(object) @ frac).tolist()
    assert _linalg.matmul(pair, floats).tolist() == (frac @ floats).tolist()
    assert _linalg.matmul(frac, floats).tolist() == (frac @ floats).tolist()

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
