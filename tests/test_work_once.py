"""Per-op work is done once: Gram factors per value, vacuum states, localizing moments.

A FockData's computing form keeps its Gram splits: a float check on
assembled blocks, or on a validation report's, reads the splits they were
completed with, and a value built or replaced by a caller decomposes each
target-level Gram once, on its first check; float validation decomposes
each payload Gram once in all. A forward exact run multiplies no creation
block: the canonical shifts act as index maps. On a product of 1-D
functionals, whose Grams are all diagonal, it runs no elimination and solves with no product. A
seminorm check forms no product on a level whose seminorm vanishes, exact
validation runs no elimination, solve or product against a zero Gram
level, and reconstruction compresses only the levels below its rank-zero
cutoff. A memoized vacuum state keeps only the levels that can still reach
the vacuum. Assembly
fetches each distinct localizing moment once for all coordinates. Exact
gradations refuse data whose seminorm-null polynomials have a nonzero
moment, which no moment functional has. The index plan of a moment block,
the weights of a level and the float localizing index are built once per
shape, so are the float creation blocks, and an exact `apply_coordinate`
clears no block after its first application.
"""

import copy
import dataclasses
import gc
import json
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

import mvop
from conftest import random_rational_measure
from mvop import _linalg, fock as fock_module, gradation as gradation_module
from mvop.cli import main
from mvop.fock import _preservation_rhs
from mvop.gradation import index_weight
from mvop.scalars import Tolerances
from reference import moment_matrix, replaced, x_commutator_residual
from test_exact_kernels import ref_validate_checks
from test_moment_matrix import _discrete
from test_vacuum_memo import _spec

# 1-D moments whose Hankel matrix has eigenvalue -0.618: x is seminorm-null, yet <x, x^2> = 1
NOT_PSD = {
    "type": "moments_table",
    "dimension": 1,
    "depth": 4,
    "entries": {"0": 1, "1": 0, "2": 0, "3": 1, "4": 1},
}


@pytest.fixture
def eighs(monkeypatch):
    """The matrices given to `np.linalg.eigh` through the library."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture(scope="module")
def circle12():
    return mvop.assemble_fock(mvop.build_gradations(mvop.circle_functional(max_degree=26), 12))


def test_one_eigh_per_target_level_per_check(circle12, eighs):
    report = mvop.check_commutation(circle12)
    # CR1, CR2 and CR3 target levels 2..12, 1..12 and 0..11: 35 entries, 13 levels
    assert len(report.entries) == 35
    # the blocks' Grams are the gradation's, so their factors come off its splits
    assert len(eighs) == 0
    assert mvop.check_commutation(circle12).entries == report.entries
    assert len(eighs) == 0
    # a replaced value keeps no split: its first call decomposes each target level once
    bare = dataclasses.replace(circle12, gradation=None)
    assert mvop.check_commutation(bare).entries == report.entries
    assert len(eighs) == 13
    eighs.clear()
    assert mvop.check_commutation(bare).entries == report.entries
    assert len(eighs) == 0  # a second call reads the splits the first one kept


def test_float_validate_decomposes_each_kernel_gram_once(circle12, eighs):
    fi = mvop.FockInput.from_fock_data(circle12)
    assert mvop.validate(fi).passed
    # one split per payload Gram, and nothing more: the kernel checks (on the
    # levels with null directions and the ones above them) and the
    # commutation check read their seminorm factors off those splits
    null_levels = {lev.degree for lev in circle12.gradation.levels if lev.nullity}
    kernel_levels = null_levels | {n + 1 for n in null_levels if n < 12}
    assert kernel_levels == set(range(2, 13))
    assert len(eighs) == 13


def test_checking_a_float_validation_report_splits_no_gram(circle12, eighs):
    fi = mvop.FockInput.from_fock_data(circle12)
    report = mvop.validate(fi)
    assert report.passed and len(eighs) == 13
    eighs.clear()
    # the report's blocks keep the splits validation completed them with
    checked = mvop.check_commutation(report.fock)
    assert len(eighs) == 0
    assert [(e.relation, f"pair {e.pair}, degree {e.degree}", e.residual, e.tolerance) for e in checked.entries] == [
        (c.name, c.detail, c.residual, c.tolerance) for c in report.checks if c.name.startswith("CR")
    ]


def test_a_caller_built_float_value_splits_each_level_once(circle12, eighs):
    given = mvop.FockData(
        circle12.dimension, circle12.depth, False, circle12.grams, circle12.aplus, circle12.azero, circle12.aminus
    )
    want = mvop.check_commutation(circle12).entries
    for _ in range(3):
        assert mvop.check_commutation(given).entries == want
    assert x_commutator_residual(given, 0, 1, 4) == x_commutator_residual(circle12, 0, 1, 4)
    # the first check splits each of the 13 target levels, and the value keeps the splits
    assert len(eighs) == 13


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_completed_value_is_freed_with_its_last_reference(mode, square_fn):
    # a value that is its own computing form holds no reference to itself, so
    # it and its splits go when the caller drops it, not at a later collection
    fock = mvop.assemble_fock(mvop.build_gradations(square_fn, 3, mode=mode))
    fi = mvop.FockInput.from_fock_data(fock)
    gc.disable()
    try:
        forms = [_linalg.computing(f) for f in (fock, mvop.validate(fi, mode=mode).fock)]
        assert all(mvop.check_commutation(form).passed for form in forms)
        refs = [weakref.ref(form) for form in forms]
        del fock, fi, forms
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# the level each seminorm check measures on, as an offset from its degree
TARGET = {"kernel_creation": 1, "kernel_preservation": 0, "CR1": 2, "CR2": 1, "CR3": 0}


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.fixture(scope="module")
def eight_atoms():
    """A seeded 8-atom planar measure's exact blocks at depth 8: zero Gram levels 4..8."""
    rng = np.random.default_rng(808)
    measure = random_rational_measure(rng, max_atoms=8)
    while len(measure.atoms) < 8:
        measure = random_rational_measure(rng, max_atoms=8)
    g = mvop.build_gradations(mvop.discrete_functional(measure), 8)
    fock = mvop.assemble_fock(g)
    zero = {n for n, gram in enumerate(fock.grams) if not any(gram.flat)}
    assert zero == {lev.degree for lev in g.levels if lev.rank == 0} == set(range(4, 9))
    return fock, zero


def test_exact_validate_forms_no_product_against_a_zero_gram(monkeypatch, eight_atoms):
    fock, zero = eight_atoms
    fi = mvop.FockInput.from_fock_data(fock)
    counts = {"max_quadratic": 0, "stack": 0}
    _counting(monkeypatch, _linalg, "max_quadratic", counts)
    _counting(monkeypatch, _linalg, "stack", counts)
    tol = Tolerances()
    report = mvop.validate(fi, tol=tol)
    assert report.passed
    seminorm_checks = [c for c in report.checks if c.name in TARGET]
    on_zero = [int(c.detail.rsplit(" ", 1)[1]) + TARGET[c.name] in zero for c in seminorm_checks]
    measured = [c for c, skip in zip(seminorm_checks, on_zero) if not skip]
    assert any(on_zero) and all(c.residual == 0.0 for c, skip in zip(seminorm_checks, on_zero) if skip)
    # the commutation residuals of genuine blocks are zero pairs, scored 0
    # with no seminorm, so only the kernel checks take one; CR3's two A^0 A^0
    # terms are its one product, of two stacks, and CR1 and CR2 form none
    assert counts["max_quadratic"] == sum(c.name.startswith("kernel") for c in measured) == 2
    assert counts["stack"] == 2 * sum(c.name == "CR3" for c in measured) == 8
    got = [(c.name, c.detail, c.residual, c.tolerance) for c in report.checks]
    assert got == ref_validate_checks(fi, tol)


def _recorded_matmuls(monkeypatch):
    calls = []
    matmul = _linalg.matmul

    def counted(*mats):
        calls.append(mats)
        return matmul(*mats)

    monkeypatch.setattr(_linalg, "matmul", counted)
    return calls


def test_exact_validate_solves_and_multiplies_nothing_on_a_zero_gram(monkeypatch, eight_atoms):
    fock, zero = eight_atoms
    fi = mvop.FockInput.from_fock_data(fock)
    matmuls = _recorded_matmuls(monkeypatch)
    counts = {"pseudo_apply": 0}
    _counting(monkeypatch, _linalg, "pseudo_apply", counts)
    tol = Tolerances()
    report = mvop.validate(fi, tol=tol)
    assert report.passed

    def all_zero(m):
        return m.dtype == object and not any((m.num if isinstance(m, _linalg.Cleared) else m).flat)

    assert matmuls and not any(all_zero(m) for mats in matmuls for m in mats)
    # one annihilation solve per coordinate and level n >= 1 with a nonzero G_n
    assert counts["pseudo_apply"] == fi.dimension * len(set(range(1, fi.depth + 1)) - zero) == 6
    got = [(c.name, c.detail, c.residual, c.tolerance) for c in report.checks]
    assert got == ref_validate_checks(fi, tol)


def test_reconstruction_compresses_only_the_levels_it_lifts(monkeypatch, eight_atoms):
    fock, _ = eight_atoms
    fi = mvop.FockInput.from_fock_data(fock)
    assert mvop.validate(fi).passed  # reconstruct_discrete reuses this run
    calls = _recorded_matmuls(monkeypatch)
    measure = mvop.reconstruct_discrete(fi)
    assert len(measure.atoms) == 8
    # the zero levels 4..8 sit at and past the rank-zero cutoff: none is compressed
    zero_operands = [m for mats in calls for m in mats if isinstance(m, _linalg.Cleared) and not m.num.any()]
    assert calls and not zero_operands


def test_exact_favard_multiplies_no_unit_columns(monkeypatch, eight_atoms):
    # level 0 (G_0 = [[1]]) and the zero levels 4..8 are diagonal: the combos
    # and kernels of their splits are unit columns, moved by index, and never
    # an operand of a product, in the checks or in reconstruction's lift
    fock, _ = eight_atoms
    fi = mvop.FockInput.from_fock_data(fock)
    calls = _recorded_matmuls(monkeypatch)
    assert mvop.validate(fi).passed
    assert len(mvop.reconstruct_discrete(fi).atoms) == 8
    # fi keeps the run validate and reconstruct_discrete shared, and a report holds its blocks
    form = _linalg.computing(mvop.validate(fi).fock)
    splits = [fock_module._split(form, n) for n in range(fi.depth + 1)]
    diagonal = [n for n, g in enumerate(fi.grams) if not np.count_nonzero(g - np.diag(np.diag(g)))]
    assert {0, 4, 5, 6, 7, 8} <= set(diagonal)
    units = [getattr(splits[n], name) for n in diagonal for name in ("combos", "null")]

    def unit_columns(m):
        num = m.num if isinstance(m, _linalg.Cleared) else np.asarray(m)
        return any(isinstance(u, _linalg.Cleared) and np.shares_memory(num, u.num) for u in units)

    assert calls and not any(unit_columns(m) for mats in calls for m in mats)


def test_refused_reconstruction_forms_no_product(monkeypatch):
    f = mvop.product_functional([mvop.gaussian_functional()] * 2)
    fi = mvop.FockInput.from_fock_data(mvop.assemble_fock(mvop.build_gradations(f, 3, mode="exact")))
    assert mvop.validate(fi).passed
    calls = _recorded_matmuls(monkeypatch)
    with pytest.raises(mvop.NotFinitelySupportedError):
        mvop.reconstruct_discrete(fi)
    assert calls == []


def test_float_check_scores_zero_levels_without_products(monkeypatch, eighs):
    fock = mvop.assemble_fock(mvop.build_gradations(_discrete(), 4, mode="float"))
    assert [lev.rank for lev in fock.gradation.levels] == [1, 2, 2, 0, 0]
    counts = {"_seminorm_residual": 0}
    _counting(monkeypatch, fock_module, "_seminorm_residual", counts)
    eighs.clear()
    report = mvop.check_commutation(fock)
    on_zero = [e for e in report.entries if e.degree + TARGET[e.relation] >= 3]
    assert on_zero and all(e.residual == 0.0 for e in on_zero)
    # CR1 is recorded, not measured: the canonical shifts commute
    measured = [e for e in report.entries if e.relation != "CR1" and e.degree + TARGET[e.relation] < 3]
    assert counts["_seminorm_residual"] == len(measured) == 5
    assert len(eighs) == 0  # the factors come off the gradation's splits
    assert mvop.check_commutation(fock).entries == report.entries
    assert len(eighs) == 0


def test_float_gram_edited_between_checks_is_seen():
    fock = mvop.assemble_fock(mvop.build_gradations(mvop.circle_functional(max_degree=18), 8))
    before = mvop.check_commutation(fock).entries
    fock = replaced(fock, "grams", 3, (0, 0), change=lambda v: v * 4.0)
    after = mvop.check_commutation(fock).entries
    assert after != before
    assert after == mvop.check_commutation(copy.deepcopy(fock)).entries


@pytest.mark.parametrize("name", ["circle", "skew"])
def test_vacuum_states_keep_only_reachable_levels(name):
    if name == "circle":
        fock = mvop.assemble_fock(mvop.build_gradations(mvop.circle_functional(max_degree=22), 10))
    else:
        m = mvop.DiscreteMeasure(((2, 0), (1, 1), (0, 0), (1, -1)), (Fraction(1, 4),) * 4)
        fock = mvop.assemble_fock(mvop.build_gradations(mvop.discrete_functional(m), 5))
    words = mvop.monomials_up_to(fock.dimension, fock.depth)
    for w in words:
        mvop.vacuum_moment(fock, w)
    *_, states = fock._vacuum
    assert set(states) == set(words)
    for w, (levels, den) in states.items():
        assert len(levels) - 1 == min(sum(w), fock.depth - sum(w))
        assert all(v is not None for v in levels) and den >= 1


@pytest.mark.parametrize("exact", [True, False])
def test_assembly_fetches_each_localizing_moment_once(exact):
    m = mvop.DiscreteMeasure(((2, 0, 1), (1, 1, 0), (0, 0, 0), (1, -1, 3)), (Fraction(1, 4),) * 4)
    f = mvop.discrete_functional(m)
    if not exact:
        f = mvop.as_float_functional(f)
    g = mvop.build_gradations(f, 3)
    asked = []
    fetch = f.moment

    def counting(alpha):
        asked.append(tuple(alpha))
        return fetch(alpha)

    f.moment = counting
    mvop.assemble_fock(g)
    monos = mvop.monomials_up_to(3, 3)
    localizing = {
        tuple(x + y + (k == i) for k, (x, y) in enumerate(zip(a, b)))
        for i in range(3)
        for a in monos
        for b in monos
    }
    assert sorted(asked) == sorted(localizing)


def test_localizing_matrices_are_the_moment_matrices():
    # float mode gathers each L_i from the rows of M and keeps the quadratic
    # form: bit for bit the one against the localizing matrix itself
    atoms = ((Fraction(1, 3), 0), (1, Fraction(1, 2)), (0, 0))
    m = mvop.DiscreteMeasure(atoms, (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
    for f, depth in ((mvop.discrete_functional(m), 3), (mvop.circle_functional(max_degree=16), 7)):
        g = mvop.build_gradations(f, depth, mode="float")
        coefs = [lev.coef for lev in g.levels]
        for i, got in enumerate(_preservation_rhs(g, coefs)):
            localizing = moment_matrix(g.functional, depth, tuple(int(k == i) for k in range(2)))
            for coef, rhs in zip(coefs, got):
                size = coef.shape[0]
                assert rhs.tobytes() == _linalg.gram_product(coef, localizing[:size, :size]).tobytes()


def test_creation_matrices_share_no_memory():
    for dtype in (float, object):
        a = mvop.creation_matrix(3, 1, 2, dtype)
        b = mvop.creation_matrix(3, 1, 2, dtype)
        assert not np.shares_memory(a, b)
        a[:] = 7
        assert b.sum() == b.shape[1] and set(b.flat) == {0, 1}


def test_not_psd_table_is_refused(tmp_path, capsys):
    f = mvop.table_functional(1, {(int(k),): v for k, v in NOT_PSD["entries"].items()}, 4)
    with pytest.raises(mvop.InconsistentMomentsError, match="null polynomial of degree 1"):
        mvop.build_gradations(f, 2, mode="exact")
    path = tmp_path / "not_psd.json"
    path.write_text(json.dumps(NOT_PSD))
    for argv in (["rank", "--max-degree", "2"], ["null", "--max-degree", "2", "--mode", "exact"]):
        assert main(argv + ["--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not a moment functional" in captured.err


def _measure(rng, d):
    k = rng.randint(1, 6)
    atoms = set()
    while len(atoms) < k:
        atoms.add(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)))
    raw = [rng.randint(1, 9) for _ in range(k)]
    return mvop.DiscreteMeasure(tuple(sorted(atoms)), tuple(Fraction(r, sum(raw)) for r in raw))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_genuine_rational_data_passes_the_null_moment_check(d):
    rng = random.Random(4100 + d)
    depth = {1: 6, 2: 4, 3: 3}[d]
    deficient = 0
    for _ in range(12):
        f = mvop.discrete_functional(_measure(rng, d))
        entries = {alpha: f.moment(alpha) for alpha in mvop.monomials_up_to(d, 2 * depth)}
        for source in (f, mvop.table_functional(d, entries, 2 * depth)):
            g = mvop.build_gradations(source, depth, mode="exact")
            deficient += any(lev.nullity for lev in g.levels)
    assert deficient >= 12  # the check ran on most draws


@pytest.fixture
def creation_arrays(monkeypatch):
    """Every creation block the library builds, and the numerators of its pairs."""
    made = []

    def recording(make):
        def wrapped(*args, **kwargs):
            out = make(*args, **kwargs)
            made.append(out)
            return out

        return wrapped

    clear = _linalg.cleared

    def clearing(x):
        out = clear(x)
        if any(x is block for block in made):
            made.append(out.num)
        return out

    monkeypatch.setattr(fock_module, "creation_matrix", recording(fock_module.creation_matrix))
    monkeypatch.setattr(_linalg, "cleared", clearing)
    return made


def test_forward_exact_run_multiplies_no_creation_block(monkeypatch, creation_arrays):
    # a 3-D product with a 3-atom factor: deficient from degree 3, so the null
    # ideal inherits shifted kernels as well
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    atoms = mvop.discrete_functional(mvop.DiscreteMeasure(((-1,), (half,), (2,)), (quarter, half, quarter)))
    f = mvop.product_functional([mvop.gaussian_functional(), atoms, mvop.gaussian_functional()])
    matmuls = _recorded_matmuls(monkeypatch)
    # vacuum words multiply numerators in their own step: the factors of each one
    steps = []
    step = fock_module._word_step

    def recording(blocks, i, state, reach):
        steps.append(blocks[i])
        return step(blocks, i, state, reach)

    monkeypatch.setattr(fock_module, "_word_step", recording)
    g = mvop.build_gradations(f, 4)
    fock = mvop.assemble_fock(g)
    assert mvop.check_commutation(fock).passed
    words = mvop.monomials_up_to(3, 4)
    moments = [f.moment(w) for w in words]
    assert [mvop.vacuum_moment(fock, w) for w in words] == moments
    basis = mvop.base_generators(g)
    assert any(row["inherited"] for row in basis.reduction_log)
    adjointness = mvop.adjointness_residuals(fock)
    xcomm = x_commutator_residual(fock, 0, 2, 1)
    assert matmuls and creation_arrays == []  # no creation block is even built
    # every word step scatters through the creation maps
    assert steps and all(isinstance(b, _linalg.Units) for _, aplus, *_ in steps for b in aplus)

    # published blocks pass the canonicity test, and are multiplied no more
    report = mvop.check_commutation(fock)
    assert len(fock.aplus) == 3 and len(creation_arrays) == 3 * 4
    matmuls.clear()
    assert mvop.check_commutation(fock).entries == report.entries
    assert mvop.adjointness_residuals(fock) == adjointness
    assert x_commutator_residual(fock, 0, 2, 1) == xcomm

    def is_creation(m):
        a = m.num if isinstance(m, _linalg.Cleared) else m
        return any(a is block or a.base is block for block in creation_arrays)

    assert matmuls and not any(is_creation(m) for mats in matmuls for m in mats)

    # so are words on the published blocks, in a fresh memo
    steps.clear()
    fresh = dataclasses.replace(fock)
    assert [mvop.vacuum_moment(fresh, w) for w in words] == moments
    assert steps and all(isinstance(b, _linalg.Units) for _, aplus, *_ in steps for b in aplus)
    products = [b for _, _, azero, aminus in steps for b in azero + aminus[1:]]
    assert not any(is_creation(b) for b in products)


def test_exact_product_run_eliminates_and_solves_by_no_product(monkeypatch):
    # a Gaussian, a rational recurrence and a 3-atom factor: every candidate
    # is a product of 1-D orthogonal polynomials, so every Gram is diagonal
    recurrence = mvop.JacobiPair1D(
        tuple(Fraction(k + 2, 3) for k in range(10)), tuple(Fraction(k % 3 - 1, 2) for k in range(10))
    )
    third = Fraction(1, 3)
    atoms = mvop.DiscreteMeasure(((-2,), (third,), (3,)), (third, third, third))
    f = mvop.product_functional(
        [mvop.gaussian_functional(), mvop.jacobi_to_moments(recurrence, 10), mvop.discrete_functional(atoms)]
    )
    counts = {"_eliminate": 0, "pseudo_apply": 0}
    _counting(monkeypatch, _linalg, "_eliminate", counts)
    matmuls = _recorded_matmuls(monkeypatch)
    pseudo_apply = _linalg.pseudo_apply

    def solving(split, rhs):
        before = len(matmuls)
        out = pseudo_apply(split, rhs)
        assert len(matmuls) == before, "pseudo_apply formed a product"
        counts["pseudo_apply"] += 1
        return out

    monkeypatch.setattr(_linalg, "pseudo_apply", solving)
    g = mvop.build_gradations(f, 4)
    fock = mvop.assemble_fock(g)
    assert mvop.check_commutation(fock).passed
    words = mvop.monomials_up_to(3, 4)
    assert [mvop.vacuum_moment(fock, w) for w in words] == [f.moment(w) for w in words]
    assert len(mvop.base_generators(g).generators) == 1
    assert [lev.nullity for lev in g.levels] == [0, 0, 0, 1, 3]
    assert counts["_eliminate"] == 0 and counts["pseudo_apply"] > 0


def test_float_check_splits_a_replaced_value_once(eighs):
    fock = mvop.assemble_fock(mvop.build_gradations(mvop.circle_functional(max_degree=18), 8))
    fock = replaced(fock, "grams", 3, (0, 0), change=lambda v: v * 4.0)
    eighs.clear()
    report = mvop.check_commutation(fock)
    # a new value keeps no split of the one it came from: every Gram is split once
    assert len(eighs) == 9
    eighs.clear()
    assert report.entries == mvop.check_commutation(fock).entries
    assert len(eighs) == 0
    # so is one under another rank cutoff
    coarse = dataclasses.replace(fock, tolerances=Tolerances(rank=1e-6))
    report = mvop.check_commutation(coarse)
    assert len(eighs) == 9
    assert report.entries == mvop.check_commutation(coarse).entries
    assert len(eighs) == 9


def _plan_calls():
    """(hits, misses) of the moment-plan, level-weight and float localizing-index caches, in turn."""
    caches = (gradation_module._moment_plan, gradation_module._level_weights, fock_module._localizing_rows)
    return tuple(n for cache in caches for n in cache.cache_info()[:2])


@pytest.mark.parametrize(
    "first, second, depth, mode",
    [
        (lambda: _spec("prod3.json", 3), lambda: _spec("six3d.json", 3), 3, "exact"),
        (lambda: mvop.circle_functional(max_degree=14), lambda: mvop.circle_functional(half=True, max_degree=14), 6, "float"),
    ],
    ids=["prod3-six3d-exact", "circles-float"],
)
def test_a_repeated_shape_builds_no_plan(first, second, depth, mode):
    for make in (first, second):
        g = mvop.build_gradations(make(), depth, mode=mode)
        mvop.assemble_fock(g)
        if make is first:
            before = _plan_calls()
        # the weights of every level are the reciprocal multinomials of its monomials
        assert all(lev.weights == tuple(index_weight(a) for a in lev.monomials) for lev in g.levels)
    # the second run takes its two plans, its depth + 1 weight tuples and,
    # in float mode, its localizing index from the caches
    after = _plan_calls()
    assert after[1::2] == before[1::2]
    hits = tuple(a - b for a, b in zip(after[::2], before[::2]))
    assert hits == (2, depth + 1, mode == "float")
    assert not any(index.flags.writeable for index in fock_module._localizing_rows(2, depth))


def test_float_creation_blocks_are_built_once_per_shape(monkeypatch):
    # A^+ is a constant of the shape: the first float run of a shape builds
    # its d * depth blocks, read-only, and every later assembly, check and
    # null ideal of the shape reads the same ones
    made = []
    make = fock_module.creation_matrix
    monkeypatch.setattr(fock_module, "creation_matrix", lambda *a, **k: made.append(a) or make(*a, **k))
    fock_module._creation.cache_clear()
    gradations = [
        mvop.build_gradations(mvop.circle_functional(half=half, max_degree=12), 5, mode="float")
        for half in (False, True)
    ]
    first, second = map(mvop.assemble_fock, gradations)
    for g, fock in zip(gradations, (first, second)):
        assert mvop.check_commutation(fock).passed
        assert mvop.base_generators(g).generators
    assert len(made) == 2 * 5
    assert all(a is b and not a.flags.writeable for p, q in zip(first.aplus, second.aplus) for a, b in zip(p, q))
    # the public builder still returns a fresh, writable array
    assert make(2, 0, 1).flags.writeable


def _applied_by_hand(fock, i, state):
    """X_i applied term by term with the public blocks, exact products as Fraction arrays."""
    out = {}
    for n, v in state.items():
        terms = [(n + 1, fock.aplus[i][n]), (n, fock.azero[i][n])] + ([(n - 1, fock.aminus[i][n])] if n else [])
        for level, block in terms:
            vec = block @ v
            if fock.exact:
                vec = np.array([Fraction(x) for x in vec], dtype=object)
            out[level] = out[level] + vec if level in out else vec
    return out


def _states(fock, rng):
    sizes = [len(mvop.monomials_of_degree(fock.dimension, n)) for n in range(fock.depth)]
    if fock.exact:
        def draw(k):
            return np.array([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k)], dtype=object)
    else:
        def draw(k):
            return np.array([rng.uniform(-2, 2) for _ in range(k)])
    singles = [{n: draw(k)} for n, k in enumerate(sizes)]
    return singles + [{n: draw(k) for n, k in enumerate(sizes)}]


@pytest.mark.parametrize("name", ["prod3", "square", "circle"])
def test_apply_coordinate_reads_the_computing_form(name, monkeypatch):
    if name == "circle":
        g = mvop.build_gradations(mvop.circle_functional(max_degree=14), 6)
    else:
        g = mvop.build_gradations(_spec(f"{name}.json", 3), 3)
    assembled = mvop.assemble_fock(g)
    # the same blocks given as public arrays: a value that makes its computing form on first need
    given = mvop.FockData(
        assembled.dimension, assembled.depth, assembled.exact, assembled.grams,
        assembled.aplus, assembled.azero, assembled.aminus,
    )
    calls = []
    clear = _linalg.cleared

    def counting(x):
        calls.append(x)
        return clear(x)

    monkeypatch.setattr(_linalg, "cleared", counting)
    rng = random.Random(28)
    for fock in (assembled, given):
        states = _states(fock, rng)
        mvop.apply_coordinate(fock, 0, states[0])
        calls.clear()
        for state in states:
            for i in range(fock.dimension):
                got = mvop.apply_coordinate(fock, i, state)
                want = _applied_by_hand(fock, i, state)
                assert list(got) == list(want)
                for level, vec in got.items():
                    if fock.exact:
                        assert [(type(x), x) for x in vec] == [(type(x), x) for x in want[level]]
                        assert all(type(x) is Fraction for x in vec)
                    else:
                        assert vec.dtype == float and vec.tobytes() == want[level].tobytes()
        # after the first application only the state vectors are cleared, never a block
        assert [x for x in calls if isinstance(x, np.ndarray) and x.ndim == 2] == []
