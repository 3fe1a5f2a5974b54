"""Per-op work is done once: Gram factors per check, vacuum states, localizing moments.

A float check on assembled blocks reads the gradation's split of each Gram
still equal to the one split, and decomposes any other target-level Gram
once per call, keeping no factor on the FockData, so an in-place edit
between calls is seen; float validation decomposes each payload Gram once
in all. A forward exact run multiplies no creation block: the canonical
shifts act as index maps. A seminorm check forms no product on a level
whose seminorm vanishes, exact validation runs no elimination, solve or
product against a zero Gram level, and reconstruction compresses only the
levels below its rank-zero cutoff. A memoized vacuum
state keeps only the levels that can still reach the vacuum. Assembly
fetches each distinct localizing moment once for all coordinates. Exact
gradations refuse data whose seminorm-null polynomials have a nonzero
moment, which no moment functional has.
"""

import copy
import dataclasses
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import mvop
from conftest import random_rational_measure
from mvop import _linalg, fock as fock_module, nullideal
from mvop.cli import main
from mvop.fock import _preservation_rhs
from mvop.scalars import Tolerances
from reference import moment_matrix, x_commutator_residual
from test_exact_kernels import ref_validate_checks
from test_moment_matrix import _discrete

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
    # without the gradation, a call decomposes each target level once
    bare = dataclasses.replace(circle12, gradation=None)
    assert mvop.check_commutation(bare).entries == report.entries
    assert len(eighs) == 13
    eighs.clear()
    assert mvop.check_commutation(bare).entries == report.entries
    assert len(eighs) == 13  # a second call decomposes afresh


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
    assert counts["_seminorm_residual"] == len(report.entries) - len(on_zero) == 6
    assert len(eighs) == 0  # the factors come off the gradation's splits
    assert mvop.check_commutation(fock).entries == report.entries
    assert len(eighs) == 0


def test_float_gram_edited_between_checks_is_seen():
    fock = mvop.assemble_fock(mvop.build_gradations(mvop.circle_functional(max_degree=18), 8))
    before = mvop.check_commutation(fock).entries
    fock.grams[3][0, 0] *= 4.0
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
    _, states = fock._vacuum
    assert set(states) == set(words)
    for w, state in states.items():
        assert 0 in state
        assert max(state) == min(sum(w), fock.depth - sum(w))


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
    monkeypatch.setattr(nullideal, "creation_matrix", recording(nullideal.creation_matrix))
    monkeypatch.setattr(_linalg, "cleared", clearing)
    return made


def test_forward_exact_run_multiplies_no_creation_block(monkeypatch, creation_arrays):
    # a 3-D product with a 3-atom factor: deficient from degree 3, so the null
    # ideal inherits shifted kernels as well
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    atoms = mvop.discrete_functional(mvop.DiscreteMeasure(((-1,), (half,), (2,)), (quarter, half, quarter)))
    f = mvop.product_functional([mvop.gaussian_functional(), atoms, mvop.gaussian_functional()])
    matmuls = _recorded_matmuls(monkeypatch)
    g = mvop.build_gradations(f, 4)
    fock = mvop.assemble_fock(g)
    assert mvop.check_commutation(fock).passed
    words = mvop.monomials_up_to(3, 4)
    assert [mvop.vacuum_moment(fock, w) for w in words] == [f.moment(w) for w in words]
    basis = mvop.base_generators(g)
    assert any(row["inherited"] for row in basis.reduction_log)
    adjointness = mvop.adjointness_residuals(fock)
    xcomm = x_commutator_residual(fock, 0, 2, 1)
    assert matmuls and creation_arrays == []  # no creation block is even built

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


def test_float_check_splits_only_an_edited_gram_afresh(eighs):
    fock = mvop.assemble_fock(mvop.build_gradations(mvop.circle_functional(max_degree=18), 8))
    fock.grams[3][0, 0] *= 4.0
    eighs.clear()
    report = mvop.check_commutation(fock)
    assert len(eighs) == 1  # level 3 alone: the gradation split the Gram before the edit
    eighs.clear()
    assert report.entries == mvop.check_commutation(dataclasses.replace(fock, gradation=None)).entries
    assert len(eighs) == 9
    # another rank cutoff splits every Gram afresh
    eighs.clear()
    coarse = dataclasses.replace(fock, tolerances=Tolerances(rank=1e-6))
    report = mvop.check_commutation(coarse)
    assert len(eighs) == 9
    assert report.entries == mvop.check_commutation(dataclasses.replace(coarse, gradation=None)).entries
