import dataclasses
import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import mvop
from mvop import fock as fock_module
from reference import replaced, x_commutator_residual


def test_creation_matrix_structure():
    a1 = mvop.creation_matrix(2, 0, 1)
    a2 = mvop.creation_matrix(2, 1, 1)
    # degree-1 order (x, y); degree-2 order (x^2, xy, y^2)
    assert a1.tolist() == [[1, 0], [0, 1], [0, 0]]
    assert a2.tolist() == [[0, 0], [1, 0], [0, 1]]
    for d, i, n in [(2, 0, 3), (3, 2, 2)]:
        mat = mvop.creation_matrix(d, i, n)
        assert mat.shape == (
            mvop.space_dimension(d, n + 1),
            mvop.space_dimension(d, n),
        )
        assert np.all(mat.sum(axis=0) == 1)


@pytest.mark.parametrize("d, i", [(2, -1), (2, 2), (3, 5), (1, 1)])
def test_creation_matrix_rejects_coordinates_out_of_range(d, i):
    for n in (0, 1):
        with pytest.raises(ValueError, match=rf"coordinate {i} outside 0\.\.{d - 1}"):
            mvop.creation_matrix(d, i, n)


def test_circle_spectra(circle_gradation):
    assert mvop.nonzero_spectrum(circle_gradation, 0) == pytest.approx([1.0])
    for n, want in [(1, 0.5), (2, 0.25), (3, 0.125)]:
        spec = mvop.nonzero_spectrum(circle_gradation, n)
        assert len(spec) == 1
        assert spec[0] == pytest.approx(want, abs=1e-10)


def test_assemble_fock_shapes(circle_fock):
    f = circle_fock
    assert f.depth == 8
    assert f.aminus[0][0] is None
    for i in range(2):
        for n in range(f.depth):
            rows, cols = f.aplus[i][n].shape
            assert (rows, cols) == (n + 2, n + 1)
        for n in range(1, f.depth + 1):
            rows, cols = f.aminus[i][n].shape
            assert (rows, cols) == (n, n + 1)


def test_adjointness_residuals_vanish(circle_fock):
    res = mvop.adjointness_residuals(circle_fock)
    assert res
    assert max(res.values()) <= 1e-12


def test_azero_symmetry_residuals_vanish(circle_fock):
    res = mvop.azero_symmetry_residuals(circle_fock)
    assert max(res.values()) <= 1e-12


def test_symmetric_measures_have_zero_preservation(circle_fock, square_gradation):
    for i in range(2):
        for block in circle_fock.azero[i]:
            assert np.max(np.abs(block)) <= 1e-12
    square_fock = mvop.assemble_fock(square_gradation)
    for i in range(2):
        for block in square_fock.azero[i]:
            assert all(v == 0 for v in block.flat)


def test_commutation_passes_on_circle(circle_fock):
    report = mvop.check_commutation(circle_fock)
    assert report.passed
    assert report.max_residual <= 1e-10
    assert {e.relation for e in report.entries} == {"CR1", "CR2", "CR3"}
    assert all(e.pair == (1, 2) for e in report.entries)
    cr1_degrees = [e.degree for e in report.entries if e.relation == "CR1"]
    cr3_degrees = [e.degree for e in report.entries if e.relation == "CR3"]
    assert max(cr1_degrees) == circle_fock.depth - 2
    assert max(cr3_degrees) == circle_fock.depth - 1
    assert report.failures() == []


@pytest.mark.parametrize("depth", [10, 11, 12])
def test_commutation_passes_on_deep_float_circle(depth):
    # these depths used to fail CR3 at degree depth - 1 in float mode
    circle = mvop.circle_functional(max_degree=2 * depth + 2)
    report = mvop.check_commutation(mvop.assemble_fock(mvop.build_gradations(circle, depth)))
    assert report.passed, report.failures()
    assert report.max_residual <= 1e-12


@pytest.mark.parametrize("half, depth", [(False, 12), (True, 6)])
def test_float_cr1_multiplied_out_is_the_recorded_entry(half, depth):
    # the public float shifts commute exactly in binary64: the products of
    # CR1 measured in the target-level seminorm give the recorded 0.0, and
    # the tolerance scaled by their largest entries the recorded one
    circle = mvop.circle_functional(half=half, max_degree=2 * depth + 2)
    fock = mvop.assemble_fock(mvop.build_gradations(circle, depth, mode="float"))
    seminorm = fock_module._seminorms(fock)  # an assembled value is its own computing form
    ap = fock.aplus
    want = []
    for n in range(depth - 1):
        residual = seminorm(lambda: ap[0][n + 1] @ ap[1][n] + (-ap[1][n + 1]) @ ap[0][n], n + 2)
        scale = max(1.0, float(np.max(np.abs(ap[0][n]))), float(np.max(np.abs(ap[1][n + 1]))))
        want.append((n, residual.hex(), (fock.tolerances.comm * scale).hex()))
    got = [
        (e.degree, e.residual.hex(), e.tolerance.hex())
        for e in mvop.check_commutation(fock).entries
        if e.relation == "CR1"
    ]
    assert got == want and {residual for _, residual, _ in want} == {(0.0).hex()}


def test_commutation_passes_on_wide_float_measure():
    # seven atoms with coordinates up to 30: the degree-3 Gram has rounding
    # eigenvalues ~2e-8 above the split's cutoff, which its top eigenvalue
    # ~7e6 dwarfs, so the seminorm must also drop every direction below
    # tol.rank relative to the top eigenvalue
    atoms = ((-30, -23), (-16, -12), (-15, 21), (-2, 1), (17, 29), (21, 29), (24, -5))
    weights = tuple(k / 28 for k in (3, 4, 6, 5, 1, 1, 8))
    f = mvop.discrete_functional(mvop.DiscreteMeasure(atoms=atoms, weights=weights))
    report = mvop.check_commutation(mvop.assemble_fock(mvop.build_gradations(f, 3)))
    assert report.passed, report.failures()


def test_commutation_passes_exact(square_gradation, skew_fn):
    square_fock = mvop.assemble_fock(square_gradation)
    report = mvop.check_commutation(square_fock)
    assert report.passed
    assert report.max_residual == 0
    skew_fock = mvop.assemble_fock(mvop.build_gradations(skew_fn, 4))
    assert mvop.check_commutation(skew_fock).passed


def test_perturbed_preservation_fails_commutation(square_gradation):
    # a float perturbation makes a float copy (exact=False), judged by float tolerances
    fock = mvop.assemble_fock(square_gradation)
    fock = replaced(dataclasses.replace(fock, exact=False), "azero", 0, 1, (0, 1), change=lambda v: v + 0.001)
    report = mvop.check_commutation(fock)
    assert not report.passed
    assert any(e.relation in ("CR2", "CR3") for e in report.failures())


def test_exact_commutation_fails_on_any_nonzero_residual(square_gradation):
    # 1/10^12 is within the 1e-10 float tolerance; an exact residual passes only at zero
    fock = mvop.assemble_fock(square_gradation)
    fock = replaced(fock, "azero", 0, 1, (0, 1), change=lambda v: v + Fraction(1, 10**12))
    report = mvop.check_commutation(fock)
    assert not report.passed
    assert [(e.relation, e.degree, e.residual, e.tolerance) for e in report.failures()] == [
        ("CR2", 0, 1e-12, 0.0),
        ("CR2", 1, 1e-12, 0.0),
    ]
    assert all(e.residual == 0 for e in report.entries if e.passed)


def test_exact_solve_check_raises_on_any_nonzero_residual(square_fn):
    g = mvop.build_gradations(square_fn, 3)
    level = replaced(g.levels[1], "gram", (0, 0), change=lambda v: v + Fraction(1, 10**12))
    g = dataclasses.replace(g, levels=[g.levels[0], level, *g.levels[2:]])
    with pytest.raises(mvop.InternalConsistencyError, match="annihilation solve failed"):
        mvop.assemble_fock(g)


def test_vacuum_moment_circle(circle_fock, circle):
    vacuum = mvop.vacuum_moment(circle_fock, (2, 2))
    assert vacuum == pytest.approx(0.125, abs=1e-12)
    for a in range(5):
        for b in range(5 - a):
            got = mvop.vacuum_moment(circle_fock, (a, b))
            assert got == pytest.approx(circle.moment((a, b)), abs=1e-9)


def test_vacuum_moment_exact(square_gradation, square_fn):
    fock = mvop.assemble_fock(square_gradation)
    for a in range(4):
        for b in range(4 - a):
            assert mvop.vacuum_moment(fock, (a, b)) == square_fn.moment((a, b))


def test_vacuum_moment_depth_guard(circle_fock):
    with pytest.raises(mvop.DepthExceededError):
        mvop.vacuum_moment(circle_fock, (9, 0))


def test_non_integer_multi_index_is_refused():
    atoms = ((1, 2), (-1, 1), (-1, -1), (1, -1))
    f = mvop.discrete_functional(mvop.DiscreteMeasure(atoms, (Fraction(1, 4),) * 4))
    with pytest.raises(ValueError, match="integer"):
        f.moment((1.5, 0))
    fock = mvop.assemble_fock(mvop.build_gradations(f, 3, mode="exact"))
    with pytest.raises(ValueError, match="integer"):
        mvop.vacuum_moment(fock, (0.5, 0))
    assert mvop.vacuum_moment(fock, (np.int64(1), 1)) == f.moment((1, 1))


def test_apply_coordinate_moves_levels(circle_fock):
    state = {0: np.array([1.0])}
    out = mvop.apply_coordinate(circle_fock, 0, state)
    assert set(out) <= {0, 1}
    assert np.allclose(out[1], [1.0, 0.0])
    top = {circle_fock.depth: np.ones(circle_fock.depth + 1)}
    with pytest.raises(mvop.DepthExceededError):
        mvop.apply_coordinate(circle_fock, 0, top)
    for i in (-1, 2):
        with pytest.raises(ValueError, match="coordinate"):
            mvop.apply_coordinate(circle_fock, i, state)
    with pytest.raises(ValueError, match="level"):
        mvop.apply_coordinate(circle_fock, 0, {-1: np.array([1.0])})


def test_spectrum_invariant_under_coordinate_swap(skew_fn):
    swapped = mvop.discrete_functional(
        mvop.DiscreteMeasure(
            atoms=((0, 2), (1, 1), (0, 0), (-1, 1)),
            weights=(Fraction(1, 4),) * 4,
        )
    )
    g1 = mvop.build_gradations(skew_fn, 3)
    g2 = mvop.build_gradations(swapped, 3)
    for n in range(4):
        s1 = mvop.nonzero_spectrum(g1, n)
        s2 = mvop.nonzero_spectrum(g2, n)
        assert s1 == pytest.approx(s2, abs=1e-9)


def test_x_commutator_residual(circle_fock):
    for n in range(circle_fock.depth - 1):
        assert x_commutator_residual(circle_fock, 0, 1, n) <= 1e-10
    with pytest.raises(mvop.DepthExceededError):
        x_commutator_residual(circle_fock, 0, 1, circle_fock.depth - 1)
    for j, k in ((-1, 0), (0, -1), (5, 0), (0, 2)):
        with pytest.raises(ValueError, match="coordinate"):
            x_commutator_residual(circle_fock, j, k, 0)
    with pytest.raises(ValueError, match="degree"):
        x_commutator_residual(circle_fock, 0, 1, -1)
    line = mvop.assemble_fock(mvop.build_gradations(mvop.gaussian_functional(), 3))
    with pytest.raises(ValueError, match="degree"):
        x_commutator_residual(line, 0, 0, -1)


def test_gram_accessors(circle_gradation):
    g2 = circle_gradation.level(2).gram
    o2 = circle_gradation.level(2).omega()
    assert g2.shape == (3, 3)
    assert o2[1, 1] == pytest.approx(2.0 * g2[1, 1])


def test_assemble_depth_guard(circle):
    g = mvop.build_gradations(circle, 8)
    assert mvop.assemble_fock(g).depth == 8
    g9 = mvop.build_gradations(circle, 9)
    with pytest.raises(mvop.DepthExceededError):
        mvop.assemble_fock(g9)


def test_tolerances_have_one_setting():
    assert [f.name for f in dataclasses.fields(mvop.Tolerances)] == ["rank"]
    for name in ("null", "comm", "adj", "psd"):
        assert getattr(mvop.Tolerances, name) == 1e-10
        assert getattr(mvop.Tolerances(rank=1e-6), name) == 1e-10
        with pytest.raises(TypeError):
            mvop.Tolerances(**{name: 1e-9})


def test_assemble_fock_carries_the_gradation_tolerances(square_fn, circle):
    for fn in (square_fn, circle):
        g = mvop.build_gradations(fn, 3, tol=mvop.Tolerances(rank=1e-7))
        fock = mvop.assemble_fock(g)
        assert fock.tolerances == g.tol == mvop.Tolerances(rank=1e-7)
        # the blocks carry them, not only their gradation
        assert dataclasses.replace(fock, gradation=None).tolerances == g.tol


@pytest.mark.parametrize(
    "name, has_tol",
    [
        ("assemble_fock", False),
        ("check_commutation", False),
        ("self_adjointness_bound", False),
        ("nonzero_spectrum", False),
        ("jacobi_1d", False),
        ("diagonal_product_check", False),
        ("diagonal_table_from_grams", False),
        ("build_gradations", True),
        ("validate", True),
        ("reconstruct_discrete", True),
    ],
)
def test_tolerances_are_set_where_the_data_is_built(name, has_tol):
    # later judgments read the tolerances their data carries
    assert ("tol" in inspect.signature(getattr(mvop, name)).parameters) == has_tol


def test_no_coordinate_pair_is_walked_without_a_relation():
    # depth 0 leaves no commutation relation, so the check costs nothing per
    # coordinate pair: a d = 5000 payload has 12.5 million of them
    d = 300
    zero = np.zeros((1, 1), dtype=object)
    fi = mvop.FockInput(d, 0, [np.array([[1]], dtype=object)], [[zero] for _ in range(d)])
    lines = []

    def local(frame, event, arg):
        if event == "line":
            lines.append(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is fock_module.check_commutation.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        report = mvop.validate(fi)
    finally:
        sys.settrace(previous)
    assert report.passed and not any(c.name.startswith("CR") for c in report.checks)
    assert 0 < len(lines) < d
    fock = mvop.assemble_fock(mvop.build_gradations(mvop.gaussian_functional(), 3))
    assert mvop.check_commutation(fock).entries == ()  # one coordinate: no pair at all
