import copy
import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mvop
from mvop import _linalg
from reference import replaced


SQUARE_FOCK = Path(__file__).parent / "golden" / "square_fock.json"


def fock_input_of(functional, depth):
    g = mvop.build_gradations(functional, depth)
    return mvop.FockInput.from_fock_data(mvop.assemble_fock(g))


def test_validate_passes_on_measure_born_blocks(circle_fock):
    report = mvop.validate(mvop.FockInput.from_fock_data(circle_fock))
    assert report.passed
    assert report.positive and report.condition_i and report.condition_ii
    assert report.hermiticity
    assert report.failures() == []
    assert report.summary().startswith("all ")
    assert report.fock is not None


def test_validate_passes_exact(square_fn):
    report = mvop.validate(fock_input_of(square_fn, 3))
    assert report.passed
    assert all(c.residual == 0 for c in report.checks)


@pytest.mark.parametrize("name", ["square_fn", "circle"])
def test_validate_completes_the_same_blocks(request, name):
    # moment-born blocks and the same blocks supplied to validate share one completion
    fock = mvop.assemble_fock(mvop.build_gradations(request.getfixturevalue(name), 3))
    again = mvop.validate(mvop.FockInput.from_fock_data(fock)).fock
    assert again.exact == fock.exact
    for kind in ("aplus", "azero", "aminus"):
        for mine, theirs in zip(getattr(again, kind), getattr(fock, kind)):
            for a, b in zip(mine, theirs):
                if b is None:
                    assert a is None
                elif fock.exact:
                    assert a.dtype == object and a.tolist() == b.tolist()
                else:
                    assert np.array_equal(a, b)


def test_diagonal_blocks_without_product_structure_fail():
    omegas = [
        np.array([[1.0]]),
        np.eye(2),
        np.diag([1.0, 1.0, 2.0]),
    ]
    fi = mvop.FockInput.from_omegas(2, omegas)
    report = mvop.validate(fi)
    assert not report.passed
    bad = report.failures()
    assert [c.name for c in bad] == ["CR3"]
    assert bad[0].residual == pytest.approx(0.5, abs=1e-12)
    assert "degree 1" in bad[0].detail


def test_tampered_preservation_breaks_hermiticity(square_fn):
    fi = fock_input_of(square_fn, 3)
    fi = replaced(fi, "bzero", 0, 1, (0, 1), change=lambda v: v + Fraction(1, 1000))
    report = mvop.validate(fi)
    assert not report.passed
    assert "hermiticity" in {c.name for c in report.failures()}


def test_tampered_gram_breaks_kernel_creation(square_fn):
    fi = fock_input_of(square_fn, 3)
    fi = replaced(fi, "grams", 3, ..., change=lambda g: np.eye(4, dtype=object) * Fraction(1, 100))
    report = mvop.validate(fi)
    assert not report.passed
    assert "kernel_creation" in {c.name for c in report.failures()}
    assert not report.condition_i


def test_tampered_preservation_breaks_kernel_preservation(square_fn):
    fi = fock_input_of(square_fn, 3)
    # send the null direction x^2 - 1 onto xy, which has positive seminorm
    fi = replaced(fi, "bzero", 0, 2, (1, 0), change=lambda v: v + Fraction(1, 10))
    report = mvop.validate(fi)
    assert not report.passed
    assert "kernel_preservation" in {c.name for c in report.failures()}


def test_non_psd_gram_short_circuits(square_fn):
    fi = fock_input_of(square_fn, 2)
    fi = replaced(fi, "grams", 1, ..., change=lambda g: np.array([[1, 0], [0, -1]], dtype=object))
    report = mvop.validate(fi)
    assert not report.passed
    assert not report.positive
    names = {c.name for c in report.checks}
    assert names == {"normalization", "psd"}


def test_exact_psd_is_decided_by_the_exact_split():
    # [[1, 1], [1, 1 - 1e-20]] has determinant -1e-20: not positive
    # semidefinite, though binary64 rounds it to a PSD matrix; the index
    # weights up to degree 1 are 1, so these omegas are the Grams
    omegas = [
        np.array([[1]], dtype=object),
        np.array([[1, 1], [1, 1 - Fraction(1, 10**20)]], dtype=object),
    ]
    fi = mvop.FockInput.from_omegas(2, omegas)
    report = mvop.validate(fi)
    assert not report.passed
    assert not report.positive
    assert [(c.name, c.detail) for c in report.failures()] == [("psd", "degree 1")]
    assert {c.name for c in report.checks} == {"normalization", "psd"}
    assert report.fock is None
    # the float view of the same blocks cannot see the negative direction
    assert mvop.validate(fi, mode="float").positive


def test_rational_gram_must_be_exactly_symmetric():
    payload = {"dimension": 2, "depth": 1, "gram": [[[1]], [[1, "1/1000000000000"], [0, 1]]]}
    with pytest.raises(mvop.SpecFormatError, match="Gram at degree 1 is not symmetric"):
        mvop.FockInput.from_json_dict(payload)
    # a float Gram keeps the rounding allowance
    payload["gram"][1][0][1] = 1e-12
    assert not mvop.FockInput.from_json_dict(payload).exact


def test_asymmetric_exact_gram_fails_psd(square_fn):
    fi = fock_input_of(square_fn, 2)
    asymmetric = np.array([[1, Fraction(1, 10**12)], [0, 1]], dtype=object)
    with pytest.raises(mvop.InconsistentMomentsError, match="exact Gram matrix is not symmetric"):
        _linalg.split_gram(asymmetric, exact=True, tol_rank=1e-10, tol_psd=1e-10)
    # the payload refuses it before any validation
    with pytest.raises(ValueError, match="Gram at degree 1 is not symmetric"):
        replaced(fi, "grams", 1, ..., change=lambda g: asymmetric)


def test_exact_vacuum_normalization_is_exact():
    payload = json.loads(SQUARE_FOCK.read_text())
    payload["gram"][0][0][0] = "1000000000001/1000000000000"
    fi = mvop.FockInput.from_json_dict(payload)
    report = mvop.validate(fi)
    assert [(c.name, c.residual, c.tolerance) for c in report.failures()] == [
        ("normalization", pytest.approx(1e-12), 0.0)
    ]
    with pytest.raises(mvop.ValidationFailedError):
        mvop.reconstruct_discrete(fi)
    # a deviation binary64 rounds to zero still fails
    payload["gram"][0][0][0] = f"{10**400 + 1}/{10**400}"
    report = mvop.validate(mvop.FockInput.from_json_dict(payload))
    assert [(c.name, c.residual, c.tolerance) for c in report.failures()] == [
        ("normalization", math.ulp(0.0), 0.0)
    ]


def test_exact_residuals_fail_when_nonzero():
    # 1/10^12 off in one preservation entry: hermiticity and CR2 residuals of
    # 1e-12, inside the 1e-10 float tolerance
    payload = json.loads(SQUARE_FOCK.read_text())
    payload["bzero"][0][1][0][1] = "1/1000000000000"
    report = mvop.validate(mvop.FockInput.from_json_dict(payload))
    assert [(c.name, c.detail, c.residual, c.tolerance) for c in report.failures()] == [
        ("hermiticity", "coordinate 1, degree 1", 1e-12, 0.0),
        ("CR2", "pair (1, 2), degree 0", 1e-12, 0.0),
        ("CR2", "pair (1, 2), degree 1", 1e-12, 0.0),
    ]
    assert all(c.residual == 0 for c in report.checks if c.passed)


def test_unnormalized_vacuum_rejected(square_fn):
    fi = fock_input_of(square_fn, 2)
    fi = replaced(fi, "grams", 0, ..., change=lambda g: np.array([[2]], dtype=object))
    report = mvop.validate(fi)
    assert not report.passed
    assert not report.checks[0].passed


def test_fock_input_shape_validation():
    with pytest.raises(ValueError):
        mvop.FockInput(
            dimension=2,
            depth=1,
            grams=[np.array([[1.0]]), np.eye(3)],
            bzero=[[np.zeros((1, 1)), np.zeros((2, 2))]] * 2,
        )
    with pytest.raises(ValueError):
        mvop.FockInput(
            dimension=2,
            depth=1,
            grams=[np.array([[1.0]]), np.array([[1.0, 0.5], [0.0, 1.0]])],
            bzero=[[np.zeros((1, 1)), np.zeros((2, 2))]] * 2,
        )


def test_from_omegas_checks_block_shapes_before_scaling():
    omegas = [np.array([[1]], dtype=object), np.zeros((0, 0), dtype=object)]
    with pytest.raises(ValueError, match=r"Gram at degree 1 has shape \(0, 0\), expected \(2, 2\)"):
        mvop.FockInput.from_omegas(2, omegas)


def test_fock_input_json_round_trip(square_fn):
    fi = fock_input_of(square_fn, 3)
    payload = fi.to_json_dict()
    assert set(payload) >= {"dimension", "depth", "gram", "bzero"}
    back = mvop.FockInput.from_json_dict(payload)
    assert back.dimension == fi.dimension
    assert back.depth == fi.depth
    for a, b in zip(back.grams, fi.grams):
        assert a.tolist() == b.tolist()
    assert back.exact


def test_fock_input_json_validation():
    base = {"dimension": 1, "depth": 0}
    with pytest.raises(mvop.SpecFormatError):
        mvop.FockInput.from_json_dict({**base, "gram": [[[1]]], "omega": [[[1]]]})
    with pytest.raises(mvop.SpecFormatError):
        mvop.FockInput.from_json_dict(base)
    with pytest.raises(mvop.SpecFormatError):
        mvop.FockInput.from_json_dict({**base, "gram": [[[1, 0]]]})
    fi = mvop.FockInput.from_json_dict({**base, "gram": [[[1]]]})
    assert fi.bzero[0][0].tolist() == [[0]]
    assert fi.exact


def test_reconstruct_square(square_fn, square_measure):
    fi = fock_input_of(square_fn, 3)
    measure = mvop.reconstruct_discrete(fi)
    assert sorted(measure.atoms) == sorted(square_measure.atoms)
    assert measure.weights == (Fraction(1, 4),) * 4
    assert measure.is_exact
    raw = np.array(measure.raw_atoms, dtype=float)
    snapped = np.array([[float(c) for c in atom] for atom in measure.atoms])
    assert np.max(np.abs(raw - snapped)) <= 1e-8


def test_reconstruct_square_float(square_fn, square_measure):
    # float blocks are split and compressed in binary64 from validation's eigensplits
    fi = fock_input_of(square_fn, 3)
    measure = mvop.reconstruct_discrete(fi, mode="float")
    assert sorted(measure.atoms) == sorted(square_measure.atoms)
    assert measure.weights == (Fraction(1, 4),) * 4


def test_reconstruct_point_mass():
    m = mvop.DiscreteMeasure(atoms=((Fraction(1, 2), Fraction(-2, 3)),), weights=(1,))
    fi = fock_input_of(mvop.discrete_functional(m), 1)
    rec = mvop.reconstruct_discrete(fi)
    assert rec.atoms == ((Fraction(1, 2), Fraction(-2, 3)),)
    assert rec.weights == (1,)


def test_reconstruct_two_point_line():
    m = mvop.DiscreteMeasure(atoms=((-1,), (1,)), weights=(Fraction(1, 2),) * 2)
    fi = fock_input_of(mvop.discrete_functional(m), 2)
    rec = mvop.reconstruct_discrete(fi)
    assert rec.atoms == ((-1,), (1,))
    assert rec.weights == (Fraction(1, 2), Fraction(1, 2))


def test_reconstruct_refuses_full_rank(gauss2):
    fi = fock_input_of(gauss2, 3)
    with pytest.raises(mvop.NotFinitelySupportedError):
        mvop.reconstruct_discrete(fi)


def test_reconstruct_rejects_invalid_blocks():
    fi = mvop.FockInput.from_omegas(
        2, [np.array([[1.0]]), np.eye(2), np.diag([1.0, 1.0, 2.0])]
    )
    with pytest.raises(mvop.ValidationFailedError):
        mvop.reconstruct_discrete(fi)


def test_reconstruct_seed_independent(square_fn):
    fi = fock_input_of(square_fn, 3)
    a = mvop.reconstruct_discrete(fi, seed=0)
    b = mvop.reconstruct_discrete(fi, seed=123)
    assert a.atoms == b.atoms
    assert a.weights == b.weights


def product_table(omegas, etas, depth):
    rows = []
    for n in range(depth + 1):
        rows.append(
            [
                math.prod(omegas[:k], start=Fraction(1))
                * math.prod(etas[: n - k], start=Fraction(1))
                for k in range(n + 1)
            ]
        )
    return rows


def test_diagonal_product_check_recovers_edges():
    omegas = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    etas = (Fraction(1, 3), Fraction(1, 9), Fraction(1, 27))
    table = product_table(omegas, etas, 3)
    result = mvop.diagonal_product_check(table)
    assert result.is_product
    assert result.omegas == omegas
    assert result.etas == etas
    assert result.max_residual == 0
    assert result.failures == []


def test_diagonal_product_check_rejects_mixed_entry():
    omegas = (Fraction(1, 2), Fraction(1, 4))
    etas = (Fraction(1, 3), Fraction(1, 9))
    table = product_table(omegas, etas, 2)
    table[2][1] = Fraction(1, 5)
    result = mvop.diagonal_product_check(table)
    assert not result.is_product
    assert len(result.failures) == 1
    n, k, expected, got = result.failures[0]
    assert (n, k) == (2, 1)
    assert expected == Fraction(1, 6)
    assert got == Fraction(1, 5)


def test_diagonal_product_check_int_table_stays_exact():
    # int / int ratios used to turn 1/49 into a float, so 49 * (1/49) missed 1
    result = mvop.diagonal_product_check([[1], [1, 49], [1, 49, 1], [1, 49, 1, 49]])
    assert result.is_product
    assert result.omegas == (49, Fraction(1, 49), 49)
    assert result.etas == (1, 1, 1)
    assert all(isinstance(v, Fraction) for v in result.omegas + result.etas)


def test_diagonal_product_check_zero_edge_cannot_restart():
    table = [
        [Fraction(1)],
        [Fraction(1, 3), Fraction(1, 2)],
        [Fraction(1, 27), Fraction(1, 6), Fraction(0)],
        [Fraction(1, 729), Fraction(1, 54), Fraction(0), Fraction(1, 100)],
    ]
    result = mvop.diagonal_product_check(table)
    assert not result.is_product
    assert result.max_residual == math.inf
    assert result.omegas[2] is None


def test_diagonal_product_check_input_validation():
    with pytest.raises(ValueError):
        mvop.diagonal_product_check([[1], [1, 1, 1]])
    with pytest.raises(ValueError):
        mvop.diagonal_product_check([[2], [1, 1]])
    with pytest.raises(mvop.InconsistentMomentsError):
        mvop.diagonal_product_check([[1], [1, -1]])


def test_diagonal_table_gram_round_trip():
    omegas = (Fraction(1, 2), Fraction(1, 4))
    etas = (Fraction(2, 3), Fraction(1, 9))
    table = product_table(omegas, etas, 2)
    grams = mvop.grams_from_diagonal_table(table)
    assert grams[1].tolist() == [[Fraction(1, 2), 0], [0, Fraction(2, 3)]]
    assert mvop.diagonal_table_from_grams(grams) == table


def test_diagonal_table_from_grams_rejects_off_diagonal(circle_fock):
    with pytest.raises(ValueError):
        mvop.diagonal_table_from_grams(circle_fock.grams[:3])


def test_self_adjointness_circle_bounded(circle_fock):
    report = mvop.self_adjointness_bound(circle_fock)
    assert report.degrees == list(range(1, 7))
    assert all(a <= 1 + 1e-9 for a in report.bounds)
    assert report.exponent < 0.5
    assert report.divergent


def test_self_adjointness_gaussian_product(gauss2_fock):
    report = mvop.self_adjointness_bound(gauss2_fock, degrees=range(2, 9))
    for n, a in zip(report.degrees, report.bounds):
        assert a == pytest.approx(math.sqrt((n + 1) * (n + 2)), abs=1e-9)
    assert report.exponent == pytest.approx(0.7298, abs=0.01)
    assert report.exponent <= 2
    assert report.divergent


def test_self_adjointness_fast_growth_not_divergent():
    depth = 8
    lam = [float(math.factorial(n)) ** 6 for n in range(depth + 1)]
    fock = mvop.FockData(
        dimension=1,
        depth=depth,
        exact=False,
        grams=[np.array([[v]]) for v in lam],
        aplus=[[np.array([[1.0]]) for _ in range(depth)]],
        azero=[[np.array([[0.0]]) for _ in range(depth + 1)]],
        aminus=[[None] + [np.array([[0.0]]) for _ in range(depth)]],
    )
    report = mvop.self_adjointness_bound(fock)
    assert report.exponent > 2.5
    assert not report.divergent


def test_self_adjointness_cuts_at_the_blocks_rank(monkeypatch):
    depth, rank = 5, 1e-7
    fock = mvop.FockData(
        dimension=1,
        depth=depth,
        exact=False,
        grams=[np.array([[float(n + 1)]]) for n in range(depth + 1)],
        aplus=[[np.array([[1.0]]) for _ in range(depth)]],
        azero=[[np.array([[0.0]]) for _ in range(depth + 1)]],
        aminus=[[None] + [np.array([[0.0]]) for _ in range(depth)]],
        tolerances=mvop.Tolerances(rank=rank),
    )
    ranks = []
    split_gram = _linalg.split_gram
    monkeypatch.setattr(_linalg, "split_gram", lambda g, e, r, p: ranks.append(r) or split_gram(g, e, r, p))
    mvop.self_adjointness_bound(fock)
    assert ranks == [rank] * (depth + 1)


def test_self_adjointness_degenerate_data():
    m = mvop.DiscreteMeasure(atoms=((1, 2),), weights=(1,))
    fock = mvop.assemble_fock(mvop.build_gradations(mvop.discrete_functional(m), 3))
    report = mvop.self_adjointness_bound(fock)
    assert report.exponent is None
    assert report.coefficient is None
    assert report.divergent


def test_self_adjointness_degree_window(circle_fock):
    with pytest.raises(ValueError):
        mvop.self_adjointness_bound(circle_fock, degrees=[7])
    with pytest.raises(ValueError):
        mvop.self_adjointness_bound(circle_fock, degrees=[0])
    # a fractional degree is refused, not truncated
    with pytest.raises(ValueError, match="integers"):
        mvop.self_adjointness_bound(circle_fock, degrees=[1.7, 2.2])
    assert mvop.self_adjointness_bound(circle_fock, degrees=iter([2, 1])).degrees == [1, 2]


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_self_adjointness_refuses_a_non_canonical_aplus(mode):
    # A_1^+(3) with a changed entry is no creation block: the bound refuses
    # it, as every check does, and canonical blocks given as copies keep
    # their bounds bit for bit
    if mode == "float":
        f, step = mvop.circle_functional(max_degree=18), 5.0
    else:
        f, step = mvop.product_functional([mvop.gaussian_functional()] * 2), 5
    fock = mvop.assemble_fock(mvop.build_gradations(f, 8 if mode == "float" else 5, mode=mode))
    want = [a.hex() for a in mvop.self_adjointness_bound(fock).bounds]
    with pytest.raises(ValueError, match="canonical creation shifts"):
        mvop.self_adjointness_bound(replaced(fock, "aplus", 0, 3, (0, 0), change=lambda v: v + step))
    given = dataclasses.replace(fock, aplus=[[b.copy() for b in per] for per in fock.aplus])
    assert [a.hex() for a in mvop.self_adjointness_bound(given).bounds] == want


def test_joint_diagonalization_rejects_non_commuting_pair():
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ArithmeticError):
        _linalg.simultaneous_diagonalize([a, b], seed=0, tol=1e-8)
    w = _linalg.simultaneous_diagonalize([a, 2 * a + np.eye(2)], seed=0, tol=1e-8)
    assert np.allclose(w.T @ w, np.eye(2))


# a genuine 6-atom measure: a binary64 re-split of its Grams reads its atom
# x = 2 as 1.99999998957, and at scale 1/8 its degree-2 Gram has an exact
# eigenvalue of 7.7e-11, under the float rank floor
SIX_ATOMS = (
    (-6, -2), (1, Fraction(3, 2)), (Fraction(7, 4), 8), (2, Fraction(1, 4)), (3, Fraction(-3, 2)), (4, Fraction(-7, 2))
)
SIX_WEIGHTS = tuple(Fraction(w, 32) for w in (1, 5, 9, 3, 9, 5))


def scaled_measure(atoms, weights, scale):
    return mvop.DiscreteMeasure(atoms=[tuple(c * scale for c in a) for a in atoms], weights=weights)


def random_measure(rng, k, bound):
    """k distinct planar atoms p/q with |p| <= bound and q in 1..4, integer weights."""
    atoms = set()
    while len(atoms) < k:
        atoms.add(tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(2)))
    raw = [rng.randint(1, 9) for _ in range(k)]
    return tuple(sorted(atoms)), tuple(Fraction(w, sum(raw)) for w in raw)


@pytest.mark.parametrize("scale", [1, Fraction(1, 8)], ids=["1", "1/8"])
def test_reconstruct_six_atom_measure_exactly(scale):
    m = scaled_measure(SIX_ATOMS, SIX_WEIGHTS, scale)
    rec = mvop.reconstruct_discrete(fock_input_of(mvop.discrete_functional(m), 6))
    assert rec.atoms == m.atoms
    assert rec.weights == m.weights


def test_reconstruct_small_scale_measures():
    # scaled by 1/64 the Grams' eigenvalues fall below the float rank floor;
    # reconstruction reads the exact ranks of validate's splits instead
    rng = random.Random(64)
    for _ in range(40):
        atoms, weights = random_measure(rng, rng.randint(1, 8), 8)
        m = scaled_measure(atoms, weights, Fraction(1, 64))
        rec = mvop.reconstruct_discrete(fock_input_of(mvop.discrete_functional(m), len(atoms)))
        true = np.array(m.atoms, dtype=float)
        raw = np.array(rec.raw_atoms)
        assert raw.shape == true.shape
        nearest = np.abs(raw[None, :, :] - true[:, None, :]).max(axis=2).min(axis=1)
        assert nearest.max() <= 1e-9 * np.abs(true).max()


def test_exact_psd_residuals_are_zero():
    rng = random.Random(32)
    for _ in range(12):
        atoms, weights = random_measure(rng, rng.randint(2, 8), 32)
        fi = fock_input_of(mvop.discrete_functional(mvop.DiscreteMeasure(atoms, weights)), len(atoms))
        psd = [c for c in mvop.validate(fi).checks if c.name == "psd"]
        assert [c.residual for c in psd] == [0.0] * (fi.depth + 1)
        assert all(c.tolerance == 1e-10 * max(1.0, float(np.abs(fi.grams[n]).max())) for n, c in enumerate(psd))


def test_reconstruction_reads_the_splits_of_validation(monkeypatch, square_fn):
    fi = fock_input_of(square_fn, 3)
    calls = []
    split_gram = _linalg.split_gram
    monkeypatch.setattr(_linalg, "split_gram", lambda *a, **k: calls.append(1) or split_gram(*a, **k))

    def no_spectrum(*args, **kwargs):
        raise AssertionError("exact validation took a binary64 spectrum")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    assert len(mvop.reconstruct_discrete(fi).atoms) == 4
    assert len(calls) == fi.depth + 1


def count_splits(monkeypatch) -> list:
    # a Gram is split by one exact split or one eigendecomposition
    calls = []
    for name in ("_exact_split", "eigen_split"):
        split = getattr(_linalg, name)
        monkeypatch.setattr(_linalg, name, lambda *a, split=split: calls.append(1) or split(*a))
    return calls


def test_validate_then_reconstruct_splits_each_gram_once(monkeypatch, square_fn):
    fi = fock_input_of(square_fn, 3)
    split_calls = count_splits(monkeypatch)
    assert mvop.validate(fi).passed
    assert len(mvop.reconstruct_discrete(fi).atoms) == 4
    assert mvop.validate(fi).passed
    assert len(split_calls) == fi.depth + 1


def test_float_validate_then_reconstruct_decomposes_each_gram_once(monkeypatch, square_fn):
    fi = float_input_of(square_fn, 3)
    split_calls = count_splits(monkeypatch)
    spectra = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a) or eigvalsh(a))
    assert mvop.validate(fi).passed
    assert len(mvop.reconstruct_discrete(fi).atoms) == 4
    # one eigendecomposition per Gram gives both its psd record and its split
    assert len(split_calls) == fi.depth + 1
    assert spectra == []


@pytest.mark.parametrize(
    "copy_of",
    [copy.copy, copy.deepcopy, lambda fi: pickle.loads(pickle.dumps(fi)), dataclasses.replace],
    ids=["copy", "deepcopy", "pickle", "replace"],
)
def test_copies_of_a_validated_payload_carry_no_run(monkeypatch, square_fn, copy_of):
    fi = fock_input_of(square_fn, 3)
    assert mvop.validate(fi).passed
    split_calls = count_splits(monkeypatch)
    copied = copy_of(fi)
    assert not any(b.flags.writeable for b in (*copied.grams, *(b for per in copied.bzero for b in per)))
    assert mvop.validate(copied).passed
    assert len(split_calls) == fi.depth + 1
    # the original keeps its own run
    assert mvop.validate(fi).passed
    assert len(split_calls) == fi.depth + 1


def test_in_place_edit_after_validate_is_validated_again(square_fn):
    fi = fock_input_of(square_fn, 3)
    assert mvop.validate(fi).passed
    with pytest.raises(ValueError, match="read-only"):
        fi.bzero[0][1][0, 1] += Fraction(1, 1000)
    fi = replaced(fi, "bzero", 0, 1, (0, 1), change=lambda v: v + Fraction(1, 1000))
    with pytest.raises(mvop.ValidationFailedError, match="hermiticity"):
        mvop.reconstruct_discrete(fi)


def _fresh_gram(fi):
    # equal values, new element objects
    fresh = lambda g: np.array([[Fraction(v) for v in row] for row in g.tolist()], dtype=object)
    return replaced(fi, "grams", 2, ..., change=fresh)


def _equal_float(fi):
    return replaced(fi, "bzero", 0, 1, (0, 0), change=float)


@pytest.mark.parametrize(
    "edit, kwargs",
    [
        (_fresh_gram, {}),
        (_equal_float, {}),
        (None, {"mode": "float"}),
        (None, {"tol": mvop.Tolerances(rank=1e-9)}),
    ],
    ids=["reassigned-gram", "float-for-rational", "other-mode", "other-tol"],
)
def test_changed_payload_or_options_validate_again(monkeypatch, square_fn, square_measure, edit, kwargs):
    fi = fock_input_of(square_fn, 3)
    split_calls = count_splits(monkeypatch)
    assert mvop.validate(fi).passed
    if edit is not None:
        fi = edit(fi)
    measure = mvop.reconstruct_discrete(fi, **kwargs)
    assert sorted(measure.atoms) == sorted(square_measure.atoms)
    assert len(split_calls) == 2 * (fi.depth + 1)


def float_input_of(functional, depth):
    fi = fock_input_of(functional, depth)
    return mvop.FockInput(
        fi.dimension,
        fi.depth,
        [g.astype(np.float64) for g in fi.grams],
        [[b.astype(np.float64) for b in per] for per in fi.bzero],
    )


def test_editing_a_report_changes_no_later_result(square_fn):
    # a report holds read-only copies of the payload blocks, float64 ones
    # too: an edit in place raises, and an edited copy is a new value
    for payload_of in (fock_input_of, float_input_of):
        genuine = payload_of(square_fn, 3)
        expected = mvop.reconstruct_discrete(payload_of(square_fn, 3))
        report = mvop.validate(genuine)
        edits = {
            "azero": ((0, 1, (0, 1)), lambda v: v + 5),
            "grams": ((1, (0, 0)), lambda v: v + 3),
            "aplus": ((0, 1, (0, 0)), lambda v: 7),
            "aminus": ((0, 1, (0, 0)), lambda v: v + 11),
        }
        for name, ((*at, entry), change) in edits.items():
            block = getattr(report.fock, name)
            for i in at:
                block = block[i]
            with pytest.raises(ValueError, match="read-only"):
                block[entry] = change(block[entry])
        changed = report.fock
        for name, (path, change) in edits.items():
            if name != "aplus":
                changed = replaced(changed, name, *path, change=change)
        assert not mvop.check_commutation(changed).passed
        # A^+ is no data: an edited copy is refused
        path, change = edits["aplus"]
        with pytest.raises(ValueError, match="canonical creation shifts"):
            mvop.check_commutation(replaced(changed, "aplus", *path, change=change))
        assert not any(b.flags.writeable for b in (*genuine.grams, *genuine.bzero[0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.checks = ()
        assert mvop.reconstruct_discrete(genuine) == expected
        again = mvop.validate(genuine)
        assert again.passed and again.fock.aplus[0][1][0, 0] == 1

        tampered = payload_of(square_fn, 3)
        tampered = replaced(tampered, "bzero", 0, 1, (0, 1), change=lambda v: v + Fraction(1, 1000))
        report = mvop.validate(tampered)
        with pytest.raises(AttributeError):
            report.checks.clear()
        assert not report.passed
        with pytest.raises(mvop.ValidationFailedError, match="hermiticity"):
            mvop.reconstruct_discrete(tampered)


def test_report_blocks_carry_the_validation_tolerances(square_fn):
    tol = mvop.Tolerances(rank=1e-6)
    for payload_of in (fock_input_of, float_input_of):
        fi = payload_of(square_fn, 3)
        assert mvop.validate(fi, tol=tol).fock.tolerances == tol
        assert mvop.validate(fi).fock.tolerances == mvop.Tolerances()


def test_a_payload_keeps_its_one_report(square_fn):
    for payload_of in (fock_input_of, float_input_of):
        fi = payload_of(square_fn, 3)
        report = mvop.validate(fi)
        assert mvop.validate(fi) is report
        assert mvop.validate(fi, mode="auto", tol=mvop.Tolerances()) is report
        mvop.reconstruct_discrete(fi)
        assert mvop.validate(fi) is report
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.fock = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.checks[0].residual = 0.0
        assert isinstance(report.checks, tuple)
        # other options make another report, which the payload then keeps
        coarse = mvop.validate(fi, tol=mvop.Tolerances(rank=1e-6))
        assert coarse is not report and mvop.validate(fi, tol=mvop.Tolerances(rank=1e-6)) is coarse
    commutation = mvop.check_commutation(mvop.validate(fock_input_of(square_fn, 3)).fock)
    assert isinstance(commutation.entries, tuple) and commutation.entries
    for edit in (lambda: setattr(commutation, "entries", ()), lambda: setattr(commutation.entries[0], "residual", 1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            edit()


def test_validate_then_reconstruct_builds_one_report(monkeypatch, square_fn):
    built = {"report": 0, "check": 0}
    for cls, name in ((mvop.ValidationReport, "report"), (mvop.ValidationCheck, "check")):
        init = cls.__init__

        def counted(self, *args, init=init, name=name, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    for payload_of in (fock_input_of, float_input_of):
        fi = payload_of(square_fn, 3)
        built.update(report=0, check=0)
        report = mvop.validate(fi)
        assert report.passed and len(mvop.reconstruct_discrete(fi).atoms) == 4
        assert built == {"report": 1, "check": len(report.checks)}


def test_weights_off_the_snapping_grid_come_back_in_binary64():
    # 1/97 has no fraction with denominator <= 64 within 1e-8, so no weight is snapped
    weights = (Fraction(1, 97), Fraction(48, 97), Fraction(48, 97))
    m = mvop.DiscreteMeasure(atoms=((0, 0), (1, 1), (2, 0)), weights=weights)
    fi = fock_input_of(mvop.discrete_functional(m), 3)
    assert mvop.validate(fi).passed
    rec = mvop.reconstruct_discrete(fi)
    assert rec.atoms == ((0, 0), (1, 1), (2, 0))
    assert rec.weights == rec.raw_weights
    assert all(type(w) is float for w in rec.weights)
    assert max(abs(w - float(t)) for w, t in zip(rec.weights, weights)) <= 1e-12
