"""Exact Gram and preservation right-hand sides are read off products with M.

A degree-n candidate column C has Lambda(C x^b) = 0 for every |b| < n, so
the rows of lower degree of M C vanish, and C is the identity on its
degree-n rows. Exact mode therefore reads G_n = C^T M C off the degree-n
rows of M C, and C^T L_i C off its rows of degree n and n + 1. These tests
check the premise on genuine data and the read-off values against the
quadratic forms they replace; float mode keeps the quadratic forms.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mvop
from mvop import _linalg
from mvop.cli import functional_from_payload, main
from mvop.gradation import _moment_rows
from reference import moment_matrix

GOLDEN = Path(__file__).parent / "golden"
DEPTH = 3


def _measure(rng, d):
    k = rng.randint(1, 7)
    atoms = set()
    while len(atoms) < k:
        atoms.add(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)))
    raw = [rng.randint(1, 9) for _ in range(k)]
    return mvop.DiscreteMeasure(tuple(sorted(atoms)), tuple(Fraction(r, sum(raw)) for r in raw))


def _functionals():
    """(name, functional, depth): seeded rational measures, then the golden specs."""
    cases = []
    rng = random.Random(1517)
    for t in range(18):
        d = 1 + t % 3
        depth = {1: 5, 2: 3, 3: 2}[d]
        cases.append((f"measure{t}-d{d}", mvop.discrete_functional(_measure(rng, d)), depth))
    for name in ("square", "skew", "six3d", "prod3"):
        payload = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        cases.append((name, functional_from_payload(payload, 2 * DEPTH + 2), DEPTH))
    return cases


CASES = _functionals()


def test_cases_include_null_directions():
    deficient = [
        name for name, f, depth in CASES if any(lev.nullity for lev in mvop.build_gradations(f, depth).levels)
    ]
    assert len(deficient) >= 18


@pytest.mark.parametrize("name", ["six3d", "prod3"])
def test_moment_rows_are_rows_of_the_deeper_moment_matrix(name):
    f = next(f for case, f, _ in CASES if case == name)
    columns = len(mvop.monomials_up_to(f.dimension, DEPTH))
    want = moment_matrix(f, DEPTH + 1)[1:, :columns]
    got = _moment_rows(f, 1, DEPTH + 1, DEPTH)
    cleared = _linalg.cleared(want)
    assert got.den == cleared.den and got.num.tolist() == cleared.num.tolist()
    assert all(type(v) is int for v in got.num.flat)
    float_f = mvop.as_float_functional(f)
    assert _moment_rows(float_f, 1, DEPTH + 1, DEPTH).tobytes() == _linalg.to_float(want).tobytes()


@pytest.mark.parametrize("name,f,depth", CASES, ids=[c[0] for c in CASES])
def test_lower_rows_of_the_moment_product_vanish(name, f, depth):
    g = mvop.build_gradations(f, depth, mode="exact")
    moments = moment_matrix(f, depth)
    for lev in g.levels:
        coef = lev.coef
        size, k = coef.shape
        product = moments[:size, :size] @ coef
        assert not product[: size - k].any(), lev.degree
        assert (coef[size - k :] == np.eye(k, dtype=int)).all()
        assert (lev.gram == coef.T @ product).all()
        # the premise of the check: M z = 0 on every row, for each null column z
        assert not (moments[:, :size] @ (coef @ lev.split.null)).any(), lev.degree


@pytest.mark.parametrize("name,f,depth", CASES, ids=[c[0] for c in CASES])
def test_azero_solves_the_localizing_quadratic_form(name, f, depth):
    g = mvop.build_gradations(f, depth, mode="exact")
    fock = mvop.assemble_fock(g)
    d = g.dimension
    for i in range(d):
        localizing = moment_matrix(f, depth, tuple(int(k == i) for k in range(d)))
        for lev, block in zip(g.levels, fock.azero[i]):
            size = lev.coef.shape[0]
            rhs = lev.coef.T @ localizing[:size, :size] @ lev.coef
            assert (block == _linalg.pseudo_apply(lev.split, rhs)).all(), (i, lev.degree)
            assert (lev.gram @ block == rhs).all()


@pytest.fixture
def gram_products(monkeypatch):
    """The number of `_linalg.gram_product` calls made through the library."""
    calls = []
    product = _linalg.gram_product

    def counting(coef, mat):
        calls.append(coef.shape)
        return product(coef, mat)

    monkeypatch.setattr(_linalg, "gram_product", counting)
    return calls


def test_exact_pipeline_forms_no_quadratic_form(gram_products):
    for name, f, depth in CASES[-4:]:
        mvop.assemble_fock(mvop.build_gradations(f, depth, mode="exact"))
    assert gram_products == []


def test_float_pipeline_keeps_the_quadratic_forms(gram_products):
    depth = 4
    g = mvop.build_gradations(mvop.circle_functional(max_degree=2 * depth + 2), depth)
    assert len(gram_products) == depth + 1
    mvop.assemble_fock(g)
    # one Gram per level, and one preservation form per level and coordinate
    assert len(gram_products) == 3 * (depth + 1)


def test_not_psd_table_capcheck_exits_2(tmp_path, capsys):
    # rank and null on this table: test_work_once.test_not_psd_table_is_refused
    table = {
        "type": "moments_table",
        "dimension": 1,
        "depth": 4,
        "entries": {"0": 1, "1": 0, "2": 0, "3": 1, "4": 1},
    }
    path = tmp_path / "not_psd.json"
    path.write_text(json.dumps(table))
    assert main(["capcheck", "--spec", str(path), "--max-degree", "2", "--mode", "exact"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not a moment functional" in captured.err
