"""Acceptance suite: fifteen end-to-end checks, one test per criterion.

Each test prints a single PASS line once its assertions hold, so a verbose
run reads as a per-criterion scoreboard.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import mvop
from mvop.cli import main
from reference import replaced


def report(line):
    print(line)


def test_c01_circle_form_generators(circle_gradation):
    want = {
        1: np.array([[1, 0], [0, 1]]) / 2.0,
        2: np.array([[1, 0, -1], [0, 2, 0], [-1, 0, 1]]) / 8.0,
        3: np.array(
            [[1, 0, -1, 0], [0, 3, 0, -3], [-3, 0, 3, 0], [0, -1, 0, 1]]
        )
        / 32.0,
    }
    for n, target in want.items():
        omega = circle_gradation.level(n).omega()
        assert np.max(np.abs(omega - target)) <= 1e-10
    report("C01 circle form generators at degrees 1-3: PASS")


def test_c02_circle_spectra_and_ranks(circle_gradation):
    for n, value in [(1, 0.5), (2, 0.25), (3, 0.125)]:
        spectrum = mvop.nonzero_spectrum(circle_gradation, n)
        assert len(spectrum) == 1
        assert abs(spectrum[0] - value) <= 1e-10
    ranks = mvop.rank_sequence(circle_gradation).ranks
    assert ranks[1:9] == (2,) * 8
    report("C02 circle spectra {1/2, 1/4, 1/8} and ranks 2 through degree 8: PASS")


def test_c03_circle_cap_blocks(circle_fock):
    # basis-free forms: (A_i^+)^T G A_j^+ pins the reduced blocks up to the
    # shared orthogonal change of basis
    tol = 1e-10
    grams = [np.asarray(g, dtype=float) for g in circle_fock.grams]

    def form(i, j, n):
        ai = np.asarray(circle_fock.aplus[i][n], dtype=float)
        aj = np.asarray(circle_fock.aplus[j][n], dtype=float)
        return ai.T @ grams[n + 1] @ aj

    assert abs(form(0, 0, 0)[0, 0] - 0.5) <= tol
    assert abs(form(1, 1, 0)[0, 0] - 0.5) <= tol
    assert abs(form(0, 1, 0)[0, 0]) <= tol
    for n in range(1, circle_fock.depth):
        g = grams[n]
        for i in range(2):
            # reduced creation is half an isometry
            assert np.max(np.abs(form(i, i, n) - g / 4.0)) <= tol
        cross = form(0, 1, n)
        assert np.max(np.abs(cross + cross.T)) <= tol
        # reduced cross block squares to -1/16 on the quotient
        pseudo = np.linalg.pinv(g, rcond=1e-8)
        assert np.max(np.abs(cross @ pseudo @ cross + g / 16.0)) <= tol
    for i in range(2):
        for block in circle_fock.azero[i]:
            assert np.max(np.abs(block)) <= tol
    report("C03 circle CAP blocks (half isometry, quarter rotation, zero preservation): PASS")


def test_c04_vacuum_moments(circle_fock, circle):
    assert abs(mvop.vacuum_moment(circle_fock, (2, 2)) - 0.125) <= 1e-12
    worst = 0.0
    for a in range(7):
        for b in range(7 - a):
            got = mvop.vacuum_moment(circle_fock, (a, b))
            worst = max(worst, abs(got - circle.moment((a, b))))
    assert worst <= 1e-9
    report(f"C04 vacuum moment 1/8 and round-trip to degree 6 (worst {worst:.2e}): PASS")


def test_c05_commutation_relations(circle, half_circle, square_fn, skew_fn, gauss2):
    worst = 0.0
    for functional in (circle, half_circle, square_fn, skew_fn, gauss2):
        fock = mvop.assemble_fock(mvop.build_gradations(functional, 6))
        rep = mvop.check_commutation(fock)
        assert rep.passed
        worst = max(worst, rep.max_residual)
    assert worst <= 1e-10
    report(f"C05 commutation residuals at depth 6 over five measures (worst {worst:.2e}): PASS")


def test_c06_half_circle_ranks(half_circle):
    g = mvop.build_gradations(half_circle, 6)
    ranks = mvop.rank_sequence(g).ranks
    assert ranks[1:7] == (2,) * 6
    report("C06 half-circle ranks 2 for degrees 1-6: PASS")


def test_c07_arcsine_marginal(circle):
    f = mvop.marginal_functional(mvop.MarginalSpec(source=circle, coords=(0,)))
    pair = mvop.jacobi_1d(f, 6)
    want = (0.5, 0.25, 0.25, 0.25, 0.25, 0.25)
    assert max(abs(a - b) for a, b in zip(pair.omegas, want)) <= 1e-9
    assert max(abs(a) for a in pair.alphas) <= 1e-9

    # leading-coefficient law: the monic recursion polynomials match the
    # classical three-term family with leading coefficient 2^(n-1)
    coeff_lists = [[1], [0, 1]]
    while len(coeff_lists) <= 8:
        prev, cur = coeff_lists[-2], coeff_lists[-1]
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        coeff_lists.append(nxt)
    long_pair = mvop.jacobi_1d(f, 8)
    x = mvop.Polynomial.variable(1, 0)
    ps = [mvop.Polynomial.one(1), x - long_pair.alphas[0]]
    for k in range(1, 8):
        ps.append((x - long_pair.alphas[k]) * ps[k] - long_pair.omegas[k - 1] * ps[k - 1])
    for n in range(1, 9):
        lead = coeff_lists[n][-1]
        assert lead == 2 ** (n - 1)
        want_coeffs = [c / lead for c in coeff_lists[n]]
        got = [float(ps[n].terms.get((j,), 0)) for j in range(n + 1)]
        assert max(abs(a - b) for a, b in zip(got, want_coeffs)) <= 1e-9
    report("C07 arcsine recurrence (1/2, 1/4, ...) and leading-coefficient law: PASS")


def test_c08_non_symmetric_four_point(skew_fn):
    g = mvop.build_gradations(skew_fn, 3)
    assert g.exact
    assert g.level(1).omega().tolist() == [
        [Fraction(1, 2), 0],
        [0, Fraction(1, 2)],
    ]
    q = Fraction(1, 4)
    assert g.level(2).omega().tolist() == [
        [q, 0, -q],
        [0, 0, 0],
        [-q, 0, q],
    ]
    spec = mvop.MarginalSpec(source=skew_fn, coords=(0,))
    f = mvop.marginal_functional(spec)
    target = mvop.discrete_functional(
        mvop.DiscreteMeasure(
            atoms=((0,), (1,), (2,)),
            weights=(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
        )
    )
    for j in range(7):
        assert f.moment((j,)) == target.moment((j,))
    pair = mvop.jacobi_1d(f, 3)
    assert pair.omegas == (Fraction(1, 2), Fraction(1, 2), 0)
    assert pair.alphas == (1, 1, 1)
    report("C08 non-symmetric 4-point forms, marginal measure, and recurrence (exact): PASS")


def test_c09_favard_round_trip(rational_measures):
    assert len(rational_measures) == 25
    for measure in rational_measures:
        depth = len(measure.atoms)
        g = mvop.build_gradations(mvop.discrete_functional(measure), depth)
        fi = mvop.FockInput.from_fock_data(mvop.assemble_fock(g))
        rep = mvop.validate(fi)
        assert rep.passed
        rec = mvop.reconstruct_discrete(fi)
        assert len(rec.atoms) == len(measure.atoms)
        want = sorted(zip(measure.atoms, measure.weights))
        assert rec.atoms == tuple(a for a, _ in want)
        assert rec.weights == tuple(w for _, w in want)
        for raw, raw_w, (atom, weight) in zip(rec.raw_atoms, rec.raw_weights, want):
            assert max(abs(x - float(y)) for x, y in zip(raw, atom)) <= 1e-8
            assert abs(raw_w - float(weight)) <= 1e-8
        fi = replaced(fi, "bzero", 0, 1, (0, 1), change=lambda v: v + Fraction(1, 1000))
        assert not mvop.validate(fi).passed
    report("C09 25 random rational measures: reconstruct, validate, and reject faults: PASS")


def test_c10_diagonal_product_tables():
    rng = np.random.default_rng(11)

    def random_edges(length):
        return tuple(
            Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            for _ in range(length)
        )

    for trial in range(5):
        omegas = random_edges(4)
        etas = random_edges(4)
        if trial == 4:
            omegas = omegas[:2] + (Fraction(0), Fraction(0))
        table = [
            [
                math.prod(omegas[:k], start=Fraction(1))
                * math.prod(etas[: n - k], start=Fraction(1))
                for k in range(n + 1)
            ]
            for n in range(5)
        ]
        result = mvop.diagonal_product_check(table)
        assert result.is_product
        assert result.omegas == omegas
        assert result.etas == etas
        assert result.max_residual == 0
        broken = [row[:] for row in table]
        broken[2][1] *= Fraction(7, 6)
        assert not mvop.diagonal_product_check(broken).is_product
    report("C10 diagonal product tables factor exactly; perturbed tables rejected: PASS")


def test_c11_null_ideal_generators(circle_gradation, square_gradation, square_measure):
    circle_polys = mvop.null_polynomials(circle_gradation, 2)
    assert len(circle_polys) == 1
    gen = circle_polys[0]
    want = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}
    assert set(gen.terms) == set(want)
    assert max(abs(gen.terms[a] - c) for a, c in want.items()) <= 1e-9

    square_basis = mvop.base_generators(square_gradation)
    got = sorted(tuple(sorted(f.terms.items())) for f in square_basis.generators)
    assert got == [
        (((0, 0), Fraction(-1)), ((0, 2), Fraction(1))),
        (((0, 0), Fraction(-1)), ((2, 0), Fraction(1))),
    ]

    circle_basis = mvop.base_generators(circle_gradation)
    for t in np.linspace(0.0, 2 * math.pi, 7):
        assert mvop.support_membership(circle_basis, (math.cos(t), math.sin(t)))
    assert not mvop.support_membership(circle_basis, (0.0, 0.0))
    for atom in square_measure.atoms:
        assert mvop.support_membership(square_basis, atom)
    assert not mvop.support_membership(square_basis, (0, 0))
    report("C11 null ideal: circle generator, square span, membership tests: PASS")


def test_c12_deficiency_equivalence(
    circle_gradation, square_gradation, half_circle, skew_fn, diamond_fn,
    gauss2, sine_table, cylinder,
):
    suite = [
        circle_gradation,
        square_gradation,
        mvop.build_gradations(half_circle, 3),
        mvop.build_gradations(skew_fn, 3),
        mvop.build_gradations(diamond_fn, 3),
        mvop.build_gradations(gauss2, 4),
        mvop.build_gradations(sine_table, 4),
        mvop.build_gradations(cylinder, 4),
    ]
    deficient_count = 0
    for g in suite:
        rs = mvop.rank_sequence(g)
        if rs.has_deficiency:
            deficient_count += 1
            assert mvop.null_polynomials(g, rs.first_deficient_degree)
        else:
            assert rs.first_deficient_degree is None
            for n in range(g.max_degree + 1):
                assert mvop.null_polynomials(g, n) == []
    gauss_rs = mvop.rank_sequence(suite[5])
    sine_rs = mvop.rank_sequence(suite[6])
    assert not gauss_rs.has_deficiency and gauss_rs.dims == gauss_rs.ranks
    assert not sine_rs.has_deficiency and sine_rs.dims == sine_rs.ranks
    assert deficient_count == 6
    report("C12 deficiency iff nonempty null kernel across 8 fixtures (2 full-rank controls): PASS")


def test_c13_cylinder_rank_oracle(cylinder):
    g = mvop.build_gradations(cylinder, 4)
    ranks = list(mvop.rank_sequence(g).ranks)

    prev = 0
    oracle = []
    for n in range(5):
        rows = mvop.monomials_up_to(3, n)
        m = np.array(
            [
                [float(cylinder.moment(tuple(a + b for a, b in zip(r, c)))) for c in rows]
                for r in rows
            ]
        )
        total = int(np.linalg.matrix_rank(m, tol=1e-8))
        oracle.append(total - prev)
        prev = total

    assert ranks == oracle
    assert oracle[1:] == [2 * n + 1 for n in range(1, 5)]
    mismatches = [n for n in range(1, 5) if ranks[n] == 2 * (2 * n + 1)]
    assert mismatches == []
    report(
        "C13 cylinder ranks equal Gram oracle 2n+1 for n=1..4; "
        "flagged: the alternative figure 2(2n+1) is inconsistent with the oracle: PASS"
    )


def test_c14_self_adjointness_diagnostic(circle_fock, gauss2_fock):
    circle_rep = mvop.self_adjointness_bound(circle_fock)
    assert all(a <= 1 + 1e-9 for a in circle_rep.bounds)
    assert circle_rep.divergent
    gauss_rep = mvop.self_adjointness_bound(gauss2_fock, degrees=range(2, 9))
    assert gauss_rep.exponent <= 2
    assert gauss_rep.divergent
    report(
        f"C14 circle bounds stay under 1; Gaussian product exponent "
        f"{gauss_rep.exponent:.3f} <= 2 with divergent flag: PASS"
    )


def test_c15_cli_determinism(tmp_path, capsys, square_fn):
    spec_path = tmp_path / "circle.json"
    spec_path.write_text(json.dumps({"type": "circle", "max_degree": 14}))
    fi = mvop.FockInput.from_fock_data(
        mvop.assemble_fock(mvop.build_gradations(square_fn, 3))
    )
    fock_path = tmp_path / "fock.json"
    fock_path.write_text(json.dumps(fi.to_json_dict()))
    commands = [
        ["omega", "--spec", str(spec_path), "--max-degree", "4"],
        ["rank", "--spec", str(spec_path), "--max-degree", "4"],
        ["favard", "--fock", str(fock_path), "--seed", "7"],
        ["favard", "--fock", str(fock_path), "--seed", "7", "--format", "csv"],
    ]
    for argv in commands:
        first_code = main(argv)
        first = capsys.readouterr().out
        second_code = main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second
        assert first
    report("C15 repeated CLI runs byte-identical for fixed seed: PASS")
