import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mvop
from mvop import _linalg
from mvop.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


def as_fraction(value):
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(value)


@pytest.fixture
def circle_spec(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"spec_version": 1, "type": "circle", "max_degree": 18}))
    return str(path)


@pytest.fixture
def square_spec(tmp_path):
    payload = {
        "spec_version": 1,
        "type": "discrete",
        "atoms": [[1, 1], [-1, 1], [-1, -1], [1, -1]],
        "weights": ["1/4", "1/4", "1/4", "1/4"],
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def square_fock_payload(tmp_path, square_fn):
    g = mvop.build_gradations(square_fn, 3)
    fi = mvop.FockInput.from_fock_data(mvop.assemble_fock(g))
    path = tmp_path / "square_fock.json"
    path.write_text(json.dumps(fi.to_json_dict()))
    return str(path)


def test_omega_circle(capsys, circle_spec):
    code, out = run_json(
        capsys, ["omega", "--spec", circle_spec, "--max-degree", "3"]
    )
    assert code == 0
    assert out["command"] == "omega"
    assert out["mode"] == "float"
    omega2 = np.array(out["blocks"][2]["omega"], dtype=float)
    want = np.array([[1, 0, -1], [0, 2, 0], [-1, 0, 1]]) / 8.0
    assert np.max(np.abs(omega2 - want)) <= 1e-10


def test_omega_exact_rationals(capsys, square_spec):
    code, out = run_json(capsys, ["omega", "--spec", square_spec, "--max-degree", "2"])
    assert code == 0
    assert out["mode"] == "exact"
    omega1 = [[as_fraction(v) for v in row] for row in out["blocks"][1]["omega"]]
    assert omega1 == [[1, 0], [0, 1]]
    omega2 = [[as_fraction(v) for v in row] for row in out["blocks"][2]["omega"]]
    assert omega2[1][1] == 2


def test_rank_square(capsys, square_spec):
    code, out = run_json(capsys, ["rank", "--spec", square_spec, "--max-degree", "3"])
    assert code == 0
    assert [row["rank"] for row in out["table"]] == [1, 2, 1, 0]
    assert [row["dimension"] for row in out["table"]] == [1, 2, 3, 4]
    assert out["has_deficiency"] is True
    assert out["first_deficient_degree"] == 2


def test_rank_gaussian_specs(capsys, tmp_path):
    gaussian = {"type": "gaussian"}
    cases = [
        ({"type": "product", "factors": [gaussian, gaussian]}, [1, 2, 3, 4, 5]),
        (gaussian, [1, 1, 1, 1, 1]),
    ]
    for spec, dims in cases:
        path = tmp_path / "gaussian.json"
        path.write_text(json.dumps(spec))
        code, out = run_json(capsys, ["rank", "--spec", str(path), "--max-degree", "4"])
        assert code == 0
        assert out["mode"] == "exact"
        assert [row["dimension"] for row in out["table"]] == dims
        assert [row["rank"] for row in out["table"]] == dims
        assert out["has_deficiency"] is False


def gauss2_table(degree):
    """The moments_table spec of the standard Gaussian squared, holding every moment up to degree."""

    def moment(a):
        return 0 if a % 2 else math.prod(range(a - 1, 0, -2))

    entries = {f"{a},{b}": moment(a) * moment(b) for a in range(degree + 1) for b in range(degree + 1 - a)}
    return {"type": "moments_table", "dimension": 2, "depth": degree, "entries": entries}


def test_assembly_needs_moments_to_degree_2n_plus_1(capsys, tmp_path):
    # the localizing matrices of depth n read moments up to degree 2n + 1, so
    # a table ending there gives what a deeper table of the same measure gives
    outputs = {}
    for degree in (7, 8):
        path = tmp_path / f"gauss2-{degree}.json"
        path.write_text(json.dumps(gauss2_table(degree)))
        for command in ("capcheck", "moments"):
            argv = [command, "--spec", str(path), "--max-degree", "3", "--mode", "exact"]
            code, out = run_cli(capsys, argv)
            assert code == 0, out
            outputs[degree, command] = out
    for command in ("capcheck", "moments"):
        assert outputs[7, command] == outputs[8, command]


def test_null_circle(capsys, circle_spec):
    code, out = run_json(capsys, ["null", "--spec", circle_spec, "--max-degree", "3"])
    assert code == 0
    assert len(out["generators"]) == 1
    gen = out["generators"][0]
    assert gen["degree"] == 2
    coeffs = {tuple(t["exponents"]): float(t["coefficient"]) for t in gen["terms"]}
    assert coeffs[(2, 0)] == pytest.approx(1.0, abs=1e-9)
    assert coeffs[(0, 2)] == pytest.approx(1.0, abs=1e-9)
    assert coeffs[(0, 0)] == pytest.approx(-1.0, abs=1e-9)


def test_moments_circle(capsys, circle_spec):
    code, out = run_json(
        capsys, ["moments", "--spec", circle_spec, "--max-degree", "4"]
    )
    assert code == 0
    assert out["max_deviation"] <= 1e-9
    by_alpha = {tuple(row["alpha"]): row for row in out["moments"]}
    assert by_alpha[(2, 2)]["word_value"] == pytest.approx(0.125, abs=1e-10)


def test_capcheck_circle(capsys, circle_spec):
    code, out = run_json(
        capsys, ["capcheck", "--spec", circle_spec, "--max-degree", "4"]
    )
    assert code == 0
    assert out["passed"] is True
    assert out["max_commutation_residual"] <= 1e-10
    assert all(row["passed"] for row in out["commutation"])
    assert all(row["residual"] <= 1e-12 for row in out["adjointness"])


def test_capcheck_circle_depth_ten(capsys, tmp_path):
    # float circle at depth 10 used to fail CR3 at degree 9 (residual 3.3e-9)
    path = tmp_path / "circle22.json"
    path.write_text(json.dumps({"type": "circle", "max_degree": 22}))
    code, out = run_json(capsys, ["capcheck", "--spec", str(path), "--max-degree", "10"])
    assert code == 0
    assert out["passed"] is True
    assert out["max_commutation_residual"] <= 1e-12


def test_marginal_one_coordinate(capsys, circle_spec):
    code, out = run_json(
        capsys,
        ["marginal", "--spec", circle_spec, "--coords", "1", "--max-degree", "6"],
    )
    assert code == 0
    assert out["coords"] == [1]
    omegas = [float(v) for v in out["omegas"]]
    assert omegas == pytest.approx([0.5] + [0.25] * 5, abs=1e-9)
    assert [float(v) for v in out["alphas"]] == pytest.approx([0.0] * 6, abs=1e-9)


def test_marginal_two_coordinates(capsys, square_spec):
    code, out = run_json(
        capsys,
        ["marginal", "--spec", square_spec, "--coords", "1,2", "--max-degree", "2"],
    )
    assert code == 0
    assert out["mode"] == "exact"
    assert len(out["blocks"]) == 3


def test_marginal_one_coordinate_empty_float_mode(capsys, square_spec):
    # depth 0 has no coefficients, so the mode label cannot come from them
    code, out = run_json(
        capsys,
        ["marginal", "--spec", square_spec, "--coords", "1", "--max-degree", "0", "--mode", "float"],
    )
    assert code == 0
    assert out["mode"] == "float"
    assert out["omegas"] == [] and out["alphas"] == []


def test_marginal_needs_coords(capsys, circle_spec):
    code, out = run_cli(capsys, ["marginal", "--spec", circle_spec, "--max-degree", "3"])
    assert code == 1


@pytest.mark.parametrize(
    "coords, message",
    [
        ("3", "coordinates (3,) outside 1..2"),
        ("0", "coordinates (0,) outside 1..2"),
        ("2,1", "coordinates must be strictly increasing, got (2, 1)"),
    ],
    ids=["3", "0", "2,1"],
)
def test_marginal_bad_coords_speak_one_based(capsys, square_spec, coords, message):
    code = main(["marginal", "--spec", square_spec, "--coords", coords, "--max-degree", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, depth_env, named",
    [
        (["rank", "--max-degree", "1_0"], None, "--max-degree value '1_0'"),
        (["rank", "--max-degree", " 2"], None, "--max-degree value ' 2'"),
        (["rank", "--max-degree", "-1"], None, "--max-degree value '-1'"),
        (["rank", "--max-degree", "\uff12"], None, "--max-degree value '\uff12'"),
        (["rank"], " +2", "MVOP_DEFAULT_DEPTH value ' +2'"),
        (["rank"], "-1", "MVOP_DEFAULT_DEPTH value '-1'"),
        (["marginal", "--coords", "+1", "--max-degree", "2"], None, "--coords value '+1'"),
        (["marginal", "--coords", "\u0661", "--max-degree", "2"], None, "--coords value '\u0661'"),
        (["marginal", "--coords", "1, 2", "--max-degree", "2"], None, "--coords value '1, 2'"),
        (["favard", "--seed", "-3"], None, "--seed value '-3'"),
        (["favard", "--seed", "1_0"], None, "--seed value '1_0'"),
    ],
    ids=[
        "max-degree-underscore",
        "max-degree-blank",
        "max-degree-negative",
        "max-degree-fullwidth-digit",
        "env-depth-signed-blank",
        "env-depth-negative",
        "coords-signed",
        "coords-arabic-indic-digit",
        "coords-blank",
        "seed-negative",
        "seed-underscore",
    ],
)
def test_cli_integers_are_ascii_digit_runs(
    capsys, monkeypatch, square_spec, square_fock_payload, argv, depth_env, named
):
    # as in a moments_table key: `int` would also take signs, blanks,
    # underscores and other scripts' digits
    if depth_env is None:
        monkeypatch.delenv("MVOP_DEFAULT_DEPTH", raising=False)
    else:
        monkeypatch.setenv("MVOP_DEFAULT_DEPTH", depth_env)
    source = ["--fock", square_fock_payload] if argv[0] == "favard" else ["--spec", square_spec]
    code = main(argv + source)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: bad {named}\n"


def test_favard_reconstructs_square(capsys, square_fock_payload):
    code, out = run_json(capsys, ["favard", "--fock", square_fock_payload])
    assert code == 0
    assert out["status"] == "reconstructed"
    assert out["validation_passed"] is True
    atoms = [tuple(as_fraction(c) for c in atom) for atom in out["measure"]["atoms"]]
    assert sorted(atoms) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    weights = [as_fraction(w) for w in out["measure"]["weights"]]
    assert weights == [Fraction(1, 4)] * 4
    raw = np.array(out["measure"]["raw_atoms"], dtype=float)
    assert np.max(np.abs(raw - np.array(sorted(atoms), dtype=float))) <= 1e-8


def test_favard_splits_each_gram_once(capsys, monkeypatch, square_fock_payload):
    calls = []
    split_gram = _linalg.split_gram
    monkeypatch.setattr(_linalg, "split_gram", lambda *a, **k: calls.append(1) or split_gram(*a, **k))
    code, out = run_json(capsys, ["favard", "--fock", square_fock_payload])
    assert code == 0 and out["status"] == "reconstructed"
    assert len(calls) == out["depth"] + 1


def test_favard_reconstructs_small_scale_measure(capsys, tmp_path):
    # a genuine 6-atom measure at scale 1/8: its degree-2 Gram has an exact
    # eigenvalue under the float rank floor, so reconstruction must read the
    # exact ranks of validation
    atoms = (
        (-6, -2), (1, Fraction(3, 2)), (Fraction(7, 4), 8), (2, Fraction(1, 4)), (3, Fraction(-3, 2)), (4, Fraction(-7, 2))
    )
    atoms = tuple(tuple(c * Fraction(1, 8) for c in a) for a in atoms)
    weights = tuple(Fraction(w, 32) for w in (1, 5, 9, 3, 9, 5))
    functional = mvop.discrete_functional(mvop.DiscreteMeasure(atoms=atoms, weights=weights))
    fi = mvop.FockInput.from_fock_data(mvop.assemble_fock(mvop.build_gradations(functional, 6)))
    path = tmp_path / "six_atoms.json"
    path.write_text(json.dumps(fi.to_json_dict()))
    code, out = run_json(capsys, ["favard", "--fock", str(path)])
    assert code == 0
    assert out["status"] == "reconstructed"
    found = [tuple(as_fraction(c) for c in atom) for atom in out["measure"]["atoms"]]
    assert found == sorted(atoms)


def test_favard_rejects_invalid_blocks(capsys, tmp_path):
    payload = {
        "dimension": 2,
        "depth": 2,
        "omega": [
            [[1]],
            [[1, 0], [0, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        ],
    }
    path = tmp_path / "bad_fock.json"
    path.write_text(json.dumps(payload))
    code, out = run_json(capsys, ["favard", "--fock", str(path)])
    assert code == 3
    assert out["status"] == "invalid"
    assert "CR3" in out["reason"]


def test_favard_rejects_exact_gram_below_float_resolution(capsys, tmp_path):
    # determinant -1e-20: binary64 sees a PSD matrix, the exact split does not
    payload = {
        "dimension": 2,
        "depth": 1,
        "gram": [[[1]], [[1, 1], [1, "99999999999999999999/100000000000000000000"]]],
    }
    path = tmp_path / "near_singular.json"
    path.write_text(json.dumps(payload))
    code, out = run_json(capsys, ["favard", "--fock", str(path), "--mode", "exact"])
    assert code == 3
    assert out["status"] == "invalid"
    assert [(c["name"], c["detail"]) for c in out["checks"] if not c["passed"]] == [
        ("psd", "degree 1")
    ]


def test_favard_refuses_full_rank(capsys, tmp_path, gauss2):
    fi = mvop.FockInput.from_fock_data(
        mvop.assemble_fock(mvop.build_gradations(gauss2, 3))
    )
    path = tmp_path / "gauss_fock.json"
    path.write_text(json.dumps(fi.to_json_dict()))
    code, out = run_json(capsys, ["favard", "--fock", str(path)])
    assert code == 0
    assert out["status"] == "refused"


def test_deterministic_output(capsys, circle_spec, square_fock_payload):
    argv_pairs = [
        ["omega", "--spec", circle_spec, "--max-degree", "3"],
        ["favard", "--fock", square_fock_payload, "--seed", "42"],
    ]
    for argv in argv_pairs:
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second


def test_exit_code_on_bad_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli(capsys, ["omega", "--spec", str(path), "--max-degree", "2"])
    assert code == 1


def test_exit_code_on_missing_file(capsys, tmp_path):
    code, _ = run_cli(
        capsys, ["omega", "--spec", str(tmp_path / "nope.json"), "--max-degree", "2"]
    )
    assert code == 1


def test_exit_code_on_unknown_type(capsys, tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"type": "levy"}))
    code, _ = run_cli(capsys, ["omega", "--spec", str(path), "--max-degree", "2"])
    assert code == 1


@pytest.mark.parametrize(
    "command, payload, named",
    [
        ("favard", {"dimension": 1, "depth": 0, "gram": [5]}, ""),
        ("favard", {"dimension": 1, "depth": 0, "gram": [[5]]}, ""),
        ("favard", {"dimension": 1, "depth": 0, "gram": [[[1]]], "bzero": [[[5]]]}, ""),
        ("rank", {"type": "moments_table", "dimension": 1, "depth": 1, "entries": [1, 0]}, ""),
        ("favard", {"dimension": 2, "depth": 1, "gram": [[[1]], [[1, "1/1000000000000"], [0, 1]]]}, ""),
        # header integers must be JSON integers: a bool, float or string is not read as one
        ("favard", {"dimension": True, "depth": 0.9, "gram": [[[1]]]}, "'dimension'"),
        ("favard", {"dimension": 1, "depth": 1.5, "gram": [[[1]], [[1]]]}, "'depth'"),
        ("favard", {"dimension": 1, "depth": "0", "gram": [[[1]]]}, "'depth'"),
        ("favard", [{"dimension": 1, "depth": 0, "gram": [[[1]]]}], "fock payload must be a JSON object"),
        (
            "rank",
            {"type": "moments_table", "dimension": True, "depth": 2.7, "entries": {"0": 1, "1": 0, "2": 1}},
            "'dimension'",
        ),
        (
            "rank",
            {"type": "moments_table", "dimension": 1, "depth": 2.7, "entries": {"0": 1, "1": 0, "2": 1}},
            "'depth'",
        ),
        ("rank", {"type": "circle", "max_degree": 8.9}, "'max_degree'"),
        ("rank", {"type": "jacobi_1d", "omegas": [1] * 4, "alphas": [0] * 4, "depth": "3"}, "'depth'"),
        # depth fields must not be negative, and the error names the field
        ("rank", {"type": "jacobi_1d", "omegas": [1] * 4, "alphas": [0] * 4, "depth": -5}, "'depth'"),
        ("rank", {"type": "circle", "max_degree": -3}, "'max_degree'"),
        (
            "rank",
            {"type": "moments_table", "dimension": 1, "depth": -1, "entries": {"0": 1}},
            "'depth'",
        ),
        # every table key names one multi-index of the table's dimension, once
        (
            "omega",
            {"type": "moments_table", "dimension": 1, "depth": 2, "entries": {"0": 1, "1": 0, "2": 1, "02": 5}},
            "'02'",
        ),
        (
            "omega",
            {"type": "moments_table", "dimension": 1, "depth": 2, "entries": {"0": 1, "1": 0, "2": 1, "-1": 5}},
            "'-1'",
        ),
        (
            "omega",
            {"type": "moments_table", "dimension": 2, "depth": 0, "entries": {"0,0": 1, "5": 3}},
            "(5,)",
        ),
        # a key is comma-separated runs of ASCII digits, and nothing else: not
        # a sign, a blank, an underscore or a full-width digit
        (
            "rank",
            {"type": "moments_table", "dimension": 1, "depth": 2, "entries": {"0": 1, "1": 0, " +2 ": 1}},
            "' +2 '",
        ),
        (
            "rank",
            {"type": "moments_table", "dimension": 1, "depth": 2, "entries": {"0": 1, "1": 0, "2": 1, "1_0": 5}},
            "'1_0'",
        ),
        (
            "rank",
            {"type": "moments_table", "dimension": 1, "depth": 2, "entries": {"0": 1, "\uff11": 0, "2": 1}},
            "'\uff11'",
        ),
        ("rank", {"type": "moments_table", "dimension": 2, "depth": 0, "entries": {"0,0": 1, "0,,1": 3}}, "'0,,1'"),
        # a block's rows are checked for equal lengths before it is read, and
        # the error names the block, whatever its entries
        ("favard", {"dimension": 2, "depth": 1, "gram": [[[1]], [[1, 0], [0]]]}, "'gram' block at degree 1"),
        ("favard", {"dimension": 2, "depth": 1, "gram": [[[1]], [[1.5, 0], [0]]]}, "'gram' block at degree 1"),
        ("favard", {"dimension": 1, "depth": 1, "omega": [[[1]], [[0.5], []]]}, "'omega' block at degree 1"),
        (
            "favard",
            {"dimension": 1, "depth": 1, "gram": [[[1]], [[1]]], "bzero": [[[[0]], [[0.5], [1, 2]]]]},
            "'bzero' block at coordinate 1, degree 1",
        ),
        # the payload's block lists are counted against its header
        ("favard", {"dimension": 1, "gram": [[[1]]]}, "bad fock payload header: 'depth'"),
        ("favard", {"dimension": 1, "depth": 1, "gram": [[[1]]]}, "'gram' must list 2 blocks"),
        ("favard", {"dimension": 1, "depth": 0, "gram": {"0": [[1]]}}, "'gram' must list 1 blocks"),
        ("favard", {"dimension": 2, "depth": 0, "gram": [[[1]]], "bzero": [[[[0]]]]}, "'bzero' must list 2 coordinate"),
        (
            "favard",
            {"dimension": 1, "depth": 1, "gram": [[[1]], [[1]]], "bzero": [[[[0]]]]},
            "each 'bzero' family must list 2 blocks",
        ),
    ],
    ids=[
        "block-not-list",
        "row-not-list",
        "bzero-row-not-list",
        "table-entries-not-object",
        "asymmetric-rational-gram",
        "fock-bool-dimension",
        "fock-float-depth",
        "fock-string-depth",
        "fock-payload-not-object",
        "table-bool-dimension",
        "table-float-depth",
        "circle-float-max-degree",
        "jacobi-string-depth",
        "jacobi-negative-depth",
        "circle-negative-max-degree",
        "table-negative-depth",
        "table-repeated-key",
        "table-negative-key",
        "table-short-key",
        "table-signed-blank-key",
        "table-underscore-key",
        "table-fullwidth-digit-key",
        "table-empty-part-key",
        "ragged-rational-gram-rows",
        "ragged-float-gram-rows",
        "ragged-float-omega-rows",
        "ragged-float-bzero-rows",
        "fock-no-depth",
        "fock-short-gram-list",
        "fock-gram-not-list",
        "fock-bzero-family-count",
        "fock-bzero-block-count",
    ],
)
def test_exit_code_on_malformed_payload(capsys, tmp_path, command, payload, named):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    flag = "--fock" if command == "favard" else "--spec"
    code = main([command, flag, str(path), "--max-degree", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


@pytest.mark.parametrize(
    "command, text, named",
    [
        (
            "marginal",
            '{"type": "moments_table", "dimension": 1, "depth": 2, "entries": {"0": 1, "1": 0, "2": Infinity}}',
            "",
        ),
        ("rank", '{"type": "discrete", "atoms": [[NaN, 0], [1, 1]], "weights": [0.5, 0.5]}', ""),
        (
            "favard",
            '{"dimension": 1, "depth": 1, "gram": [[[1e308]], [[1e308]]], "bzero": [[[[1e308]], [[1e308]]]]}',
            "",
        ),
        # exact data whose binary64 image overflows names the range it left
        ("favard", '{"dimension": 1, "depth": 1, "gram": [[[1]], [["1e400"]]]}', "binary64"),
        ("capcheck", '{"type": "discrete", "atoms": [["1e200"], [0]], "weights": ["1/2", "1/2"]}', "binary64"),
    ],
    ids=[
        "infinite-moment",
        "nan-atom",
        "overflowing-payload",
        "exact-gram-beyond-float",
        "exact-atom-beyond-float",
    ],
)
def test_non_finite_values_give_one_error_line(capsys, tmp_path, command, text, named):
    path = tmp_path / "non_finite.json"
    path.write_text(text)
    flag = "--fock" if command == "favard" else "--spec"
    code = main([command, flag, str(path), "--max-degree", "1", "--coords", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_exit_code_on_bad_spec_version(capsys, tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"spec_version": 2, "type": "circle"}))
    code, _ = run_cli(capsys, ["omega", "--spec", str(path), "--max-degree", "2"])
    assert code == 1


def test_exit_code_on_inconsistent_moments(capsys, tmp_path):
    payload = {
        "type": "moments_table",
        "dimension": 1,
        "depth": 2,
        "entries": {"0": 1, "1": 0, "2": -1},
    }
    path = tmp_path / "bad_table.json"
    path.write_text(json.dumps(payload))
    code, _ = run_cli(capsys, ["omega", "--spec", str(path), "--max-degree", "1"])
    assert code == 2


def test_float_gram_with_a_negative_eigenvalue_exits_2(capsys, tmp_path):
    path = tmp_path / "bad_table.json"
    path.write_text(json.dumps({"type": "moments_table", "dimension": 1, "depth": 2, "entries": {"0": 1, "1": 0, "2": -1}}))
    code = main(["rank", "--spec", str(path), "--mode", "float", "--max-degree", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: Gram matrix has eigenvalue -1.000e+00; data is not a moment functional\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["rank", "--max-degree", "1"], "this command needs --spec FILE"), (["favard"], "favard needs --fock FILE")],
    ids=["spec-command", "favard"],
)
def test_missing_input_flag_gives_one_error_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1", "10"])
def test_bad_tolerance_gives_one_error_line(capsys, square_spec, value):
    code = main(["capcheck", "--spec", square_spec, "--max-degree", "3", "--mode", "float", "--tol-rank", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance rank ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "value", ["1_0e-11", " 1e-9", "1e-9\n", "\uff11e-9", "1e-\u0669", "", "tiny"],
    ids=["underscore", "blank", "newline", "fullwidth-digit", "arabic-indic-digit", "empty", "word"],
)
def test_tol_rank_is_an_ascii_float(capsys, square_spec, value):
    # `float` would also take underscores, blanks and other scripts' digits
    code = main(["rank", "--spec", square_spec, "--max-degree", "2", "--mode", "float", "--tol-rank", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: bad --tol-rank value {value!r}\n"


def test_tol_rank_takes_ascii_floats(capsys, square_spec):
    outs = []
    for value in ("1e-9", "1E-9", "+0.000000001", ".000000001e0"):
        code = main(["rank", "--spec", square_spec, "--max-degree", "2", "--mode", "float", "--tol-rank", value])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs.count(outs[0]) == len(outs)


def test_closed_output_pipe_is_not_an_error():
    # as in `mvop rank ... | head -n 1`, the reader is gone before the output is written
    spec = Path(__file__).parent / "golden" / "prod3.json"
    src = str(Path(mvop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from mvop.cli import main; sys.exit(main())",
             "rank", "--spec", str(spec), "--max-degree", "4", "--mode", "exact"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_table_spec_of_high_dimension(capsys, tmp_path):
    d = 2000
    payload = {"type": "moments_table", "dimension": d, "depth": 0, "entries": {",".join(["0"] * d): 1}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(payload))
    code, out = run_json(capsys, ["rank", "--spec", str(path), "--max-degree", "0"])
    assert code == 0
    assert out["dimension"] == d
    assert out["table"] == [{"degree": 0, "dimension": 1, "rank": 1, "nullity": 0}]


def test_exit_code_on_usage_error(capsys):
    assert main([]) == 1
    assert main(["omega", "--format", "yaml"]) == 1


def test_rational_string_moments(capsys, tmp_path):
    payload = {
        "type": "moments_table",
        "dimension": 1,
        "depth": 2,
        "entries": {"0": 1, "1": 0, "2": "3/8"},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload))
    code, out = run_json(capsys, ["omega", "--spec", str(path), "--max-degree", "1"])
    assert code == 0
    assert as_fraction(out["blocks"][1]["omega"][0][0]) == Fraction(3, 8)


def test_default_depth_from_environment(capsys, square_spec, monkeypatch):
    monkeypatch.setenv("MVOP_DEFAULT_DEPTH", "2")
    code, out = run_json(capsys, ["rank", "--spec", square_spec])
    assert code == 0
    assert len(out["table"]) == 3


def test_csv_format(capsys, square_spec):
    code, out = run_cli(
        capsys, ["rank", "--spec", square_spec, "--max-degree", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("table.0.rank,") for line in lines)


def test_pretty_format(capsys, square_spec):
    code, out = run_cli(
        capsys,
        ["rank", "--spec", square_spec, "--max-degree", "2", "--format", "pretty"],
    )
    assert code == 0
    assert "rank" in out
    assert out.strip()


def test_seed_changes_nothing_after_snapping(capsys, square_fock_payload):
    _, a = run_json(capsys, ["favard", "--fock", square_fock_payload, "--seed", "0"])
    _, b = run_json(capsys, ["favard", "--fock", square_fock_payload, "--seed", "9"])
    assert a["measure"]["atoms"] == b["measure"]["atoms"]
    assert a["measure"]["weights"] == b["measure"]["weights"]
