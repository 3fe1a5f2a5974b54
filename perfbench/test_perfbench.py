"""Self-test of the benchmark: python3 -m pytest perfbench

Every workload runs a couple of ops in both modes, every oracle accepts a
known-good output, and a tampered output is caught.
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

workloads = run.load_program()
import mvop  # noqa: E402  (load_program puts ./src on the path)
import oracles  # noqa: E402
from spans import NoTrace, Tracer  # noqa: E402


def test_manifest_matches_runner():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == list(run.PER_LAYER)
    assert f"p{run.TAIL_PERCENTILE}" in " ".join(w["why"] for w in manifest["workloads"])
    for name in workloads.WORKLOADS:
        assert run.parse_args(["--workload", name, "--seed", "1", "--seconds", str(manifest["run_seconds"])])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs(name, trace, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "HERE", tmp_path)
    result = run.measure(workloads, name, seed=3, seconds=0, trace=trace, max_ops=2)
    summary = result["summary"]
    assert summary["correct"] is True
    assert summary["attempted"] == (4 if trace else 2)
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in summary["metrics"].items()] == list(wanted)
    assert all(math.isfinite(m["value"]) for m in summary["metrics"].values())
    if trace:
        spans = json.loads((tmp_path / "out" / f"trace-{name}-seed3.json").read_text())["spans"]
        assert {s["name"] for s in spans} >= {"op"}
        assert all(s["parent"] is not None for s in spans if s["name"] != "op")
    else:
        assert summary["metrics"]["setup_s"]["value"] > 0


def test_tracer_self_time():
    tr = Tracer()
    with tr.op(0):
        tr.call("a.b", sum, range(10))
    with pytest.raises(ZeroDivisionError), tr.op(1):
        tr.call("a.c", lambda: 1 / 0)
    times = tr.self_times()
    assert times["a.b"][0] == times["a.c"][0] == 1
    assert times["op"][0] == 2 and times["op"][1] >= 0
    assert tr.errors == {"a.c": 1}


def test_oracles_agree_with_each_other():
    # Hermite recurrence reproduces the Gaussian moments
    om, al = oracles.gaussian_recurrence(6)
    assert [oracles.recurrence_moment(om, al, k) for k in range(12)] == [
        oracles.gaussian_moment(k) for k in range(12)
    ]
    # the Stieltjes coefficients of a discrete measure reproduce its moments
    atoms = (Fraction(-1), Fraction(1, 2), Fraction(3))
    weights = (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    om, al = oracles.discrete_recurrence(atoms, weights, 5)
    assert om[2:] == (0, 0, 0) and om[1] != 0
    assert [oracles.recurrence_moment(om, al, k) for k in range(6)] == [
        oracles.discrete_moment(atoms, weights, k) for k in range(6)
    ]
    assert oracles.grid_ranks([2, None], 3) == (1, 2, 2, 2)
    assert oracles.circle_moment((2, 2)) == Fraction(1, 8)


def _failing_report():
    entry = mvop.CommutationEntry("CR3", (1, 2), 0, residual=1.0, tolerance=1e-10)
    return mvop.CommutationReport(depth=1, entries=[entry])


def test_circle_oracles():
    wl = workloads.CircleFloat(0)
    out = wl.op(NoTrace(), wl.prepare(8))
    assert wl.check(8, out) == ([], [])
    omegas, alphas = out["recurrence"]
    word = next(iter(out["vacuum"]))
    tampered = [
        dict(out, ranks=(1,) + (2,) * 7 + (1,)),
        dict(out, generators=[{(2, 0): 1.0, (0, 2): 1.0, (0, 0): -0.9}]),
        dict(out, generators=out["generators"] * 2),
        dict(out, recurrence=(omegas[:-1] + (0.3,), alphas)),
        dict(out, vacuum={**out["vacuum"], word: out["vacuum"][word] + 1e-3}),
    ]
    for bad in tampered:
        assert wl.check(8, bad)[1]
    refusals, wrong = wl.check(8, dict(out, report=_failing_report()))
    assert refusals and not wrong


def test_product_oracles():
    wl = workloads.Product3Exact(0)
    specs = (
        ("discrete", (Fraction(-1), Fraction(0), Fraction(5, 2)),
         (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))),
        ("gaussian",),
        ("jacobi", (Fraction(1, 2),) * 10, (Fraction(-1, 3),) * 10),
    )
    out = wl.op(NoTrace(), wl.prepare(specs))
    assert wl.check(specs, out) == ([], [])
    assert out["ranks"] == (1, 3, 6, 9, 12)  # x^3 and its multiples vanish
    omegas, alphas = out["recurrence"]
    gen = out["generators"][0]
    word = (1, 1, 2)
    tampered = [
        dict(out, ranks=(1, 3, 6, 10, 15)),
        dict(out, generators=[]),
        dict(out, generators=[{**gen, (0, 0, 0): gen.get((0, 0, 0), 0) + 1}]),
        dict(out, recurrence=(omegas, alphas[:-1] + (Fraction(1, 7),))),
        dict(out, vacuum={**out["vacuum"], word: out["vacuum"][word] + Fraction(1, 10**9)}),
    ]
    for bad in tampered:
        assert wl.check(specs, bad)[1]
    refusals, wrong = wl.check(specs, dict(out, report=_failing_report()))
    assert refusals and not wrong


def test_favard_oracles():
    wl = workloads.FavardExact(0)
    genuine = next(p for p in wl.pool[0] if not p.tampered and len(p.atoms) == 3)
    tampered = next(p for p in wl.pool[0] if p.tampered and p.atoms == genuine.atoms)
    out = wl.op(NoTrace(), wl.prepare(genuine))
    assert wl.check(genuine, out) == ([], [])
    bad_out = wl.op(NoTrace(), wl.prepare(tampered))
    assert not bad_out["report"].passed
    assert wl.check(tampered, bad_out) == ([], [])
    # a tampered payload that passes validation is a wrong output
    assert wl.check(tampered, out)[1]
    # a genuine payload that fails validation is a refusal
    refusals, wrong = wl.check(genuine, bad_out)
    assert refusals and not wrong
    m = out["measure"]
    swapped = mvop.DiscreteMeasure(
        atoms=m.atoms, weights=m.weights[::-1], raw_atoms=m.raw_atoms, raw_weights=m.raw_weights[::-1]
    )
    if m.weights != m.weights[::-1]:
        assert wl.check(genuine, dict(out, measure=swapped))[1]
    moved = mvop.DiscreteMeasure(
        atoms=((m.atoms[0][0] + 1, m.atoms[0][1]),) + m.atoms[1:],
        weights=m.weights, raw_atoms=m.raw_atoms, raw_weights=m.raw_weights,
    )
    assert wl.check(genuine, dict(out, measure=moved))[1]
    # a float read-out beyond 1e-8 but near its source is a refusal, far off it is wrong
    for shift, refused in ((2e-8, True), (1e-3, False)):
        raw = ((m.raw_atoms[0][0] + shift, m.raw_atoms[0][1]),) + m.raw_atoms[1:]
        blurred = mvop.DiscreteMeasure(
            atoms=((raw[0][0], m.atoms[0][1]),) + m.atoms[1:],
            weights=m.weights, raw_atoms=raw, raw_weights=m.raw_weights,
        )
        refusals, wrong = wl.check(genuine, dict(out, measure=blurred))
        assert (bool(refusals), bool(wrong)) == (refused, not refused)


def test_favard_imprecise_measure_is_not_wrong():
    # a measure drawn by the favard generator (seed 978538837) whose atom
    # (2, 1/4) has been read out 1.04e-8 off, so it stays unsnapped
    atoms = tuple(
        (Fraction(x), Fraction(y))
        for x, y in (("-6", "-2"), ("1", "3/2"), ("7/4", "8"), ("2", "1/4"), ("3", "-3/2"), ("4", "-7/2"))
    )
    weights = tuple(Fraction(n, 32) for n in (1, 5, 9, 3, 9, 5))
    payload = workloads.Payload(json.dumps(workloads.FavardExact._payload(atoms, weights)), atoms, weights, False)
    wl = workloads.FavardExact(0)
    out = wl.op(NoTrace(), wl.prepare(payload))
    assert out["report"].passed
    assert not wl.check(payload, out)[1]


def test_bare_directory_fails(tmp_path):
    """Without ./src the runner exits non-zero and prints no result."""
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "favard-exact", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "perfbench" / "out").exists()
