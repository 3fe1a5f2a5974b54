"""Exact layer timings on a fixed, seeded grid of measures, written as one JSON file.

    python bench/layers.py --out BENCH_<n>.json [--quick]

Run from any directory; mvop is imported from ./src of this checkout, BLAS is
capped at one thread, and the layer calls are wrapped in the spans of
perfbench/spans.py. The grid has two kinds of rows, both exact:

- dimension: products of d standard Gaussians, d = 10, 14 and 20, at depth 2;
- depth: the 3-factor product of a Gaussian, a seeded 20-term rational
  recurrence and a seeded 6-atom rational discrete measure, at depths 4, 6
  and 8.

Each row runs RUNS times on a fresh functional and records, per layer, the
median of its wall seconds: the moment prefetch (every moment assembly reads,
to degree 2 depth + 1, through the public accessor), `build_gradations`,
`assemble_fock` and `check_commutation`. As in perfbench/run.py, the
reference kernel (`run.Speed`) is timed before and after each run, and the
run's seconds times REF_NOMINAL_S over the mean of those two times are its
seconds at the reference speed; their medians are recorded next to the raw
ones (`reference_s`), with the median of the factors (`speed_scale`), so
that files written on a slower or busier machine compare. It also records
the gradation's ranks and whether the commutation check passed, which it
must on every row.
The file records the environment (CPU, Python, numpy, BLAS, thread cap).
`--quick` runs a small grid of the same two kinds in about a second; its
timings mean nothing, and a test checks only its schema and `passed`.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench_run  # noqa: E402  perfbench/run.py: BLAS cap, program loading, environment, Speed
from spans import Tracer  # noqa: E402

RUNS = 3
SEED = 8
LAYERS = ("measures.prefetch", "gradation.build_gradations", "fock.assemble_fock", "fock.check_commutation")
# (kind, dimension or depth): gaussian rows give d at depth 2, product3 rows the depth
GRID = (("gaussian", 10), ("gaussian", 14), ("gaussian", 20), ("product3", 4), ("product3", 6), ("product3", 8))
QUICK_GRID = (("gaussian", 2), ("gaussian", 3), ("product3", 2), ("product3", 3))


def _factors(rng) -> tuple:
    """The recurrence and discrete factors of the 3-factor product: (omegas, alphas), (atoms, weights)."""
    omegas = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(20))
    alphas = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(20))
    atoms = sorted({Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(40)})
    atoms = tuple(rng.sample(atoms, 6))
    raw = [rng.randint(1, 9) for _ in atoms]
    return (omegas, alphas), (atoms, tuple(Fraction(w, sum(raw)) for w in raw))


def _functional(mvop, kind: str, size: int, factors):
    if kind == "gaussian":
        return mvop.product_functional([mvop.gaussian_functional() for _ in range(size)])
    (omegas, alphas), (atoms, weights) = factors
    return mvop.product_functional(
        [
            mvop.gaussian_functional(),
            mvop.jacobi_to_moments(mvop.JacobiPair1D(omegas, alphas), len(omegas)),
            mvop.discrete_functional(mvop.DiscreteMeasure(tuple((a,) for a in atoms), weights)),
        ]
    )


def _prefetch(mvop, f, degree: int) -> None:
    for alpha in mvop.monomials_up_to(f.dimension, degree):
        f.moment(alpha)


def measure_row(mvop, kind: str, size: int, factors, speed) -> dict:
    """One row: per layer the median raw and reference-speed seconds over RUNS fresh functionals, the ranks, and `passed`.

    speed is a `run.Speed` with at least one sample.
    """
    depth = 2 if kind == "gaussian" else size
    tr = Tracer()
    passed = []
    for op in range(RUNS):
        f = _functional(mvop, kind, size, factors)
        before = speed.samples[-1]
        with tr.op(op):
            tr.call("measures.prefetch", _prefetch, mvop, f, 2 * depth + 1)
            g = tr.call("gradation.build_gradations", mvop.build_gradations, f, depth, mode="exact")
            fock = tr.call("fock.assemble_fock", mvop.assemble_fock, g)
            report = tr.call("fock.check_commutation", mvop.check_commutation, fock)
        tr.scales[op] = speed.scale(before, speed.sample())
        passed.append(report.passed)
    seconds, reference = defaultdict(list), defaultdict(list)
    for name, start, end, _, op in tr.spans:
        if name != "op":
            seconds[name].append(end - start)
            reference[name].append((end - start) * tr.scales[op])
    return {
        "name": f"{kind}-{'d' if kind == 'gaussian' else 'depth'}{size}",
        "kind": kind,
        "dimension": f.dimension,
        "depth": depth,
        "median_s": {name: statistics.median(seconds[name]) for name in LAYERS},
        "reference_s": {name: statistics.median(reference[name]) for name in LAYERS},
        "speed_scale": statistics.median(tr.scales.values()),
        "ranks": [lev.rank for lev in g.levels],
        "passed": all(passed),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="path of the JSON file to write")
    p.add_argument("--quick", action="store_true", help="the small grid, for a schema check")
    args = p.parse_args(argv)
    perfbench_run.cap_blas()
    perfbench_run.load_program()
    import mvop

    factors = _factors(random.Random(SEED))
    speed = perfbench_run.Speed()
    speed.sample()
    rows = []
    for kind, size in QUICK_GRID if args.quick else GRID:
        rows.append(measure_row(mvop, kind, size, factors, speed))
        print(json.dumps(rows[-1]), flush=True)
    env = perfbench_run.environment(argparse.Namespace(workload="layers", seed=SEED, seconds=None, trace=1))
    out = {"env": env, "quick": args.quick, "runs": RUNS, "layers": list(LAYERS), "rows": rows}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if all(row["passed"] for row in rows) else 3


if __name__ == "__main__":
    sys.exit(main())
