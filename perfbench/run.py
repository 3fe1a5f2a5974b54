"""Seeded benchmark of the mvop pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload circle-float --seed 1 --seconds 33 --trace 0

Run from the repository root; mvop is imported from ./src. One process, one
caller in a closed loop: each op starts when the previous one has been
checked, and BLAS is capped at one thread. The run measures whole rounds of
its workload until --seconds have passed, checks every op against the
references in oracles.py, and prints its metrics, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Times are reported in seconds at a fixed reference speed. A shared host runs
the same code tens of percent faster or slower from one minute to the next,
so a fixed reference kernel is timed between ops and each measured time is
scaled by REF_NOMINAL_S / (reference time around it). The raw times and the
machine speed are printed alongside.

--trace 0 reports the end-to-end metrics (END_TO_END). --trace 1 runs each
round twice, once traced and once not, in alternating order, and reports the
per-layer metrics (PER_LAYER) from the traced ops and the tracing overhead
from the pair; the spans go to perfbench/out/.

Self-test: python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# highest percentile with ten ops beyond it at the chosen run length (about
# 30 ops); with whole rounds it falls inside the depth-11 group of
# circle-float, and inside one payload type of the 13 in favard-exact
TAIL_PERCENTILE = 65
# duration of reference_kernel at the reference speed: about its median on
# the 2-vCPU 2.1 GHz Xeon guest the benchmark was defined on
REF_NOMINAL_S = 0.0125

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

WRAPPED = (
    "measures.functional",
    "measures.moment",
    "gradation.build_gradations",
    "fock.assemble_fock",
    "fock.check_commutation",
    "fock.vacuum_moment",
    "nullideal.rank_sequence",
    "nullideal.base_generators",
    "marginal.marginal_functional",
    "marginal.jacobi_1d",
    "favard.from_json_dict",
    "favard.validate",
    "favard.reconstruct_discrete",
)
COUNTS = (
    "gradation.candidates",
    "gradation.gram_entries",
    "fock.assemble_fock.blocks",
    "fock.check_commutation.entries",
    "fock.check_commutation.failed",
    "nullideal.generators",
    "favard.payload_bytes",
    "favard.validate.checks",
    "favard.validate.rejected",
    "favard.reconstruct_discrete.atoms",
)
PER_LAYER = (
    tuple((f"{name}.busy_s", "s/op") for name in WRAPPED)
    + tuple((f"{name}.errors", "count") for name in WRAPPED)
    + (("measures.moment.calls", "count/op"), ("fock.vacuum_moment.calls", "count/op"))
    + tuple((name, "B/op" if name.endswith("bytes") else "count/op") for name in COUNTS)
    + (
        ("gradation.rank_ratio", "ratio"),
        ("favard.reconstruct_over_validate", "ratio"),
        ("bench.op_glue_s", "s/op"),
        ("trace.spans", "count/op"),
        ("trace.overhead_ratio", "ratio"),
    )
)


def cap_blas() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"


def load_program():
    """Import mvop from ./src (never an installed copy) and the workloads."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mvop

    if Path(mvop.__file__).resolve().parent.parent != src:
        raise ImportError(f"mvop was imported from {mvop.__file__}, not from {src}")
    import workloads

    return workloads


def reference_kernel() -> None:
    """Fixed work of the kinds mvop does: Fractions, dicts of tuples, small float matrices."""
    import numpy as np

    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(i % 5 + 1, 3)
        table[(i, i % 13)] = acc.numerator % 97
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(200):
        a = (a @ a.T) / (1.0 + np.abs(a).max())


class Speed:
    """Times of the reference kernel, taken between ops."""

    def __init__(self):
        self.samples: list = []

    def sample(self) -> float:
        start = perf_counter()
        reference_kernel()
        self.samples.append(perf_counter() - start)
        return self.samples[-1]

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from seconds measured between two samples to seconds at the reference speed."""
        return 2 * REF_NOMINAL_S / (before + after)


def environment(args) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "tail_percentile": TAIL_PERCENTILE,
        "ref_nominal_s": REF_NOMINAL_S,
    }


def percentile(values, p: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(values)
    pos = p / 100 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Tally:
    """Outcome of every op: latency, and whether it raised, was refused (see workloads) or was wrong."""

    def __init__(self):
        self.latencies: list = []  # seconds at the reference speed
        self.raw_latencies: list = []
        self.raised = self.refused = self.wrong = 0
        self.examples: list = []
        self.round_rates: list = []  # ops completed per second of op time, per round

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.raised + self.refused + self.wrong

    def note(self, kind: str, label, reasons) -> None:
        if len(self.examples) < 5:
            self.examples.append(f"{kind} {label}: {'; '.join(map(str, reasons))}")

    def close_round(self, first: int, raised_before: int) -> None:
        time = sum(self.latencies[first:])
        if time > 0:
            self.round_rates.append((self.attempted - first - (self.raised - raised_before)) / time)


def run_op(wl, item, tr, op_id, tally: Tally, speed: Speed, counts: Counter | None = None):
    inputs = wl.prepare(item)
    gc.collect()
    before = speed.samples[-1]
    start = perf_counter()
    error = None
    try:
        with tr.op(op_id):
            out = wl.op(tr, inputs)
    except Exception as exc:  # an op that raises is counted as failed, the run goes on
        error = exc
    raw = perf_counter() - start
    scale = speed.scale(before, speed.sample())
    tally.raw_latencies.append(raw)
    tally.latencies.append(raw * scale)
    if tr.enabled:
        tr.scales[op_id] = scale
    if error is not None:
        tally.raised += 1
        tally.note("raised", item, [repr(error)])
        return
    refusals, wrong = wl.check(item, out)
    if wrong:
        tally.wrong += 1
        tally.note("wrong", item, wrong)
    elif refusals:
        tally.refused += 1
        tally.note("refused", item, refusals)
    if counts is not None:
        wl.count(item, out, counts)


def import_seconds() -> float:
    """Time to import mvop in a fresh interpreter (this process has it cached)."""
    probe = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import mvop; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def measure(workloads, name: str, seed: int, seconds: float, trace: bool,
            env: dict | None = None, max_ops: int | None = None) -> dict:
    """Set up, run whole rounds for `seconds` (or stop after max_ops), and collect metrics."""
    from spans import NoTrace, Tracer

    speed = Speed()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        imports = import_seconds()
        t0 = perf_counter()
        wl = workloads.WORKLOADS[name](seed)
        raw_setups.append(imports + perf_counter() - t0)
        setups.append(raw_setups[-1] * speed.scale(before, speed.sample()))

    untraced, traced = Tally(), Tally()
    tracer, counts = Tracer(), Counter()
    rounds = 0
    start = perf_counter()
    done = False
    while not done and (rounds == 0 or perf_counter() - start < seconds):
        items = wl.round(rounds)
        passes = [(NoTrace(), untraced, None)]
        if trace:
            passes.append((tracer, traced, counts))
            if rounds % 2:
                passes.reverse()
        for tr, tally, cnt in passes:
            first, raised_before = tally.attempted, tally.raised
            for j, item in enumerate(items):
                if max_ops is not None and tally.attempted >= max_ops:
                    done = True
                    break
                run_op(wl, item, tr, (rounds, j), tally, speed, cnt)
            tally.close_round(first, raised_before)
        rounds += 1
    elapsed = perf_counter() - start

    both = (untraced, traced)
    attempted = sum(t.attempted for t in both)
    failed = sum(t.failed for t in both)
    ref = statistics.median(speed.samples)
    lines = [
        f"{name} seed {seed}: {untraced.attempted} ops in {rounds} rounds, {elapsed:.1f} s",
        f"fail_ratio {failed / attempted:.4f}: "
        + ", ".join(f"{sum(getattr(t, k) for t in both)} {k}" for k in ("raised", "refused", "wrong")),
    ] + [f"  {ex}" for t in both for ex in t.examples[:3]]
    lines.append(
        f"machine speed {REF_NOMINAL_S / ref:.3f} of the reference "
        f"(reference kernel median {ref * 1e3:.2f} ms over {len(speed.samples)} samples)"
    )

    if trace:
        metrics = layer_metrics(tracer, counts, traced, untraced)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json", env or {})
    else:
        lat = untraced.latencies
        metrics = {
            # the median over rounds, each round doing the same mix of work,
            # discounts rounds that ran while the machine was busy elsewhere
            "ops_per_s": statistics.median(untraced.round_rates),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": percentile(lat, TAIL_PERCENTILE),
            "pass_ratio": (untraced.attempted - untraced.failed) / untraced.attempted,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        lines.append(
            f"ops_per_s is the median of {len(untraced.round_rates)} rounds; "
            f"op_tail_s is p{TAIL_PERCENTILE} of {len(lat)} op latencies; "
            f"setup_s is the median of {len(setups)} set-ups"
        )
        lines.append(
            f"raw wall times: op p50 {statistics.median(untraced.raw_latencies):.6g} s, "
            f"op p{TAIL_PERCENTILE} {percentile(untraced.raw_latencies, TAIL_PERCENTILE):.6g} s, "
            f"setup {statistics.median(raw_setups):.6g} s"
        )
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "lines": lines,
        "summary": {
            "correct": untraced.wrong + traced.wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def layer_metrics(tracer, counts: Counter, traced: Tally, untraced: Tally) -> dict:
    n = max(traced.attempted, 1)
    self_times = tracer.self_times()
    metrics = {}
    for name in WRAPPED:
        metrics[f"{name}.busy_s"] = self_times.get(name, (0, 0.0))[1] / n
    for name in WRAPPED:
        metrics[f"{name}.errors"] = tracer.errors[name]
    for name in ("measures.moment", "fock.vacuum_moment"):
        metrics[f"{name}.calls"] = self_times.get(name, (0, 0.0))[0] / n
    for name in COUNTS:
        metrics[name] = counts[name] / n
    candidates = counts["gradation.candidates"]
    metrics["gradation.rank_ratio"] = counts["gradation.ranks"] / candidates if candidates else 0.0
    metrics["favard.reconstruct_over_validate"] = reconstruct_over_validate(tracer.spans)
    metrics["bench.op_glue_s"] = self_times.get("op", (0, 0.0))[1] / n
    metrics["trace.spans"] = len(tracer.spans) / n
    base = sum(untraced.latencies)
    metrics["trace.overhead_ratio"] = (sum(traced.latencies) - base) / base if base else 0.0
    return metrics


def reconstruct_over_validate(spans) -> float:
    """Reconstruct time over validate time, on the ops that reconstructed."""
    per_op: dict = {}
    for name, start, end, _, op in spans:
        if name in ("favard.validate", "favard.reconstruct_discrete"):
            per_op.setdefault(op, {})[name] = end - start
    pairs = [t for t in per_op.values() if len(t) == 2]
    validate = sum(t["favard.validate"] for t in pairs)
    return sum(t["favard.reconstruct_discrete"] for t in pairs) / validate if validate else 0.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("circle-float", "product3-exact", "favard-exact"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    cap_blas()
    try:
        workloads = load_program()
    except ImportError as exc:
        sys.exit(f"perfbench: cannot load mvop from {ROOT / 'src'}: {exc}")
    env = environment(args)
    result = measure(workloads, args.workload, args.seed, args.seconds, bool(args.trace), env)
    print("env " + json.dumps(env))
    for line in result["lines"]:
        print(line)
    for k, m in result["summary"]["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result["summary"]))


if __name__ == "__main__":
    main()
