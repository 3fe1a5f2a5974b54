"""The benchmark's workloads: seeded inputs, the timed op, and its oracle.

Each workload is a class whose constructor is the set-up (input generation
from the seed). `round(r)` lists the items of round r; the runner measures
whole rounds. For each item, `prepare` builds fresh inputs (untimed), `op`
is the timed call sequence into mvop, and `check` compares the op's outputs
with the references in `oracles` (untimed). `check` returns two lists of
reasons: refusals (the op did not deliver: genuine data rejected, or a
binary64 read-out that names the right value but misses the accuracy mvop
promises) and wrong outputs (a value differs from its reference, or
tampered data was accepted). Both count as failed ops; only wrong outputs
make the run incorrect.

Every call into mvop goes through `tr.call("<layer>.<function>", ...)` so a
traced run can time each layer from outside the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mvop

import oracles


def _x_marginal(f):
    return mvop.marginal_functional(mvop.MarginalSpec(f, (0,)))


def forward(tr, make_functional, spec, depth: int, moment_indices, words) -> dict:
    """The forward pipeline from a measure spec to verdicts and invariants."""
    f = tr.call("measures.functional", make_functional, spec)
    # prefetch every moment the op needs through the public accessor, so the
    # moment supply shows as its own span and later layers hit the cache
    for alpha in moment_indices:
        tr.call("measures.moment", f.moment, alpha)
    g = tr.call("gradation.build_gradations", mvop.build_gradations, f, depth)
    fock = tr.call("fock.assemble_fock", mvop.assemble_fock, g)
    report = tr.call("fock.check_commutation", mvop.check_commutation, fock)
    vacuum = {w: tr.call("fock.vacuum_moment", mvop.vacuum_moment, fock, w) for w in words}
    ranks = tr.call("nullideal.rank_sequence", mvop.rank_sequence, g)
    basis = tr.call("nullideal.base_generators", mvop.base_generators, g)
    marginal = tr.call("marginal.marginal_functional", _x_marginal, f)
    pair = tr.call("marginal.jacobi_1d", mvop.jacobi_1d, marginal, depth)
    return {
        "gradation": g,
        "fock": fock,
        "report": report,
        "vacuum": vacuum,
        "ranks": ranks.ranks,
        "generators": [dict(p.terms) for p in basis.generators],
        "recurrence": (pair.omegas, pair.alphas),
    }


def count_forward(out: dict, counts) -> None:
    """Per-layer work counts of one forward op."""
    levels = out["gradation"].levels
    counts["gradation.candidates"] += sum(lev.dimension for lev in levels)
    counts["gradation.gram_entries"] += sum(lev.dimension * (lev.dimension + 1) // 2 for lev in levels)
    counts["gradation.ranks"] += sum(lev.rank for lev in levels)
    fock = out["fock"]
    counts["fock.assemble_fock.blocks"] += fock.dimension * (3 * fock.depth + 1)
    report = out["report"]
    counts["fock.check_commutation.entries"] += len(report.entries)
    counts["fock.check_commutation.failed"] += len(report.failures())
    counts["nullideal.generators"] += len(out["generators"])


def commutation_refusal(report) -> list:
    """Genuine data failing its commutation check is a refusal."""
    if report.passed:
        return []
    worst = max(report.failures(), key=lambda e: e.residual / e.tolerance)
    return [
        f"{len(report.failures())} commutation entries fail; worst {worst.relation} "
        f"pair {worst.pair} degree {worst.degree}: {worst.residual:.3e} > {worst.tolerance:.3e}"
    ]


class CircleFloat:
    """Uniform unit circle, float mode, depths 8..12.

    Every round runs each depth once, in a seeded order, so each run has
    the same mix of depths and the same inputs repeat from round to round.
    """

    DEPTHS = tuple(range(8, 13))

    def __init__(self, seed: int):
        self.seed = seed
        self.moment_indices = {n: oracles.multi_indices(2, 2 * n + 2) for n in self.DEPTHS}
        self.words = {n: oracles.multi_indices(2, n) for n in self.DEPTHS}

    def round(self, r: int) -> list:
        order = list(self.DEPTHS)
        random.Random(self.seed * 1_000_003 + r).shuffle(order)
        return order

    def prepare(self, depth: int):
        return depth

    @staticmethod
    def _functional(depth: int):
        return mvop.circle_functional(max_degree=2 * depth + 2)

    def op(self, tr, depth: int) -> dict:
        return forward(tr, self._functional, depth, depth, self.moment_indices[depth], self.words[depth])

    def count(self, item, out, counts) -> None:
        count_forward(out, counts)

    def check(self, depth: int, out: dict) -> tuple:
        wrong = []
        if out["ranks"] != oracles.circle_ranks(depth):
            wrong.append(f"ranks {out['ranks']}")
        gens = out["generators"]
        want = oracles.CIRCLE_GENERATOR
        if len(gens) != 1 or not all(
            oracles.close(gens[0].get(a, 0.0), want.get(a, 0.0), oracles.CIRCLE_TOL)
            for a in set(gens[0]) | set(want)
        ):
            wrong.append(f"null generators {gens}")
        omegas, alphas = oracles.arcsine_recurrence(depth)
        got_omegas, got_alphas = out["recurrence"]
        if len(got_omegas) != depth or not all(
            oracles.close(a, b, oracles.CIRCLE_TOL) for a, b in zip(got_omegas + got_alphas, omegas + alphas)
        ):
            wrong.append(f"x-marginal recurrence {got_omegas} {got_alphas}")
        for w, v in out["vacuum"].items():
            if not oracles.close(v, oracles.circle_moment(w), oracles.CIRCLE_TOL):
                wrong.append(f"vacuum word {w}: {v} != {oracles.circle_moment(w)}")
                break
        return commutation_refusal(out["report"]), wrong


def _rational(rng, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _weights(rng, k: int) -> tuple:
    raw = [rng.randint(1, 9) for _ in range(k)]
    return tuple(Fraction(r, sum(raw)) for r in raw)


def _build_factor(spec):
    kind = spec[0]
    if kind == "gaussian":
        return mvop.gaussian_functional()
    if kind == "jacobi":
        return mvop.jacobi_to_moments(mvop.JacobiPair1D(spec[1], spec[2]), len(spec[1]))
    atoms, weights = spec[1], spec[2]
    return mvop.discrete_functional(mvop.DiscreteMeasure(tuple((a,) for a in atoms), weights))


def _build_product(specs):
    return mvop.product_functional([_build_factor(s) for s in specs])


def _factor_moment(spec, k: int):
    if spec[0] == "gaussian":
        return oracles.gaussian_moment(k)
    if spec[0] == "jacobi":
        return oracles.recurrence_moment(spec[1], spec[2], k)
    return oracles.discrete_moment(spec[1], spec[2], k)


def _factor_recurrence(spec, depth: int) -> tuple:
    if spec[0] == "gaussian":
        return oracles.gaussian_recurrence(depth)
    if spec[0] == "jacobi":
        return spec[1][:depth], spec[2][:depth]
    return oracles.discrete_recurrence(spec[1], spec[2], depth)


def _evaluate(terms: dict, point):
    total = 0
    for alpha, c in terms.items():
        value = c
        for x, e in zip(point, alpha):
            value *= x**e
        total += value
    return total


class Product3Exact:
    """Exact d=3 products of random 1-D factors at depth 4; no input repeats.

    A factor is a standard Gaussian, a random rational recurrence, or a
    random rational discrete measure with 3..6 atoms. A round is three ops
    in which every factor slot takes each kind once, so every round does the
    same mix of kinds while single ops still see any combination. The three
    discrete factors of round r take atom counts 3..6 in rotation, so every
    four rounds use each count three times.
    """

    DIM, DEPTH = 3, 4
    KINDS = ("gaussian", "jacobi", "discrete")
    MOMENT_DEGREE = 2 * DEPTH + 2

    def __init__(self, seed: int):
        self.seed = seed
        self.moment_indices = oracles.multi_indices(self.DIM, self.MOMENT_DEGREE)
        self.words = oracles.multi_indices(self.DIM, self.DEPTH)

    def _factor(self, rng, kind: str, atom_counts):
        if kind == "gaussian":
            return ("gaussian",)
        if kind == "jacobi":
            n = self.MOMENT_DEGREE
            return (
                "jacobi",
                tuple(_rational(rng, 1, 9, 4) for _ in range(n)),
                tuple(_rational(rng, -4, 4, 4) for _ in range(n)),
            )
        k = next(atom_counts)
        atoms: set = set()
        while len(atoms) < k:
            atoms.add(_rational(rng, -8, 8, 4))
        return ("discrete", tuple(sorted(atoms)), _weights(rng, k))

    def round(self, r: int) -> list:
        rng = random.Random(self.seed * 1_000_003 + r)
        slots = [rng.sample(self.KINDS, len(self.KINDS)) for _ in range(self.DIM)]
        atom_counts = iter(rng.sample([3 + (3 * r + i) % 4 for i in range(3)], 3))
        return [
            tuple(self._factor(rng, slots[i][j], atom_counts) for i in range(self.DIM))
            for j in range(len(self.KINDS))
        ]

    def prepare(self, specs):
        return specs

    def op(self, tr, specs) -> dict:
        return forward(tr, _build_product, specs, self.DEPTH, self.moment_indices, self.words)

    def count(self, item, out, counts) -> None:
        count_forward(out, counts)

    def check(self, specs, out: dict) -> tuple:
        wrong = []
        caps = [len(s[1]) if s[0] == "discrete" else None for s in specs]
        if out["ranks"] != oracles.grid_ranks(caps, self.DEPTH):
            wrong.append(f"ranks {out['ranks']} for atom counts {caps}")
        # one vanishing polynomial per discrete factor with at most DEPTH atoms
        expected = sum(1 for m in caps if m is not None and m <= self.DEPTH)
        if len(out["generators"]) != expected:
            wrong.append(f"{len(out['generators'])} null generators, expected {expected}")
        # a null generator must vanish on the support: the atom grid times the
        # real line of each continuous factor (DEPTH + 1 sample points there
        # determine a polynomial of degree <= DEPTH)
        axes = [s[1] if s[0] == "discrete" else range(self.DEPTH + 1) for s in specs]
        for gen in out["generators"]:
            if any(_evaluate(gen, (a, b, c)) != 0 for a in axes[0] for b in axes[1] for c in axes[2]):
                wrong.append(f"null generator {gen} does not vanish on the support")
        for w, v in out["vacuum"].items():
            want = 1
            for spec, k in zip(specs, w):
                want *= _factor_moment(spec, k)
            if v != want:
                wrong.append(f"vacuum word {w}: {v} != {want}")
                break
        want_recurrence = _factor_recurrence(specs[0], self.DEPTH)
        if tuple(map(tuple, out["recurrence"])) != tuple(map(tuple, want_recurrence)):
            wrong.append(f"x-marginal recurrence {out['recurrence']}")
        return commutation_refusal(out["report"]), wrong


@dataclass(frozen=True)
class Payload:
    text: str = field(repr=False)
    atoms: tuple
    weights: tuple
    tampered: bool


class FavardExact:
    """Inverse direction: validate and reconstruct supplied blocks.

    Set-up draws random rational planar measures with 2..8 atoms and runs
    the forward pipeline at depth = #atoms to make each block payload. The
    measures with 3..8 atoms also get a copy with one preservation entry
    changed. A round runs the 13 payloads of one pool round in a seeded
    order; the pool is reused cyclically. The odd count keeps the median
    and p65 of the equal-weight payload mix off the boundary between two
    payload types, whichever types are faster.
    """

    ATOMS = tuple(range(2, 9))
    POOL_ROUNDS = 2

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = []
        for _ in range(self.POOL_ROUNDS):
            items = []
            for k in self.ATOMS:
                atoms, weights = self._measure(rng, k)
                payload = self._payload(atoms, weights)
                items.append(Payload(json.dumps(payload), atoms, weights, False))
                if k > min(self.ATOMS):
                    self._tamper(payload, rng)
                    items.append(Payload(json.dumps(payload), atoms, weights, True))
            rng.shuffle(items)
            self.pool.append(items)

    @staticmethod
    def _measure(rng, k: int) -> tuple:
        # both coordinates take two values at least, so every degree-1
        # preservation entry is visible to the hermiticity check
        while True:
            atoms: set = set()
            while len(atoms) < k:
                atoms.add((_rational(rng, -8, 8, 4), _rational(rng, -8, 8, 4)))
            if all(len({a[i] for a in atoms}) >= 2 for i in range(2)):
                return tuple(sorted(atoms)), _weights(rng, k)

    @staticmethod
    def _payload(atoms, weights) -> dict:
        measure = mvop.DiscreteMeasure(atoms=atoms, weights=weights)
        g = mvop.build_gradations(mvop.discrete_functional(measure), len(atoms))
        return mvop.FockInput.from_fock_data(mvop.assemble_fock(g)).to_json_dict()

    @staticmethod
    def _tamper(payload: dict, rng) -> None:
        """Shift one off-diagonal degree-1 preservation entry by a nonzero rational."""
        i, r = rng.randint(0, 1), rng.randint(0, 1)
        row = payload["bzero"][i][1][r]
        delta = _rational(rng, 1, 9, 9) * rng.choice((1, -1))
        row[1 - r] = str(Fraction(str(row[1 - r])) + delta)

    def round(self, r: int) -> list:
        return self.pool[r % len(self.pool)]

    def prepare(self, payload: Payload) -> dict:
        return json.loads(payload.text)

    def op(self, tr, data: dict) -> dict:
        fi = tr.call("favard.from_json_dict", mvop.FockInput.from_json_dict, data)
        report = tr.call("favard.validate", mvop.validate, fi)
        measure = None
        if report.passed:
            measure = tr.call("favard.reconstruct_discrete", mvop.reconstruct_discrete, fi)
        return {"report": report, "measure": measure}

    def count(self, payload: Payload, out, counts) -> None:
        counts["favard.payload_bytes"] += len(payload.text)
        counts["favard.validate.checks"] += len(out["report"].checks)
        counts["favard.validate.rejected"] += not out["report"].passed
        if out["measure"] is not None:
            counts["favard.reconstruct_discrete.atoms"] += len(out["measure"].atoms)

    def check(self, payload: Payload, out: dict) -> tuple:
        report, measure = out["report"], out["measure"]
        if payload.tampered:
            return [], ([] if not report.passed else ["tampered payload accepted"])
        if not report.passed:
            return [f"genuine payload rejected: {report.summary()}"], []
        got = (measure.atoms, measure.weights, measure.raw_atoms, measure.raw_weights)
        reason = oracles.same_measure(payload.atoms, payload.weights, *got)
        if reason is None:
            return [], []
        if oracles.same_measure(payload.atoms, payload.weights, *got, tol=oracles.IDENTIFY_TOL) is None:
            # right measure, read out less accurately than the 1e-8 mvop snaps within
            return [f"imprecise reconstruction: {reason}"], []
        return [], [f"reconstruction: {reason}"]


WORKLOADS = {
    "circle-float": CircleFloat,
    "product3-exact": Product3Exact,
    "favard-exact": FavardExact,
}
