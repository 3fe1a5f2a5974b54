"""Command line interface.

Subcommands work on a measure specification JSON (omega, rank, null,
moments, capcheck, marginal) or on a block payload JSON (favard). Output is
canonical JSON by default: keys sorted, floats rendered with 17 significant
digits, rationals as "p/q" strings, so identical runs are byte-identical.

The spec commands omega, rank, null, moments and capcheck start from one
helper, ``_graded``: the spec's gradation and the output header.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .errors import (
    DepthExceededError,
    InconsistentMomentsError,
    InternalConsistencyError,
    NotFinitelySupportedError,
    SpecFormatError,
    ValidationFailedError,
)
from .favard import FockInput, reconstruct_discrete, validate
from .fock import (
    adjointness_residuals,
    assemble_fock,
    azero_symmetry_residuals,
    check_commutation,
    vacuum_moment,
)
from .gradation import build_gradations, resolve_mode
from .marginal import MarginalSpec, jacobi_1d, marginal_functional
from .measures import (
    DiscreteMeasure,
    JacobiPair1D,
    circle_functional,
    discrete_functional,
    gaussian_functional,
    jacobi_to_moments,
    product_functional,
    table_functional,
)
from .nullideal import base_generators, rank_sequence
from .polynomial import monomials_up_to
from .scalars import Tolerances, _json_integer, format_scalar, is_rational, parse_scalar

DEFAULT_DEPTH_ENV = "MVOP_DEFAULT_DEPTH"


# ---------------------------------------------------------------------------
# canonical output


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, Fraction):
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError("non-finite value in output")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 2)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _render_scalar(obj)


def _flatten(obj, prefix: str, rows: list):
    if isinstance(obj, (dict, list, tuple)) and obj:
        items = [(k, obj[k]) for k in sorted(obj, key=str)] if isinstance(obj, dict) else enumerate(obj)
        for k, v in items:
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), rows)
    else:
        # a scalar, or an empty list or dict ("[]", "{}"), is one row, as JSON renders it
        rows.append((prefix, render_json(obj).strip('"')))


def render_csv(obj) -> str:
    rows: list = []
    _flatten(obj, "", rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def render_pretty(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        items = [(f"{k}:", obj[k]) for k in sorted(obj, key=str)]
    elif isinstance(obj, (list, tuple)):
        items = [("-", v) for v in obj]
    else:
        return f"{pad}{_render_scalar(obj)}"
    lines = []
    for label, v in items:
        nested = isinstance(v, (dict, list, tuple))
        if nested and v:
            lines.append(f"{pad}{label}")
            lines.append(render_pretty(v, indent + 2))
        else:
            lines.append(f"{pad}{label} {'[]' if nested else _render_scalar(v)}")
    return "\n".join(lines)


def emit(obj, fmt: str) -> str:
    if fmt == "json":
        return render_json(obj)
    if fmt == "csv":
        return render_csv(obj)
    if fmt == "pretty":
        return render_pretty(obj)
    raise ValueError(f"unknown format {fmt!r}")


def _dump_matrix(mat, exact: bool) -> list:
    return [[format_scalar(v, exact) for v in row] for row in np.asarray(mat).tolist()]


def _dump_value(v):
    return format_scalar(v, is_rational(v))


def _omega_blocks(g, n: int) -> list:
    return [
        {"degree": m, "omega": _dump_matrix(g.level(m).omega(), g.exact)}
        for m in range(n + 1)
    ]


def _verdict_row(item, **fields) -> dict:
    """fields with the residual, tolerance and verdict of a check or commutation entry."""
    residual, tolerance = float(item.residual), float(item.tolerance)
    return {**fields, "residual": residual, "tolerance": tolerance, "passed": item.passed}


def _residual_rows(residuals: dict) -> list:
    return [
        {"coordinate": i, "degree": m, "residual": float(r)}
        for (i, m), r in sorted(residuals.items())
    ]


# ---------------------------------------------------------------------------
# measure specification payloads


def _require(payload: dict, key: str):
    if key not in payload:
        raise SpecFormatError(f"measure spec is missing {key!r}")
    return payload[key]


def _depth_field(value, name: str) -> int:
    """A spec's depth field: a JSON integer that is not negative."""
    if _json_integer(value, name) < 0:
        raise SpecFormatError(f"{name!r} must be >= 0, got {value}")
    return value


def functional_from_payload(payload, needed_depth: int):
    if not isinstance(payload, dict):
        raise SpecFormatError("measure spec must be a JSON object")
    version = payload.get("spec_version", 1)
    if version != 1:
        raise SpecFormatError(f"unsupported spec_version {version!r}")
    mtype = _require(payload, "type")
    try:
        if mtype == "discrete":
            atoms = tuple(
                tuple(parse_scalar(v) for v in row) for row in _require(payload, "atoms")
            )
            weights = tuple(parse_scalar(v) for v in _require(payload, "weights"))
            return discrete_functional(DiscreteMeasure(atoms=atoms, weights=weights))
        if mtype == "product":
            factors = [
                functional_from_payload(sub, needed_depth)
                for sub in _require(payload, "factors")
            ]
            return product_functional(factors)
        if mtype == "gaussian":
            return gaussian_functional()
        if mtype in ("circle", "half_circle"):
            depth = _depth_field(payload.get("max_degree", needed_depth), "max_degree")
            return circle_functional(half=mtype == "half_circle", max_degree=depth)
        if mtype == "moments_table":
            dimension = _json_integer(_require(payload, "dimension"), "dimension")
            depth = _depth_field(_require(payload, "depth"), "depth")
            raw_entries = _require(payload, "entries")
            if not isinstance(raw_entries, dict):
                raise SpecFormatError("moments_table 'entries' must be an object")
            entries = {}
            for key, value in raw_entries.items():
                try:
                    alpha = tuple(int(part) for part in str(key).split(","))
                except ValueError:
                    raise SpecFormatError(f"bad moment table key {key!r}") from None
                if alpha in entries:
                    raise SpecFormatError(f"moment table key {key!r} repeats the multi-index {alpha}")
                entries[alpha] = parse_scalar(value)
            return table_functional(dimension, entries, depth)
        if mtype == "jacobi_1d":
            pair = JacobiPair1D(
                omegas=tuple(parse_scalar(v) for v in _require(payload, "omegas")),
                alphas=tuple(parse_scalar(v) for v in _require(payload, "alphas")),
            )
            depth = _depth_field(payload.get("depth", needed_depth), "depth")
            return jacobi_to_moments(pair, max(depth, needed_depth))
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"bad {mtype} spec: {exc}") from None
    raise SpecFormatError(f"unknown measure type {mtype!r}")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_functional(args, needed_depth: int):
    if not args.spec:
        raise SpecFormatError("this command needs --spec FILE")
    return functional_from_payload(_load_json(args.spec), needed_depth)


def _graded(args, tol: Tolerances, extra: int = 0):
    """(gradation, output header) of a spec command: command, dimension, depth and mode.

    The spec's gradation goes to degree n = args.max_degree, from moments of
    degree up to 2n + extra.
    """
    n = args.max_degree
    g = build_gradations(_load_functional(args, 2 * n + extra), n, mode=args.mode, tol=tol)
    return g, {"command": args.command, "dimension": g.dimension, "depth": n, "mode": g.mode}


# ---------------------------------------------------------------------------
# commands


def cmd_omega(args, tol: Tolerances):
    g, out = _graded(args, tol)
    out["blocks"] = _omega_blocks(g, args.max_degree)
    return out, 0


def cmd_rank(args, tol: Tolerances):
    g, out = _graded(args, tol)
    rs = rank_sequence(g)
    out["table"] = [
        {"degree": deg, "dimension": dim, "rank": rank, "nullity": nullity}
        for deg, dim, rank, nullity in zip(rs.degrees, rs.dims, rs.ranks, rs.nullities)
    ]
    out["has_deficiency"] = rs.has_deficiency
    out["first_deficient_degree"] = rs.first_deficient_degree
    return out, 0


def _dump_polynomial(f, exact: bool) -> list:
    return [
        {"exponents": list(alpha), "coefficient": format_scalar(c, exact)}
        for alpha, c in f.sorted_terms()
    ]


def cmd_null(args, tol: Tolerances):
    g, out = _graded(args, tol)
    basis = base_generators(g)
    out["generators"] = [
        {"degree": gen.degree, "terms": _dump_polynomial(gen, g.exact)}
        for gen in basis.generators
    ]
    out["reduction"] = basis.reduction_log
    return out, 0


def cmd_moments(args, tol: Tolerances):
    g, out = _graded(args, tol, extra=2)
    fock = assemble_fock(g)
    rows = []
    worst = 0.0
    for alpha in monomials_up_to(g.dimension, args.max_degree):
        word = vacuum_moment(fock, alpha)
        direct = g.functional.moment(alpha)
        dev = abs(float(word) - float(direct))
        worst = max(worst, dev)
        rows.append(
            {
                "alpha": list(alpha),
                "word_value": _dump_value(word),
                "direct_value": _dump_value(direct),
            }
        )
    out["moments"] = rows
    out["max_deviation"] = worst
    return out, 0


def cmd_capcheck(args, tol: Tolerances):
    g, out = _graded(args, tol, extra=2)
    fock = assemble_fock(g)
    report = check_commutation(fock)
    out["adjointness"] = _residual_rows(adjointness_residuals(fock))
    out["preservation_symmetry"] = _residual_rows(azero_symmetry_residuals(fock))
    out["commutation"] = [
        _verdict_row(e, relation=e.relation, pair=list(e.pair), degree=e.degree)
        for e in report.entries
    ]
    out["max_commutation_residual"] = report.max_residual
    out["passed"] = report.passed
    return out, 0 if report.passed else 3


def cmd_marginal(args, tol: Tolerances):
    n = args.max_degree
    if not args.coords:
        raise SpecFormatError("marginal needs --coords, e.g. --coords 1 or --coords 1,2")
    try:
        coords = tuple(int(part) for part in args.coords.split(","))
    except ValueError:
        raise SpecFormatError(f"bad --coords value {args.coords!r}") from None
    f = _load_functional(args, 2 * n)
    # checked here so that the messages use the 1-based numbering of --coords
    if any(c < 1 or c > f.dimension for c in coords):
        raise SpecFormatError(f"coordinates {coords} outside 1..{f.dimension}")
    if any(b <= a for a, b in zip(coords, coords[1:])):
        raise SpecFormatError(f"coordinates must be strictly increasing, got {coords}")
    spec = MarginalSpec(source=f, coords=tuple(c - 1 for c in coords))
    out = {
        "command": "marginal",
        "coords": list(coords),
        "depth": n,
    }
    marginal = marginal_functional(spec)
    if len(coords) == 1:
        mode = resolve_mode(marginal.exact, args.mode)
        pair = jacobi_1d(marginal, n, mode=mode)
        exact = mode == "exact"
        out["omegas"] = [format_scalar(v, exact) for v in pair.omegas]
        out["alphas"] = [format_scalar(v, exact) for v in pair.alphas]
        out["mode"] = mode
    else:
        g = build_gradations(marginal, n, mode=args.mode, tol=tol)
        out["mode"] = g.mode
        out["blocks"] = _omega_blocks(g, n)
    return out, 0


def cmd_favard(args, tol: Tolerances):
    if not args.fock:
        raise SpecFormatError("favard needs --fock FILE")
    fi = FockInput.from_json_dict(_load_json(args.fock))
    report = validate(fi, mode=args.mode, tol=tol)
    out = {
        "command": "favard",
        "dimension": fi.dimension,
        "depth": fi.depth,
        "checks": [_verdict_row(c, name=c.name, detail=c.detail) for c in report.checks],
        "validation_passed": report.passed,
    }
    if not report.passed:
        out["status"] = "invalid"
        out["reason"] = report.summary()
        return out, 3
    try:
        measure = reconstruct_discrete(fi, seed=args.seed, mode=args.mode, tol=tol)
    except NotFinitelySupportedError as exc:
        out["status"] = "refused"
        out["reason"] = str(exc)
        return out, 0
    out["status"] = "reconstructed"
    out["measure"] = {
        "atoms": [[_dump_value(c) for c in atom] for atom in measure.atoms],
        "weights": [_dump_value(w) for w in measure.weights],
        "raw_atoms": [list(a) for a in measure.raw_atoms],
        "raw_weights": list(measure.raw_weights),
    }
    return out, 0


COMMANDS = {
    "omega": cmd_omega,
    "rank": cmd_rank,
    "null": cmd_null,
    "moments": cmd_moments,
    "capcheck": cmd_capcheck,
    "marginal": cmd_marginal,
    "favard": cmd_favard,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvop",
        description="Orthogonal gradations, block operators, and reconstructions "
        "of multivariate moment functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("omega", "form generators per degree"),
        ("rank", "dimension, rank, and nullity per degree"),
        ("null", "generators of the null ideal"),
        ("moments", "moments recovered from vacuum words versus direct values"),
        ("capcheck", "adjointness, symmetry, and commutation residuals"),
        ("marginal", "marginal recurrence coefficients or form generators"),
        ("favard", "validate external blocks and reconstruct a discrete measure"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", help="measure specification JSON file")
        p.add_argument("--fock", help="block payload JSON file (favard)")
        p.add_argument(
            "--max-degree",
            type=int,
            default=None,
            help=f"maximal degree (default: ${DEFAULT_DEPTH_ENV} or 6)",
        )
        p.add_argument("--mode", choices=["exact", "float", "auto"], default="auto")
        p.add_argument("--tol-rank", type=float, default=None, help="rank cutoff override")
        p.add_argument("--seed", type=int, default=0, help="diagonalization seed (favard)")
        p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
        p.add_argument("--coords", help="1-based coordinates, comma separated (marginal)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; malformed invocation is exit 1 here
        return 0 if exc.code in (0, None) else 1

    if args.max_degree is None:
        raw = os.environ.get(DEFAULT_DEPTH_ENV, "6")
        try:
            args.max_degree = int(raw)
        except ValueError:
            print(f"error: bad {DEFAULT_DEPTH_ENV} value {raw!r}", file=sys.stderr)
            return 1
    if args.max_degree < 0:
        print("error: --max-degree must be >= 0", file=sys.stderr)
        return 1

    try:
        tol = Tolerances() if args.tol_rank is None else Tolerances(rank=args.tol_rank)
        # an overflow reaches the user once: a non-finite output value, or an
        # OverflowError from exact data beyond binary64 range
        with np.errstate(over="ignore", invalid="ignore"):
            obj, code = COMMANDS[args.command](args, tol)
            out = emit(obj, args.format)
    except (
        SpecFormatError, DepthExceededError, json.JSONDecodeError, OSError, OverflowError, ValueError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InconsistentMomentsError, InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # a reader that closed early (`| head`) is no error; devnull keeps the exit flush from raising
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
