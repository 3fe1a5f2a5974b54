"""CLI stdout, byte for byte, against committed golden files.

Every case runs one exact-mode subcommand on a spec or payload under
tests/golden/ and compares its stdout with tests/golden/<case>.out, or with
the golden of the case SAME_AS names for it. Float runs are left out: their
last digits depend on the BLAS build.

``PYTHONPATH=src python tests/test_cli_bytes.py`` writes the golden of
every case whose file is missing and prints the cases it skipped, so adding
a case never rewrites a pinned file. To regenerate a golden on purpose
(only when an output change is intended), delete its file first.
"""

import contextlib
import io
from pathlib import Path

import pytest

from mvop.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (case name, argv with spec and payload paths relative to GOLDEN, exit code)
CASES = [
    (f"{cmd}-{spec}", [cmd, "--spec", f"{spec}.json", "--max-degree", "3", "--mode", "exact"], 0)
    for spec in ("square", "skew")
    for cmd in ("omega", "rank", "null", "moments", "capcheck")
]
CASES += [
    (
        f"marginal{coords.replace(',', '')}-{spec}",
        ["marginal", "--spec", f"{spec}.json", "--max-degree", "3", "--mode", "exact", "--coords", coords],
        0,
    )
    for spec in ("square", "skew")
    for coords in ("1", "1,2")
]
# a 3-D measure whose null ideal has generators at degrees 2 and 3
CASES += [
    (f"{cmd}-six3d", [cmd, "--spec", "six3d.json", "--max-degree", "3", "--mode", "exact"], 0)
    for cmd in ("null", "rank", "moments", "capcheck")
]
# a 3-D product of a Gaussian, a rational recurrence and a 3-atom factor,
# with a degree-3 null generator
CASES += [
    (f"{cmd}-prod3", [cmd, "--spec", "prod3.json", "--max-degree", "3", "--mode", "exact"], 0)
    for cmd in ("omega", "rank", "null", "moments", "capcheck")
]
# a 2-D Gaussian: no null generators, so every renderer meets an empty list
CASES += [
    ("null-gauss2", ["null", "--spec", "gauss2.json", "--max-degree", "3", "--mode", "exact"], 0),
]
CASES += [
    ("favard-genuine", ["favard", "--fock", "square_fock.json", "--mode", "exact"], 0),
    ("favard-tampered", ["favard", "--fock", "square_fock_tampered.json", "--mode", "exact"], 3),
    # the genuine payload given by its form generators Omega_n
    ("favard-omega", ["favard", "--fock", "square_omega.json", "--mode", "exact"], 0),
]
# cases that print the golden of another case
SAME_AS = {"favard-omega": "favard-genuine"}
# the csv and pretty renderers, on cases whose JSON is pinned above; the
# golden of "<case>" in format f is tests/golden/<case>-<f>.out
CASES += [
    (f"{name}-{fmt}", argv + ["--format", fmt], code)
    for name, argv, code in list(CASES)
    if name
    in (
        "omega-prod3",
        "rank-square",
        "null-six3d",
        "null-gauss2",
        "moments-square",
        "capcheck-skew",
        "marginal1-skew",
        "marginal12-square",
        "favard-genuine",
        "favard-tampered",
    )
    for fmt in ("csv", "pretty")
]


def _golden(name: str) -> Path:
    return GOLDEN / f"{SAME_AS.get(name, name)}.out"


def _run(argv) -> tuple:
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_stdout_matches_golden(name, argv, code):
    got_code, out = _run(argv)
    assert got_code == code
    assert out == _golden(name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv, _ in CASES:
        path = _golden(name)
        if path.exists():
            print(f"skipped {name}: {path.name} exists")
        else:
            path.write_text(_run(argv)[1], encoding="utf-8")
            print(f"wrote {path.name}")
