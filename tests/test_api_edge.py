"""Polynomial objects stay at the API edge: no library path does Polynomial arithmetic.

The library works on coefficient columns and builds `Polynomial` objects
only to hand them out (null generators, orthogonal bases). Every arithmetic
operator of the class is wrapped with a counter, each name on its own,
because the reflected names are aliases bound when the class is created;
then the forward pipelines in both modes, the inverse direction and every
CLI command on the golden specs run, and no operator may have been called.
"""

import json
from pathlib import Path

import pytest

import mvop
from mvop.cli import functional_from_payload
from test_cli_bytes import CASES, _run

GOLDEN = Path(__file__).parent / "golden"
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


@pytest.fixture
def operator_calls(monkeypatch):
    calls = {name: 0 for name in OPERATORS}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in OPERATORS:
        monkeypatch.setattr(mvop.Polynomial, name, counted(name, getattr(mvop.Polynomial, name)))
    return calls


def _forward(f, depth):
    g = mvop.build_gradations(f, depth)
    fock = mvop.assemble_fock(g)
    assert mvop.check_commutation(fock).passed
    for word in mvop.monomials_up_to(f.dimension, depth):
        mvop.vacuum_moment(fock, word)
    mvop.base_generators(g)
    marginal = mvop.marginal_functional(mvop.MarginalSpec(source=f, coords=(0,)))
    mvop.jacobi_1d(marginal, depth)
    return g


def test_no_library_path_does_polynomial_arithmetic(operator_calls):
    prod3 = functional_from_payload(json.loads((GOLDEN / "prod3.json").read_text()), 2 * 4 + 2)
    assert _forward(prod3, 4).exact
    assert not _forward(mvop.circle_functional(max_degree=18), 8).exact
    fi = mvop.FockInput.from_json_dict(json.loads((GOLDEN / "square_fock.json").read_text()))
    assert mvop.validate(fi).passed
    mvop.reconstruct_discrete(fi)
    assert {argv[0] for _, argv, _ in CASES} == {
        "omega", "rank", "null", "moments", "capcheck", "marginal", "favard"
    }
    for _, argv, code in CASES:
        assert _run(argv)[0] == code
    assert operator_calls == dict.fromkeys(OPERATORS, 0)

    # each counter sees its operator
    x = mvop.Polynomial.variable(1, 0)
    x + x, 1 + x, x - x, 1 - x, x * x, 2 * x, -x
    assert all(operator_calls.values())
