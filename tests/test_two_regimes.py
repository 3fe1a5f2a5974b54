"""Exact work runs only on pairs and maps, float work on binary64 arrays.

Every kernel of `_linalg` is wrapped with a recorder of the operands it is
given; then the forward pipelines in both modes, the self-adjointness bound
and the level spectra, the inverse direction in both modes and every CLI
command on the golden specs run, and no kernel may have been given anything
but `Cleared` pairs, `Units` maps, binary64 arrays, or splits and term lists
of them. So no library path hands a kernel a Fraction, int or object array:
those are made only for the caller (`_linalg.published`).
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mvop
from mvop import _linalg
from mvop.cli import functional_from_payload
from test_api_edge import _forward
from test_cli_bytes import CASES, _run

GOLDEN = Path(__file__).parent / "golden"
KERNELS = (
    "matmul", "times", "times_sum", "max_quadratic", "split_gram", "eigen_split",
    "gram_product", "gram_times", "pseudo_apply", "stack",
)


def computing_operand(x) -> bool:
    """Whether x is a pair, a map, a binary64 array, or a split, list or tuple of them; numbers pass."""
    if isinstance(x, (_linalg.Cleared, _linalg.Units, int, float)):
        return True
    if isinstance(x, np.ndarray):
        return x.dtype == np.float64
    if isinstance(x, _linalg.GramSplit):
        return all(map(computing_operand, (x.combos, x.norms2, x.null)))
    if isinstance(x, (list, tuple)):
        return all(map(computing_operand, x))
    return False


@pytest.fixture
def kernel_calls(monkeypatch):
    """{kernel: [number of calls, operands that are not in computing form]}."""
    calls = {name: [0, []] for name in KERNELS}

    def recorded(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name][0] += 1
            calls[name][1].extend(x for x in (*args, *kwargs.values()) if not computing_operand(x))
            return kernel(*args, **kwargs)

        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(_linalg, name, recorded(name, getattr(_linalg, name)))
    return calls


def test_kernels_take_only_pairs_maps_and_binary64_arrays(kernel_calls):
    prod3 = functional_from_payload(json.loads((GOLDEN / "prod3.json").read_text()), 2 * 4 + 2)
    circle = mvop.circle_functional(max_degree=18)
    for f, depth in ((prod3, 4), (circle, 8)):
        g = _forward(f, depth)
        mvop.self_adjointness_bound(mvop.assemble_fock(g))
        for n in range(depth + 1):
            mvop.nonzero_spectrum(g, n)
    for name in ("square_fock", "square_fock_tampered", "square_omega"):
        fi = mvop.FockInput.from_json_dict(json.loads((GOLDEN / f"{name}.json").read_text()))
        for mode in ("exact", "float"):
            report = mvop.validate(fi, mode=mode)
            assert report.passed == (name != "square_fock_tampered")
            if report.passed:
                mvop.reconstruct_discrete(fi, mode=mode)
                mvop.self_adjointness_bound(report.fock)
    for _, argv, code in CASES:
        assert _run(argv)[0] == code
    assert {name: offending for name, (_, offending) in kernel_calls.items()} == {name: [] for name in KERNELS}
    assert all(count for count, _ in kernel_calls.values())

    # the guard sees a Fraction array, and an int one
    fractions = np.array([[Fraction(1, 3)]], dtype=object)
    _linalg.matmul(fractions, fractions)
    _linalg.split_gram(np.eye(1, dtype=int), 0.0, 0.0)
    assert len(kernel_calls["matmul"][1]) == 2 and len(kernel_calls["split_gram"][1]) == 1
