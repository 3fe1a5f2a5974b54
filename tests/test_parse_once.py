"""A block payload is parsed once, straight to its computing form.

`FockInput.from_json_dict` reads each entry once into a pair or a binary64
array; the published arrays, exactness and every refusal must be those of
the entry-by-entry parse of `reference.fock_payload`. Exact validation and
reconstruction then run on those pairs: nothing is cleared again, and no
array is published that nobody reads.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mvop
from mvop import _linalg
from reference import fock_payload, scalar

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
PAYLOADS = ("square_fock", "square_fock_tampered", "square_omega")


def described(family):
    """Each block's dtype, shape and entries, with each entry's type and exact value (floats in hex)."""
    if isinstance(family, np.ndarray):
        entries = [(type(v).__name__, v.hex() if isinstance(v, float) else str(v)) for v in family.flat]
        return str(family.dtype), family.shape, entries
    return [described(block) for block in family]


def parsed(payload):
    try:
        fi = mvop.FockInput.from_json_dict(payload)
    except mvop.SpecFormatError as exc:
        return "refused", str(exc)
    return fi.exact, described(fi.grams), described(fi.bzero)


def reference(payload):
    try:
        grams, bzero, exact = fock_payload(payload)
    except mvop.SpecFormatError as exc:
        return "refused", str(exc)
    return exact, described(grams), described(bzero)


@pytest.fixture(scope="module")
def pool_payloads():
    """The block payloads of the favard-exact benchmark pools of seeds 778 and 1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import workloads
    return [json.loads(p.text) for seed in (778, 1) for items in workloads.FavardExact(seed).pool for p in items]


@pytest.mark.parametrize("name", PAYLOADS)
def test_golden_payloads_parse_as_entry_by_entry(name):
    payload = json.loads((GOLDEN / f"{name}.json").read_text())
    got = parsed(payload)
    assert got == reference(payload)
    assert got[0] is True


def test_benchmark_pools_parse_as_entry_by_entry(pool_payloads):
    assert len(pool_payloads) == 52
    for payload in pool_payloads:
        got = parsed(payload)
        assert got == reference(payload)
        assert got[0] is True


def _spellings(value: Fraction) -> list:
    """JSON spellings of one rational: "p/q", unreduced, padded, and as an integer when it is one."""
    p, q = value.numerator, value.denominator
    out = [f"{p}/{q}", f"{3 * p}/{3 * q}", f" {p}/{q} "]
    if q == 1:
        out += [p, str(p)]
    if q in (2, 4, 5, 8, 10, 1000):
        out.append(str(float(value)))  # a decimal string, read exactly
    return out


def _rational(rng, big: bool) -> Fraction:
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(rng.randint(-9, 9))
    if kind == 1:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 12))
    if kind == 2:
        return Fraction(rng.choice((1, 3, -7)), 1000)
    if kind == 3:
        # 400-digit numerator and denominator of a moderate value
        return Fraction(10**400 + rng.randint(1, 99), 10**400)
    if kind == 4 and big:
        return Fraction(10**399 * rng.randint(1, 9))
    return Fraction(rng.randint(-3, 3), rng.choice((2, 4, 6)))


def _entry(rng, value, floats: bool):
    """A JSON spelling of value: a JSON float now and then when floats are allowed."""
    if floats and rng.random() < 0.3:
        return float(value)
    return rng.choice(_spellings(value))


def _block(rng, k: int, symmetric: bool, floats: bool, big: bool, scale=None) -> list:
    values = [[_rational(rng, big) for _ in range(k)] for _ in range(k)]
    if symmetric:
        values = [[values[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
        if k > 1 and rng.random() < 0.1:
            values[0][1] += Fraction(1, 10**12)  # exactly asymmetric, within float rounding
    if scale is not None:
        values = [[v / scale[i] for v in row] for i, row in enumerate(values)]
    return [[_entry(rng, v, floats) for v in row] for row in values]


def _refused_entry(rng):
    return rng.choice([True, False, "1/0", [1], "x", "1/-2", float("nan"), None, {"p": 1}])


def _fuzz_payload(rng) -> dict:
    d, depth = rng.randint(1, 2), rng.randint(0, 2)
    floats = rng.random() < 0.4
    big = not floats  # a value beyond binary64 only where no float makes the payload binary64
    key = rng.choice(("gram", "gram", "omega"))
    grams = []
    for n in range(depth + 1):
        k = mvop.space_dimension(d, n)
        weights = [mvop.index_weight(a) for a in mvop.monomials_of_degree(d, n)] if key == "omega" else None
        grams.append(_block(rng, k, True, floats, big, scale=weights))
    grams[0] = [[rng.choice((1, "1", "2/2", " 1 ", 1.0 if floats else "3/3"))]]
    payload = {"dimension": d, "depth": depth, key: grams}
    if rng.random() < 0.8:
        payload["bzero"] = [
            [_block(rng, mvop.space_dimension(d, n), False, floats, big) for n in range(depth + 1)]
            for _ in range(d)
        ]
    if rng.random() < 0.3:
        blocks = payload[key] + [b for per in payload.get("bzero", []) for b in per]
        block = rng.choice(blocks)
        row = rng.choice(block)
        fault = rng.randrange(3)
        if fault == 0:
            row[rng.randrange(len(row))] = _refused_entry(rng)
        elif fault == 1:
            row.append(rng.choice((0, "1/2", 0.5)))  # a ragged row, or a wrong shape
        else:
            block[rng.randrange(len(block))] = rng.choice((5, "1/2", [[1]]))  # a row that is not a list
    return payload


def test_fuzzed_payloads_parse_as_entry_by_entry():
    rng = random.Random(3806)
    outcomes = {"exact": 0, "float": 0, "refused": 0}
    messages = set()
    for _ in range(400):
        payload = _fuzz_payload(rng)
        got = parsed(json.loads(json.dumps(payload)))
        assert got == reference(json.loads(json.dumps(payload))), payload
        if got[0] == "refused":
            outcomes["refused"] += 1
            messages.add(got[1].split(" ")[0])
        else:
            outcomes["exact" if got[0] else "float"] += 1
    # every kind of outcome is reached, and refusals of several kinds
    assert min(outcomes.values()) >= 40, outcomes
    assert len(messages) >= 4, messages


@pytest.mark.parametrize("text", ["1/2", "-3/4", " 5/6 ", "6/4", "0.25", "1e-3", "-0/7", "007/3", "+1/2", "12"])
def test_scalar_strings_parse_as_fractions(text):
    assert mvop.scalars.parse_scalar(text) == Fraction(text.strip())
    p, q = mvop.scalars.parse_ratio(text)
    assert Fraction(p, q) == Fraction(text.strip()) and q > 0


@pytest.mark.parametrize("text", ["1/0", "1/-2", "-", "1/", "/2", "１/2x", "0x10"])
def test_refused_scalar_strings_name_the_value(text):
    with pytest.raises(mvop.SpecFormatError, match="cannot parse scalar"):
        mvop.scalars.parse_ratio(text)
    with pytest.raises(mvop.SpecFormatError, match="cannot parse scalar"):
        scalar(text)


def test_an_exact_payload_is_cleared_and_published_nowhere(monkeypatch):
    counts = {"cleared": 0, "published": 0}

    def counted(name):
        original = getattr(_linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(_linalg, name, counted(name))
    for name in PAYLOADS:
        fi = mvop.FockInput.from_json_dict(json.loads((GOLDEN / f"{name}.json").read_text()))
        assert fi.exact
        report = mvop.validate(fi)
        assert report.passed == (name != "square_fock_tampered")
        if report.passed:
            assert len(mvop.reconstruct_discrete(fi).atoms) == 4
        # the payload's arrays are published on their first read, and nobody read them
        assert "grams" not in fi.__dict__ and "bzero" not in fi.__dict__
    assert counts == {"cleared": 0, "published": 0}


def test_a_report_publishes_the_payload_arrays():
    fi = mvop.FockInput.from_json_dict(json.loads((GOLDEN / "square_fock.json").read_text()))
    report = mvop.validate(fi)
    # the report's Grams and A^0 are the payload's arrays, published once for both
    assert all(a is b for a, b in zip(report.fock.grams, fi.grams))
    assert all(a is b for per, mine in zip(report.fock.azero, fi.bzero) for a, b in zip(per, mine))


def test_float_mode_rounds_an_exact_payload_once():
    payload = json.loads((GOLDEN / "square_fock.json").read_text())
    payload["gram"][0][0][0] = f"{10**400 + 1}/{10**400}"
    fi = mvop.FockInput.from_json_dict(payload)
    form = _linalg.computing(fi)
    assert isinstance(form.grams[0], _linalg.Cleared) and form.grams[0].den == 10**400
    # exact mode sees the deviation, binary64 rounds it away
    assert not mvop.validate(fi).checks[0].passed
    assert mvop.validate(fi, mode="float").checks[0].residual == 0.0


def test_a_float_entry_makes_the_payload_binary64():
    payload = json.loads((GOLDEN / "square_fock.json").read_text())
    payload["bzero"][0][1][0][0] = 0.0
    fi = mvop.FockInput.from_json_dict(payload)
    assert not fi.exact
    form = _linalg.computing(fi)
    assert all(b.dtype == np.float64 for b in (*form.grams, *(b for per in form.bzero for b in per)))
    # the all-rational blocks still publish their exact entries
    assert fi.grams[1].dtype == object and fi.bzero[0][1].dtype == np.float64
    assert mvop.validate(fi).passed
