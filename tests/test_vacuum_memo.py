"""Vacuum words share prefixes, layers hand over their pairs, and checks see changed copies.

`vacuum_moment` memoizes states per FockData, so reading every word up to
the depth costs one application of a coordinate per word (`_word_step`).
An exact state is int numerators over one denominator, reduced once per
word. The values must equal a replay of each word from the vacuum, done
here with plain `@` products on the public blocks: equal and of the same
type in exact mode, also on large denominators, and bit for bit in float
mode, also on a float copy of exact blocks with a perturbed entry. A
tampered A^+ gives no word: it is refused. Exact
gradations and FockData keep the pairs they were computed on for good, so
assembly clears no level, and the checks and vacuum words clear no block.
Their arrays are read-only: a change is an edited copy passed through
`dataclasses.replace`, a new value that every later check, vacuum word and
assembly sees. A copy of a FockData or GradationBasis starts with no memo.
"""

import copy
import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mvop
from mvop import _linalg
from mvop import fock as fock_module
from mvop.cli import functional_from_payload
from reference import edited, replaced, x_commutator_residual

GOLDEN = Path(__file__).parent / "golden"


def _spec(name, depth):
    payload = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    return functional_from_payload(payload, 2 * depth + 2)


BUILDERS = {
    "gauss3": (lambda: mvop.product_functional([mvop.gaussian_functional()] * 3), 4),
    "six3d": (lambda: _spec("six3d.json", 3), 3),
    "prod3": (lambda: _spec("prod3.json", 3), 3),
    "circle": (lambda: mvop.circle_functional(max_degree=26), 12),
    "half-circle": (lambda: mvop.circle_functional(half=True, max_degree=14), 6),
    "gauss2-float": (lambda: mvop.as_float_functional(mvop.product_functional([mvop.gaussian_functional()] * 2)), 5),
}


def assembled(name):
    make, depth = BUILDERS[name]
    return mvop.assemble_fock(mvop.build_gradations(make(), depth))


def skewed():
    atoms = ((6, 0), (3, 3), (0, 0), (3, -3), (Fraction(3, 2), Fraction(-9, 4)))
    weights = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4))
    f = mvop.discrete_functional(mvop.DiscreteMeasure(atoms=atoms, weights=weights))
    return mvop.assemble_fock(mvop.build_gradations(f, 4))


def replay(fock, alpha):
    """The word applied from the vacuum, rightmost factor first, by plain block products."""
    state = {0: np.array([1 if fock.exact else 1.0], dtype=object if fock.exact else float)}
    for i in reversed(range(fock.dimension)):
        for _ in range(alpha[i]):
            out = {}
            for n, v in state.items():
                moves = [(n + 1, fock.aplus[i][n]), (n, fock.azero[i][n])]
                if n:
                    moves.append((n - 1, fock.aminus[i][n]))
                for level, block in moves:
                    w = block @ v
                    out[level] = out[level] + w if level in out else w
            state = out
    return state[0][0]


def assert_same_word(got, want, exact):
    if exact:
        assert got == want and type(got) is type(want)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.fixture
def applications(monkeypatch):
    """Counts the applications of a coordinate to a word state made through the library."""
    count = [0]
    step = fock_module._word_step

    def counting(*args):
        count[0] += 1
        return step(*args)

    monkeypatch.setattr(fock_module, "_word_step", counting)
    return count


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_each_word_costs_one_application(name, applications):
    fock = assembled(name)
    words = mvop.monomials_up_to(fock.dimension, fock.depth)
    order = list(words)
    random.Random(5).shuffle(order)
    got = {w: mvop.vacuum_moment(fock, w) for w in order}
    assert applications[0] == sum(1 for w in words if sum(w) >= 1)
    applications[0] = 0
    again = {w: mvop.vacuum_moment(fock, w) for w in words}
    assert applications[0] == 0
    for w in words:
        assert_same_word(again[w], got[w], fock.exact)
        assert_same_word(got[w], replay(fock, w), fock.exact)
    if fock.exact:
        zero = got[(0,) * fock.dimension]
        assert zero == 1 and type(zero) is int


def test_large_denominator_words_equal_the_moments():
    # coordinate denominators 97 and 128: the word states' denominators grow
    # by E_i per step and must be reduced back
    rng = random.Random(97128)
    atoms = tuple(
        (Fraction(rng.randint(-60, 60), 97), Fraction(rng.randint(-60, 60), 128)) for _ in range(12)
    )
    raw = [rng.randint(1, 9) for _ in atoms]
    f = mvop.discrete_functional(mvop.DiscreteMeasure(atoms, tuple(Fraction(r, sum(raw)) for r in raw)))
    fock = mvop.assemble_fock(mvop.build_gradations(f, 6))
    for w in mvop.monomials_up_to(2, 6):
        got = mvop.vacuum_moment(fock, w)
        assert_same_word(got, replay(fock, w), True)
        assert got == f.moment(w)
        if any(w):
            assert type(got) is type(f.moment(w)) is Fraction


def float_entry(fock):
    # a float entry belongs to a float copy (exact=False): binary64 blocks
    floats = _linalg.computing(dataclasses.replace(fock, exact=False))
    return replaced(floats, "azero", 0, 1, (0, 1), change=lambda v: v + 0.25)


@pytest.mark.parametrize("edit", [float_entry])
def test_edited_exact_blocks_give_the_replayed_words(edit):
    fock = edit(skewed())
    words = mvop.monomials_up_to(2, fock.depth)
    got = [mvop.vacuum_moment(fock, w) for w in words]
    assert got != [mvop.vacuum_moment(skewed(), w) for w in words]
    for w, value in zip(words, got):
        assert_same_word(value, replay(fock, w), fock.exact)


def test_tampered_creation_block_gives_no_word():
    # A^+ is no data: a FockData with an edited creation block is refused at
    # its first word, and keeps no memo, so the next word is refused too
    fock = replaced(skewed(), "aplus", 0, 1, (0, 1), change=lambda v: v + Fraction(1, 3))
    for w in ((1, 0), (1, 0), (0, 2)):
        with pytest.raises(ValueError, match="canonical creation shifts"):
            mvop.vacuum_moment(fock, w)
    assert "_vacuum" not in fock.__dict__


def results(f):
    return (
        [(e.relation, e.pair, e.degree, e.residual) for e in mvop.check_commutation(f).entries],
        mvop.azero_symmetry_residuals(f),
        mvop.adjointness_residuals(f),
        x_commutator_residual(f, 0, 1, 1),
    )


def test_checks_see_blocks_edited_in_place():
    # an edited copy of the blocks, passed through replace, after the original was checked
    fock = skewed()
    before = results(fock)
    fock = dataclasses.replace(
        fock,
        azero=edited(fock.azero, 0, 1, (0, 1), change=lambda v: v + Fraction(1, 7)),
        aminus=edited(fock.aminus, 1, 2, (0, 0), change=lambda v: v + Fraction(1, 5)),
    )
    after = results(fock)
    assert after == results(copy.deepcopy(fock))
    for old, new in zip(before, after):
        assert old != new


def test_copies_start_their_own_memo():
    fock = skewed()
    words = mvop.monomials_up_to(2, fock.depth)
    before = {w: mvop.vacuum_moment(fock, w) for w in words}

    twin = copy.deepcopy(fock)
    twin = dataclasses.replace(twin, azero=edited(twin.azero, 0, 0, (0, 0), change=lambda v: v + 1))
    for w in words:
        assert_same_word(mvop.vacuum_moment(twin, w), replay(twin, w), True)
    assert mvop.vacuum_moment(twin, (1, 0)) != before[(1, 0)]

    azero = [[b.copy() for b in per] for per in fock.azero]
    azero[1][0][0, 0] += 1
    replaced = dataclasses.replace(fock, azero=azero)
    for w in words:
        assert_same_word(mvop.vacuum_moment(replaced, w), replay(replaced, w), True)
    assert mvop.vacuum_moment(replaced, (0, 1)) != before[(0, 1)]

    for w in words:
        assert mvop.vacuum_moment(fock, w) == before[w]
        assert_same_word(before[w], replay(fock, w), True)


@pytest.fixture
def clearings(monkeypatch):
    """The argument of every `_linalg.cleared` call made through the library."""
    calls = []
    clear = _linalg.cleared

    def counting(x):
        calls.append(x)
        return clear(x)

    monkeypatch.setattr(_linalg, "cleared", counting)
    return calls


def cleared_blocks(calls):
    return [x for x in calls if isinstance(x, np.ndarray) and x.dtype == object and x.ndim == 2]


@pytest.mark.parametrize("name", ["prod3", "six3d"])
def test_layers_hand_over_their_pairs(name, clearings):
    make, depth = BUILDERS[name]
    g = mvop.build_gradations(make(), depth)
    clearings.clear()
    fock = mvop.assemble_fock(g)
    # no level is cleared, and no creation block: the shifts are index maps
    assert cleared_blocks(clearings) == []

    clearings.clear()
    results(fock)
    for w in mvop.monomials_up_to(fock.dimension, fock.depth):
        mvop.vacuum_moment(fock, w)
    assert cleared_blocks(clearings) == []


def test_edit_right_after_assembly_is_seen():
    fock = skewed()
    fock = replaced(fock, "azero", 0, 1, (0, 1), change=lambda v: v + Fraction(1, 7))
    words = mvop.monomials_up_to(2, fock.depth)
    got = (results(fock), [mvop.vacuum_moment(fock, w) for w in words])
    twin = copy.deepcopy(fock)
    assert got == (results(twin), [mvop.vacuum_moment(twin, w) for w in words])
    untouched = skewed()
    assert got[0] != results(untouched)
    assert got[1] != [mvop.vacuum_moment(untouched, w) for w in words]


def outcome(g):
    """The blocks assembled from g with their entry types, or the error raised."""
    try:
        fock = mvop.assemble_fock(g)
    except mvop.InternalConsistencyError as exc:
        return str(exc)
    blocks = [fock.grams, *fock.aplus, *fock.azero, *fock.aminus]
    return [[(type(v), v) for v in b.flat] for per in blocks for b in per if b is not None]


def with_level(g, n, lev):
    """g with level n replaced by lev: a new gradation."""
    return dataclasses.replace(g, levels=[*g.levels[:n], lev, *g.levels[n + 1 :]])


@pytest.mark.parametrize(
    "edit",
    [
        lambda lev: replaced(lev, "gram", (0, 0), change=lambda v: v + Fraction(1, 3)),
        lambda lev: replaced(lev, "coef", (0, -1), change=lambda v: v + Fraction(1, 3)),
        lambda lev: dataclasses.replace(lev, split=replaced(lev.split, "norms2", 0, change=lambda v: 2 * v)),
    ],
    ids=["gram", "coef", "norms2"],
)
def test_level_edited_before_assembly_is_seen(edit):
    g = mvop.build_gradations(_spec("prod3.json", 3), 3)
    before = outcome(copy.deepcopy(g))
    g = with_level(g, 2, edit(g.levels[2]))
    got = outcome(g)
    assert got == outcome(copy.deepcopy(g))
    assert got != before


def test_copies_carry_no_memo():
    fock = assembled("prod3")
    mvop.check_commutation(fock)
    mvop.vacuum_moment(fock, (1, 0, 0))
    memos = ("_computing", "_vacuum")
    assert all(m in fock.__dict__ for m in memos)
    twin = copy.deepcopy(fock)
    assert not any(m in twin.__dict__ for m in memos)
