"""Exact arrays are published on first read, and every read sees the same values.

An exact gradation level keeps the pairs of its `coef`, `gram` and `split`,
and an exact FockData (assembled, or a `validate` report's) those of its
blocks; each attribute becomes a public array on its first read. A forward
run that reads no public array builds none. Copies publish whatever is
pending and hold the arrays a twin read first would hold, entry types
included. An array edited in place before or after the library first used
its pairs is seen by every later check, vacuum word and assembly.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import mvop
from mvop import _linalg
from mvop import fock as fock_module

from test_vacuum_memo import BUILDERS, results, skewed


def typed(a):
    return None if a is None else (a.shape, [(type(v), v) for v in a.flat])


def level_values(g):
    return [
        [typed(a) for a in (lev.coef, lev.gram, lev.split.combos, lev.split.norms2, lev.split.null)]
        for lev in g.levels
    ]


def block_values(fock):
    return [
        [[typed(b) for b in per] for per in family]
        for family in ([fock.grams], fock.aplus, fock.azero, fock.aminus)
    ]


def gradation(name):
    make, depth = BUILDERS[name]
    return mvop.build_gradations(make(), depth)


def square_input(square_fn):
    return mvop.FockInput.from_fock_data(mvop.assemble_fock(mvop.build_gradations(square_fn, 3)))


@pytest.fixture
def publications(monkeypatch):
    """Every call of `_linalg.published` and `fock._creation_blocks` made through the library."""
    calls = []
    published, creation_blocks = _linalg.published, fock_module._creation_blocks
    monkeypatch.setattr(_linalg, "published", lambda *a: calls.append("published") or published(*a))
    monkeypatch.setattr(
        fock_module, "_creation_blocks", lambda *a: calls.append("creation") or creation_blocks(*a)
    )
    return calls


@pytest.mark.parametrize("name", ["prod3", "six3d"])
def test_exact_forward_run_publishes_nothing(name, publications):
    make, depth = BUILDERS[name]
    functional = make()
    g = mvop.build_gradations(functional, depth)
    fock = mvop.assemble_fock(g)
    assert mvop.check_commutation(fock).passed
    for w in mvop.monomials_up_to(fock.dimension, fock.depth):
        assert mvop.vacuum_moment(fock, w) == functional.moment(w)
    ranks = mvop.rank_sequence(g)
    assert publications == []
    assert ranks.ranks == tuple(lev.rank for lev in g.levels)


def test_validate_publishes_no_unread_report(publications, square_fn):
    fi = square_input(square_fn)
    publications.clear()
    report = mvop.validate(fi)
    assert report.passed and publications == []


def picklable(g):
    # functionals hold local functions, which do not pickle
    g.functional = None
    return g


def assembled_picklable():
    fock = mvop.assemble_fock(gradation("prod3"))
    picklable(fock.gradation)
    return fock


def test_copies_hold_the_arrays_a_twin_read_first(square_fn):
    def copies(x):
        """(copy, whether it is deep) for each way of copying x."""
        made = [(pickle.loads(pickle.dumps(x)), True), (copy.deepcopy(x), True)]
        if dataclasses.is_dataclass(x):
            made.append((dataclasses.replace(x), False))
        return made

    def alone(lev):
        return level_values(mvop.GradationBasis(None, lev.degree, "exact", None, [lev]))

    makers = [
        (lambda: picklable(gradation("prod3")), level_values, lambda g: [g, *g.levels]),
        (lambda: gradation("prod3").levels[2], alone, lambda lev: [lev]),
        (assembled_picklable, block_values, lambda f: [f, f.gradation, *f.gradation.levels]),
        (lambda: mvop.validate(square_input(square_fn)).fock, block_values, lambda f: [f]),
    ]
    for make, values, holders in makers:
        twin = make()
        want = values(twin)
        for made, _ in copies(twin):
            assert values(made) == want
        for made, deep in copies(make()):
            # a shallow copy shares the original's gradation, which keeps its own
            assert not any("_computing" in h.__dict__ for h in holders(made)[: None if deep else 1])
            assert values(made) == want


def test_assembled_grams_are_the_level_grams():
    for read_levels_first in (True, False):
        g = gradation("prod3")
        fock = mvop.assemble_fock(g)
        if read_levels_first:
            level_grams = [lev.gram for lev in g.levels]
            assert all(a is b for a, b in zip(fock.grams, level_grams))
        else:
            grams = fock.grams
            assert all(a is lev.gram for a, lev in zip(grams, g.levels))


def words(fock):
    return [mvop.vacuum_moment(fock, w) for w in mvop.monomials_up_to(fock.dimension, fock.depth)]


def outcome(g):
    """The assembled blocks, their checks and vacuum words, or the error assembly raised."""
    try:
        fock = mvop.assemble_fock(g)
    except mvop.InternalConsistencyError as exc:
        return str(exc)
    return block_values(fock), results(fock), words(fock)


LEVEL_EDITS = {
    "gram": lambda lev: lev.gram.__setitem__((0, 0), lev.gram[0, 0] + Fraction(1, 3)),
    "coef": lambda lev: lev.coef.__setitem__((0, -1), lev.coef[0, -1] + Fraction(1, 3)),
    "norms2": lambda lev: lev.split.norms2.__setitem__(0, 2 * lev.split.norms2[0]),
    "reassigned-gram": lambda lev: setattr(lev, "gram", lev.gram + Fraction(1, 3)),
}


@pytest.mark.parametrize("used_first", [False, True], ids=["edit-first", "assembled-first"])
@pytest.mark.parametrize("edit", sorted(LEVEL_EDITS))
def test_level_edit_is_seen(edit, used_first):
    g = gradation("prod3")
    before = outcome(copy.deepcopy(g))
    if used_first:
        assert outcome(g) == before
    LEVEL_EDITS[edit](g.levels[2])
    got = outcome(g)
    assert got == outcome(copy.deepcopy(g))
    assert got != before


def edited_results(f):
    return results(f), words(f)


FOCK_EDITS = {
    "azero": lambda f: f.azero[0][1].__setitem__((0, 1), f.azero[0][1][0, 1] + Fraction(1, 7)),
    "aminus": lambda f: f.aminus[1][2].__setitem__((0, 0), f.aminus[1][2][0, 0] + Fraction(1, 5)),
}


@pytest.mark.parametrize("used_first", [False, True], ids=["edit-first", "checked-first"])
@pytest.mark.parametrize("edit", sorted(FOCK_EDITS))
def test_block_edit_is_seen(edit, used_first):
    fock = skewed()
    before = edited_results(copy.deepcopy(fock))
    assembled = outcome(copy.deepcopy(fock.gradation))
    if used_first:
        assert results(fock) == before[0]
    FOCK_EDITS[edit](fock)
    got = edited_results(fock)
    assert got == edited_results(copy.deepcopy(fock))
    assert got[0] != before[0]
    assert outcome(fock.gradation) == assembled


@pytest.mark.parametrize("used_first", [False, True], ids=["edit-first", "checked-first"])
def test_report_edit_is_seen(square_fn, used_first):
    fock = mvop.validate(square_input(square_fn)).fock
    before = edited_results(copy.deepcopy(fock))
    if used_first:
        assert results(fock) == before[0]
    fock.aminus[0][1][0, 0] += Fraction(1, 5)
    got = edited_results(fock)
    assert got == edited_results(copy.deepcopy(fock))
    assert got[0] != before[0]


def test_level_gram_edit_reaches_the_unread_fock_grams():
    fock = skewed()
    fock.gradation.levels[1].gram[0, 0] += Fraction(1, 3)
    got = edited_results(fock)
    assert got == edited_results(copy.deepcopy(fock))
    assert got[0] != results(skewed())
