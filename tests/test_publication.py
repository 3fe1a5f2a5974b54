"""Exact arrays are published on first read, read-only, and a change is a new value.

An exact gradation level keeps the pairs of its `coef`, `gram` and `split`,
and an exact FockData (assembled, or a `validate` report's) those of its
blocks, for good, and publishes each attribute on its first read. A forward
run that reads no public array builds none. Every published array is
read-only, in both modes: an edit in place raises, and an edited copy
passed through `dataclasses.replace` is a new value, which every later
check, vacuum word and assembly sees while the original keeps its results.
Copies publish whatever is unread and hold the arrays a twin read first
would hold, entry types included, and a pickle carries the functional of
every backend.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import mvop
from mvop import _linalg
from mvop import fock as fock_module

from reference import edited, replaced
from test_vacuum_memo import BUILDERS, results, skewed, with_level


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
        (lambda: gradation("prod3"), level_values, lambda g: [g, *g.levels]),
        (lambda: gradation("prod3").levels[2], alone, lambda lev: [lev]),
        (
            lambda: mvop.assemble_fock(gradation("prod3")),
            block_values,
            lambda f: [f, f.gradation, *f.gradation.levels],
        ),
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


def square():
    atoms = ((1, 1), (-1, 1), (-1, -1), (1, -1))
    return mvop.discrete_functional(mvop.DiscreteMeasure(atoms, (Fraction(1, 4),) * 4))


FUNCTIONALS = {
    "discrete": square,
    "product": lambda: mvop.product_functional([mvop.gaussian_functional(), square()]),
    "gaussian": mvop.gaussian_functional,
    "circle": lambda: mvop.circle_functional(max_degree=6),
    "half-circle": lambda: mvop.circle_functional(half=True, max_degree=6),
    "jacobi": lambda: mvop.jacobi_to_moments(mvop.JacobiPair1D((1, 2, 3, 4, 5, 6), (0,) * 6), 6),
    "float": lambda: mvop.measures.as_float_functional(square()),
    "marginal": lambda: mvop.marginal_functional(mvop.MarginalSpec(square(), (1,))),
    "table": lambda: mvop.table_functional(1, {(k,): int(k % 2 == 0) for k in range(7)}, 6),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONALS))
def test_pickles_carry_their_functional(name):
    functional = FUNCTIONALS[name]()
    fock = mvop.assemble_fock(mvop.build_gradations(functional, 2))
    words = mvop.monomials_up_to(functional.dimension, 6)
    want = [functional.moment(w) for w in words]
    for held in (fock.gradation, fock):
        loaded = pickle.loads(pickle.dumps(held))
        g = loaded if isinstance(loaded, mvop.GradationBasis) else loaded.gradation
        g.functional._cache.clear()
        got = [g.functional.moment(w) for w in words]
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


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
    "gram": lambda lev: replaced(lev, "gram", (0, 0), change=lambda v: v + Fraction(1, 3)),
    "coef": lambda lev: replaced(lev, "coef", (0, -1), change=lambda v: v + Fraction(1, 3)),
    "norms2": lambda lev: dataclasses.replace(
        lev, split=replaced(lev.split, "norms2", 0, change=lambda v: 2 * v)
    ),
    "reassigned-gram": lambda lev: dataclasses.replace(lev, gram=lev.gram + Fraction(1, 3)),
}


@pytest.mark.parametrize("used_first", [False, True], ids=["edit-first", "assembled-first"])
@pytest.mark.parametrize("edit", sorted(LEVEL_EDITS))
def test_level_edit_is_seen(edit, used_first):
    # an edited copy of level 2 in a replaced gradation, before or after the original was assembled
    g = gradation("prod3")
    before = outcome(copy.deepcopy(g))
    if used_first:
        assert outcome(g) == before
    changed = with_level(g, 2, LEVEL_EDITS[edit](g.levels[2]))
    got = outcome(changed)
    assert got == outcome(copy.deepcopy(changed))
    assert got != before
    assert outcome(g) == before


def edited_results(f):
    return results(f), words(f)


FOCK_EDITS = {
    "azero": lambda f: replaced(f, "azero", 0, 1, (0, 1), change=lambda v: v + Fraction(1, 7)),
    "aminus": lambda f: replaced(f, "aminus", 1, 2, (0, 0), change=lambda v: v + Fraction(1, 5)),
}


@pytest.mark.parametrize("used_first", [False, True], ids=["edit-first", "checked-first"])
@pytest.mark.parametrize("edit", sorted(FOCK_EDITS))
def test_block_edit_is_seen(edit, used_first):
    # an edited copy of the blocks through replace, before or after the original was checked
    fock = skewed()
    before = edited_results(copy.deepcopy(fock))
    assembled = outcome(copy.deepcopy(fock.gradation))
    if used_first:
        assert results(fock) == before[0]
    changed = FOCK_EDITS[edit](fock)
    got = edited_results(changed)
    assert got == edited_results(copy.deepcopy(changed))
    assert got[0] != before[0]
    assert outcome(changed.gradation) == assembled
    assert edited_results(fock) == before


@pytest.mark.parametrize("used_first", [False, True], ids=["edit-first", "checked-first"])
def test_report_is_read_only_and_a_replaced_one_is_seen(square_fn, used_first):
    fock = mvop.validate(square_input(square_fn)).fock
    before = edited_results(copy.deepcopy(fock))
    if used_first:
        assert results(fock) == before[0]
    with pytest.raises(ValueError, match="read-only"):
        fock.aminus[0][1][0, 0] += Fraction(1, 5)
    changed = replaced(fock, "aminus", 0, 1, (0, 0), change=lambda v: v + Fraction(1, 5))
    got = edited_results(changed)
    assert got == edited_results(copy.deepcopy(changed))
    assert got[0] != before[0]
    assert edited_results(fock) == before


def test_level_gram_is_read_only_and_a_replaced_one_is_seen():
    fock = skewed()
    with pytest.raises(ValueError, match="read-only"):
        fock.gradation.levels[1].gram[0, 0] += Fraction(1, 3)
    # the fock grams are the level grams, so an edited level gram is an edited fock gram
    assert all(a is lev.gram for a, lev in zip(fock.grams, fock.gradation.levels))
    changed = replaced(fock, "grams", 1, (0, 0), change=lambda v: v + Fraction(1, 3))
    got = edited_results(changed)
    assert got == edited_results(copy.deepcopy(changed))
    assert got[0] != results(skewed())
    assert results(fock) == results(skewed())


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_published_arrays_are_read_only(mode):
    g = mvop.build_gradations(skewed().gradation.functional, 3, mode=mode)
    fock = mvop.assemble_fock(g)
    word = mvop.vacuum_moment(fock, (3, 0))
    fi = mvop.FockInput.from_fock_data(fock)
    report = mvop.validate(fi, mode=mode).fock
    splits = [lev.split for lev in g.levels]

    def blocks(f):
        return [b for family in (f.aplus, f.azero, f.aminus) for per in family for b in per if b is not None]

    families = {
        "coef": [lev.coef for lev in g.levels],
        "gram": [lev.gram for lev in g.levels],
        "combos": [s.combos for s in splits],
        "norms2": [s.norms2 for s in splits],
        "null": [s.null for s in splits],
        "grams": list(fock.grams),
        "aplus": [b for per in fock.aplus for b in per],
        "azero": [b for per in fock.azero for b in per],
        "aminus": [b for per in fock.aminus for b in per[1:]],
        "report": [*report.grams, *blocks(report)],
    }
    for name, arrays in families.items():
        assert arrays, name
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a += 1
    if mode == "exact":
        assert {type(v) for b in families["aplus"] for v in b.flat} == {int}
    for f in (fock, report):
        assert all(type(family) is tuple for family in (f.grams, f.aplus, f.azero, f.aminus))
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.azero = f.azero
    assert type(g.levels) is tuple
    # the payload follows the same rule
    assert not any(b.flags.writeable for b in (*fi.grams, *(b for per in fi.bzero for b in per)))
    assert type(fi.grams) is tuple and all(type(per) is tuple for per in (fi.bzero, *fi.bzero))
    with pytest.raises(dataclasses.FrozenInstanceError):
        fi.grams = fi.grams

    # a replaced FockData with an edited copy is a new value, which every check and word sees
    changed = dataclasses.replace(
        fock,
        azero=edited(fock.azero, 0, 1, (0, 0), change=lambda v: v + 1),
        aminus=edited(fock.aminus, 0, 1, (0, 0), change=lambda v: v + 1),
    )
    assert mvop.vacuum_moment(changed, (3, 0)) != word
    assert mvop.vacuum_moment(changed, (3, 0)) == mvop.vacuum_moment(copy.deepcopy(changed), (3, 0))
    assert mvop.vacuum_moment(fock, (3, 0)) == word
    for check in (mvop.azero_symmetry_residuals, mvop.adjointness_residuals):
        assert check(changed) != check(fock)
        assert check(changed) == check(copy.deepcopy(changed))
    assert mvop.check_commutation(fock).passed and not mvop.check_commutation(changed).passed
