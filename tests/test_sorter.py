"""Height sorting: the sort state, induced crossings, the progress monitor.

The one substantive law here is that a sort step never changes the
value a term contributes: the induced crossings resolve straight back
into the rearranged curve with compensating coefficients.  The sort
state (strand passes, inversions, next slide) is checked on small cases
here and against ``naive.sort_state`` on every slide of a walk.
"""

import json

import pytest

from collections import Counter

from g2skein import Term, parse_diagram, serialize_diagram, sorter
from g2skein.diagram import Component, SkeinDiagram, dedup_key, pass_code
from g2skein.engine import run_pipeline
from g2skein.errors import InternalInvariantError, StepLimitExceeded
from g2skein.laurent import LaurentPoly
from g2skein.oracle import random_diagram, random_diagram_with_crossings
from g2skein.sorter import induce_crossings, sort_state, sort_step

from conftest import TWO_COMPONENT_DOC, TWO_CROSSING_DOC, Y_NEG_DOC
import naive
from naive import resolve_all, sort_expression


def parse(doc):
    return parse_diagram(json.dumps(doc))


def term(d):
    return Term(coeff=LaurentPoly.one(), diagram=d)


def strand_passes(front, behind, strand=1):
    """Bare strand passes at the given heights; only ``sort_state`` reads them."""
    codes = [pass_code(f"O{strand}", 4)] * len(front) + [pass_code(f"U{strand}", 4)] * len(behind)
    return Component(tuple(codes), tuple(front) + tuple(behind))


def test_partition_pools_across_components():
    d = parse({"components": [{"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}], "U": {}})
    assert sort_state(d) == (2, 0, None)

    d2 = parse({"components": [{"E": ["O1", "U1", "O1", "U1"], "I": [1, 2, 3, 4], "Q": [3, 4, 3, 4]}], "U": {}})
    assert sort_state(d2) == (4, 1, (1, 2, 3))

    d3 = parse({
        "components": [
            {"E": ["O1", "U1"], "I": [3, 4], "Q": [3, 4]},
            {"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]},
        ],
        "U": {},
    })
    assert sort_state(d3) == (4, 1, (1, 2, 3))


def test_is_sorted_needs_all_front_below_all_behind():
    sorted_d = parse({"components": [{"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}], "U": {}})
    assert sort_state(sorted_d) == (2, 0, None)
    inverted = parse({"components": [{"E": ["O1", "U1"], "I": [2, 1], "Q": [3, 4]}], "U": {}})
    assert sort_state(inverted) == (2, 1, (1, 1, 2))
    empty = parse({"components": [{"E": [], "I": [], "Q": []}], "U": {}})
    assert sort_state(empty) == (0, 0, None)


def test_sort_state_slide_examples():
    def state(*comps):
        return sort_state(SkeinDiagram(comps, ()))

    assert state(strand_passes((1, 4), (2, 3))) == (4, 2, (1, 3, 4))
    assert state(strand_passes((1, 3), (2, 4))) == (4, 1, (1, 2, 3))
    assert state(strand_passes((1, 2), (3, 4))) == (4, 0, None)
    assert state(strand_passes((), (1,))) == (1, 0, None)
    # strand 1 is sorted, so the slide is on strand 2; strand 1 goes first
    assert state(strand_passes((1,), (5,)), strand_passes((4,), (2, 3), 2)) == (5, 2, (2, 3, 4))
    assert state(strand_passes((6,), (5,)), strand_passes((4,), (3,), 2)) == (4, 2, (1, 5, 6))


def test_single_twist_insertion():
    d = parse({"components": [{"E": ["O1", "U1"], "I": [2, 1], "Q": [3, 4]}], "U": {}})
    assert sort_state(d)[2] == (1, 1, 2)
    t2 = induce_crossings(term(d), 1, 2)
    obj = json.loads(serialize_diagram(t2.diagram))
    assert obj["components"][0]["E"] == ["X+1", "O1", "U1", "X-1"]
    assert obj["components"][0]["I"] == [0, 1, 2, 0]
    assert obj["U"] == {"1": -1}
    # twist compensation for a negative twist
    assert t2.coeff == LaurentPoly.monomial(3, -1)


def test_crossing_pair_insertion_across_components():
    d = parse({
        "components": [
            {"E": ["O1", "U1"], "I": [3, 4], "Q": [3, 4]},
            {"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]},
        ],
        "U": {},
    })
    assert sort_state(d)[2] == (1, 2, 3)
    t2 = induce_crossings(term(d), 2, 3)
    obj = json.loads(serialize_diagram(t2.diagram))
    # two fresh crossings with opposite signs, no coefficient paid
    assert t2.coeff == LaurentPoly.one()
    assert sorted(obj["U"].values()) == [-1, 1]
    flat = [tok for comp in obj["components"] for tok in comp["E"]]
    assert sum(tok.startswith("X") for tok in flat) == 4
    # the chosen heights changed hands
    assert obj["components"][0]["I"].count(2) == 1
    assert obj["components"][1]["I"].count(3) == 1


def test_sort_step_returns_none_once_sorted(y_neg):
    d = parse({"components": [{"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}], "U": {}})
    assert sort_step(term(d)) is None


def test_progress_monitor_fires(monkeypatch):
    """A slide whose children keep the parent's passes and inversions is
    refused: here the induced crossings are left out altogether."""
    d = parse({"components": [{"E": ["O1", "U1"], "I": [2, 1], "Q": [3, 4]}], "U": {}})
    monkeypatch.setattr(sorter, "induce_crossings", lambda t, a, c: t)
    with pytest.raises(InternalInvariantError, match="made no progress"):
        sort_step(term(d))


def test_progress_monitor_wants_exactly_one_inversion_fewer(monkeypatch):
    """Sliding the lowest behind pass (height 1) past the front pass at 5,
    instead of its neighbour in height 3, still lowers the inversions, but
    by two: the monitor refuses it."""
    d = parse({"components": [{"E": ["O1", "U1", "O1", "U1"], "I": [5, 1, 6, 3], "Q": [3, 4, 3, 4]}], "U": {}})
    assert sort_state(d) == (4, 4, (1, 3, 5))
    real = sorter.induce_crossings
    monkeypatch.setattr(sorter, "induce_crossings", lambda t, a, c: real(t, 1, c))
    with pytest.raises(InternalInvariantError, match="made no progress"):
        sort_step(term(d))


def test_sort_expression_structure():
    d = parse({"components": [{"E": ["O1", "U1", "O1", "U1"], "I": [1, 2, 3, 4], "Q": [3, 4, 3, 4]}], "U": {}})
    out = sort_expression([term(d)])
    assert len(out) == 2
    assert all(sort_state(t.diagram)[1] == 0 for t in out)
    coeffs = sorted(t.coeff.text() for t in out)
    assert coeffs == ["-1*t^-2", "-1*t^-4"]


def test_step_limit_fires():
    """The budget counts the expansions of every rule per run: exactly
    the number a run spends is enough, one fewer raises."""
    swap = {"components": [{"E": ["O1", "U1"], "I": [2, 1], "Q": [3, 4]}], "U": {}}
    for doc in (swap, Y_NEG_DOC, TWO_CROSSING_DOC):
        d = parse(doc)
        stats = {}
        run_pipeline(d, stats=stats)
        assert stats["sort_expansions"] > 0
        spent = stats["crossing_expansions"] + stats["sort_expansions"] + stats["layer_splits"]
        run_pipeline(d, max_steps=spent)
        with pytest.raises(StepLimitExceeded):
            run_pipeline(d, max_steps=spent - 1)


def test_sort_step_preserves_value():
    checked = 0
    for seed in range(30):
        d = random_diagram(seed, max_components=2, max_self_crossings=2)
        for t in resolve_all([term(d)]):
            if sort_state(t.diagram)[1] == 0:
                continue
            children = sort_step(t)
            assert children
            expected = run_pipeline(t.diagram).scaled(t.coeff)
            got = None
            for child in children:
                part = run_pipeline(child.diagram).scaled(child.coeff)
                got = part if got is None else got + part
            assert got == expected
            checked += 1
            break
        if checked >= 8:
            break
    assert checked >= 8


def test_sort_step_matches_naive_composition(monkeypatch):
    """On every sort expansion the walk makes, the sort state of the
    parent and of each child equals the naive one, the one-pass slide
    gives the children of the naive slide followed by
    ``resolve_crossing`` on each induced crossing, as multisets of
    (canonical key, coefficient), and ``induce_crossings`` the naive
    slide's staged term exactly."""
    parents = []
    real = sorter.sort_step

    def spy(t):
        parents.append(t)
        return real(t)

    monkeypatch.setattr(sorter, "sort_step", spy)
    expanded = 0
    inputs = [random_diagram(s, 2, 3) for s in range(80)]
    inputs += [parse(TWO_COMPONENT_DOC), random_diagram_with_crossings(11, 10, 10)]
    for d in inputs:
        stats = {}
        run_pipeline(d, stats=stats)
        expanded += stats["sort_expansions"]
    assert len(parents) == expanded
    # no fewer slides than the 2,508 that the first 40 inputs and the
    # 10-crossing one gave when the layer rule compared global intervals
    assert expanded >= 2508

    def multiset(children):
        return Counter((dedup_key(ch.diagram), ch.coeff) for ch in children)

    twists = 0
    for t in parents:
        state = sort_state(t.diagram)
        assert state == naive.sort_state(t.diagram)
        _strand, under, over = state[2]
        staged = induce_crossings(t, under, over)
        assert staged == naive.slide(t, under, over)
        twists += len(staged.diagram.sign_pairs) == 1
        children = real(t)
        for child in children:
            assert sort_state(child.diagram) == naive.sort_state(child.diagram)
        assert multiset(children) == multiset(naive.sort_children(t))
    assert 0 < twists < len(parents)
