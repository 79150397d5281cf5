"""Height sorting: partitions, swap decisions, induced crossings.

The one substantive law here is that a sort step never changes the
value a term contributes: the induced crossings resolve straight back
into the rearranged curve with compensating coefficients.
"""

import json

import pytest

from collections import Counter

from g2skein import Term, parse_diagram, serialize_diagram, sorter
from g2skein.diagram import dedup_key
from g2skein.engine import run_pipeline
from g2skein.errors import StepLimitExceeded
from g2skein.laurent import LaurentPoly
from g2skein.oracle import random_diagram, random_diagram_with_crossings
from g2skein.sorter import (
    StrandPartition,
    induce_crossings,
    induction_decision,
    inversion_count,
    is_fully_sorted,
    next_decision,
    partition,
    sort_step,
)

from conftest import TWO_CROSSING_DOC, Y_NEG_DOC
import naive
from naive import resolve_all, sort_expression


def parse(doc):
    return parse_diagram(json.dumps(doc))


def term(d):
    return Term(coeff=LaurentPoly.one(), diagram=d)


def test_partition_pools_across_components():
    d = parse({"components": [{"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}], "U": {}})
    assert partition(d, 1) == StrandPartition(over=(1,), under=(2,))
    assert partition(d, 2) == StrandPartition(over=(), under=())

    d2 = parse({"components": [{"E": ["O1", "U1", "O1", "U1"], "I": [1, 2, 3, 4], "Q": [3, 4, 3, 4]}], "U": {}})
    assert partition(d2, 1) == StrandPartition(over=(1, 3), under=(2, 4))

    d3 = parse({
        "components": [
            {"E": ["O1", "U1"], "I": [3, 4], "Q": [3, 4]},
            {"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]},
        ],
        "U": {},
    })
    assert partition(d3, 1) == StrandPartition(over=(1, 3), under=(2, 4))


def test_is_sorted_needs_all_front_below_all_behind():
    sorted_d = parse({"components": [{"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}], "U": {}})
    assert induction_decision(partition(sorted_d, 1)) is None and is_fully_sorted(sorted_d)
    inverted = parse({"components": [{"E": ["O1", "U1"], "I": [2, 1], "Q": [3, 4]}], "U": {}})
    assert induction_decision(partition(inverted, 1)) is not None
    assert not is_fully_sorted(inverted)
    assert inversion_count(inverted) == 1
    empty = parse({"components": [{"E": [], "I": [], "Q": []}], "U": {}})
    assert is_fully_sorted(empty)


def test_induction_decision_examples():
    assert induction_decision(StrandPartition(over=(1, 4), under=(2, 3))) == (3, 4)
    assert induction_decision(StrandPartition(over=(1, 3), under=(2, 4))) == (2, 3)
    assert induction_decision(StrandPartition(over=(1, 2), under=(3, 4))) is None
    assert induction_decision(StrandPartition(over=(), under=(1,))) is None


def test_single_twist_insertion():
    d = parse({"components": [{"E": ["O1", "U1"], "I": [2, 1], "Q": [3, 4]}], "U": {}})
    _, choice = next_decision(d)
    assert (choice.under_height, choice.over_height) == (1, 2)
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
    strand, choice = next_decision(d)
    assert strand == 1 and (choice.under_height, choice.over_height) == (2, 3)
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


def test_sort_expression_structure():
    d = parse({"components": [{"E": ["O1", "U1", "O1", "U1"], "I": [1, 2, 3, 4], "Q": [3, 4, 3, 4]}], "U": {}})
    out = sort_expression([term(d)])
    assert len(out) == 2
    assert all(is_fully_sorted(t.diagram) for t in out)
    coeffs = sorted(t.coeff.text() for t in out)
    assert coeffs == ["-1*t^-2", "-1*t^-4"]


def test_step_limit_fires():
    """The budget counts sort expansions per run: exactly the number a
    run spends is enough, one fewer raises."""
    swap = {"components": [{"E": ["O1", "U1"], "I": [2, 1], "Q": [3, 4]}], "U": {}}
    for doc in (swap, Y_NEG_DOC, TWO_CROSSING_DOC):
        d = parse(doc)
        stats = {}
        run_pipeline(d, stats=stats)
        spent = stats["sort_expansions"]
        assert spent > 0
        run_pipeline(d, max_steps=spent)
        with pytest.raises(StepLimitExceeded):
            run_pipeline(d, max_steps=spent - 1)


def test_sort_step_preserves_value():
    checked = 0
    for seed in range(30):
        d = random_diagram(seed, max_components=2, max_self_crossings=2)
        for t in resolve_all([term(d)]):
            if is_fully_sorted(t.diagram):
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
    """On every sort expansion the walk makes, the one-pass slide gives
    the children of the naive slide followed by ``resolve_crossing`` on
    each induced crossing, as multisets of (canonical key, coefficient),
    and ``induce_crossings`` the naive slide's staged term exactly."""
    parents = []
    real = sorter.sort_step

    def spy(t, decision=None):
        parents.append(t)
        return real(t, decision)

    monkeypatch.setattr(sorter, "sort_step", spy)
    for d in [random_diagram(s, 2, 3) for s in range(40)] + [random_diagram_with_crossings(11, 10, 10)]:
        run_pipeline(d)
    assert len(parents) > 2508

    def multiset(children):
        return Counter((dedup_key(ch.diagram), ch.coeff) for ch in children)

    twists = 0
    for t in parents:
        _, choice = next_decision(t.diagram)
        staged = induce_crossings(t, choice.under_height, choice.over_height)
        assert staged == naive.slide(t, choice.under_height, choice.over_height)
        twists += len(staged.diagram.sign_pairs) == 1
        assert multiset(real(t)) == multiset(naive.sort_children(t))
    assert 0 < twists < len(parents)
