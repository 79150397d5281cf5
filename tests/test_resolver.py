"""Smoothing of crossings into split/reversed and merged children."""

import json

import pytest

from g2skein import Term, parse_diagram, serialize_diagram, validate
from g2skein.diagram import SkeinDiagram, renumber_crossings
from g2skein.errors import InternalInvariantError
from g2skein.laurent import LaurentPoly
from g2skein.resolver import resolve_crossing

from conftest import doc_text
from naive import resolve_all


def one_term(d):
    return Term(coeff=LaurentPoly.one(), diagram=d)


def test_resolve_negative_crossing_children_exact(two_crossing):
    first, second = resolve_crossing(one_term(two_crossing))

    # negative crossing: the split child picks up 1/t
    assert first.coeff == LaurentPoly.monomial(-1)
    assert json.loads(serialize_diagram(first.diagram)) == {
        "components": [
            {
                "E": ["O2", "U2", "X-2", "O2", "U2", "X+2"],
                "I": [6, 5, 7, 3, 4, 7],
                "Q": [4, 5, 0, 4, 5, 0],
            },
            {"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]},
        ],
        "U": {"2": 1},
    }

    # the rewired child reverses the section between the branches and
    # picks up t; both branches of crossing 2 sit inside, so its sign
    # stays +1
    assert second.coeff == LaurentPoly.monomial(1)
    assert json.loads(serialize_diagram(second.diagram)) == {
        "components": [
            {
                "E": ["O1", "X+2", "U2", "O2", "X-2", "U2", "O2", "U1"],
                "I": [1, 7, 4, 3, 7, 5, 6, 2],
                "Q": [3, 0, 4, 5, 0, 4, 5, 4],
            }
        ],
        "U": {"2": 1},
    }

    for child in (first, second):
        assert validate(child.diagram) == []


def test_resolve_positive_crossing_children_exact(two_crossing):
    # crossing 2, renumbered to be the lowest: its branches are entries 4
    # and 7, and the section between them is entries 5 and 6
    d = renumber_crossings(two_crossing, {1: 2, 2: 1})
    first, second = resolve_crossing(one_term(d))

    # positive crossing: the split child picks up t
    assert first.coeff == LaurentPoly.monomial(1)
    assert json.loads(serialize_diagram(first.diagram)) == {
        "components": [
            {"E": ["O2", "U2"], "I": [3, 4], "Q": [4, 5]},
            {
                "E": ["O1", "X-2", "O2", "U2", "X+2", "U1"],
                "I": [1, 8, 6, 5, 8, 2],
                "Q": [3, 0, 4, 5, 0, 4],
            },
        ],
        "U": {"2": -1},
    }

    # the rewired child reverses entries 5 and 6 and picks up 1/t; no
    # branch of the other crossing sits inside, so its sign stays -1
    assert second.coeff == LaurentPoly.monomial(-1)
    assert json.loads(serialize_diagram(second.diagram)) == {
        "components": [
            {
                "E": ["O1", "X-2", "O2", "U2", "U2", "O2", "X+2", "U1"],
                "I": [1, 8, 6, 5, 4, 3, 8, 2],
                "Q": [3, 0, 4, 5, 4, 5, 0, 4],
            }
        ],
        "U": {"2": -1},
    }

    for child in (first, second):
        assert validate(child.diagram) == []


def test_resolve_inter_component_crossing():
    # both branches of crossing 1 lie in region M
    doc = {
        "components": [
            {"E": ["O1", "X+1", "U1"], "I": [1, 3, 2], "Q": [3, 0, 4]},
            {"E": ["O2", "X-1", "U2"], "I": [4, 3, 5], "Q": [5, 0, 4]},
        ],
        "U": {"1": 1},
    }
    d = parse_diagram(json.dumps(doc))
    first, second = resolve_crossing(one_term(d))
    # both smoothings join the two cycles into one
    assert len(first.diagram.components) == 1
    assert len(second.diagram.components) == 1
    assert len(first.diagram.components[0]) == 4
    # positive crossing: t on the forward merge, 1/t on the backward one
    assert first.coeff == LaurentPoly.monomial(1)
    assert second.coeff == LaurentPoly.monomial(-1)
    for child in (first, second):
        assert child.diagram.sign_pairs == ()
        assert validate(child.diagram) == []


def test_resolve_missing_crossing(unknot):
    with pytest.raises(InternalInvariantError, match="no crossing to smooth"):
        resolve_crossing(one_term(unknot))
    # a crossing in the sign table but not on the components
    with pytest.raises(InternalInvariantError, match="crossing 9 has 0 branches, expected 2"):
        resolve_crossing(one_term(SkeinDiagram(unknot.components, ((9, 1),))))


def test_resolve_all_counts(two_crossing, two_component, unknot):
    assert len(resolve_all([one_term(two_crossing)])) == 4
    assert len(resolve_all([one_term(two_component)])) == 8
    assert len(resolve_all([one_term(unknot)])) == 1


def test_resolve_all_leaves_no_crossings(two_component):
    for t in resolve_all([one_term(two_component)]):
        assert t.diagram.sign_pairs == ()
        assert validate(t.diagram) == []


def test_resolve_all_respects_order(two_crossing):
    default = resolve_all([one_term(two_crossing)])
    # numbering the crossings the other way round resolves them in the other order
    flipped = resolve_all([one_term(renumber_crossings(two_crossing, {1: 2, 2: 1}))])
    assert len(default) == len(flipped) == 4
    # neither sign flips under the other's reversal here, so the leaf
    # coefficients agree as a multiset even though the arrays differ
    def coeffs(terms):
        return sorted(t.coeff.terms for t in terms)

    assert coeffs(default) == coeffs(flipped)
    for t in flipped:
        assert t.diagram.sign_pairs == ()


def test_kink_resolution_shapes(kink_pos):
    first, second = resolve_crossing(one_term(kink_pos))
    # splitting a kink leaves the loop plus a detached circle
    assert len(first.diagram.components) == 2
    assert all(not c.codes for c in first.diagram.components)
    # rewiring just erases it
    assert len(second.diagram.components) == 1
    assert not second.diagram.components[0].codes
    assert first.coeff == LaurentPoly.monomial(1)
    assert second.coeff == LaurentPoly.monomial(-1)
