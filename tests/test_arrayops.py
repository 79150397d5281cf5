"""The four array operators of crossing resolution and the reversal bookkeeping.

The operators (split, reverse, merge forward, merge back) are slices of
a component's code and height tuples in ``resolver.smoothings``, which
``resolver.resolve_crossing`` wraps; both smooth the lowest crossing.
The worked cases pin the exact child arrays, and the properties check
that every entry other than the two smoothed branches survives exactly
once, whichever crossing is renumbered to be the lowest.
"""

import json

from hypothesis import given, strategies as st

from g2skein import parse_diagram, serialize_diagram, validate
from g2skein.diagram import Component, SkeinDiagram, pass_code, pass_token, renumber_crossings, reverse_component
from g2skein.oracle import random_diagram
from g2skein.resolver import resolve_crossing, update_signs_on_reversal


def codes(*tokens):
    """Codes of the tokens, strand passes in their left-to-right direction."""
    q = {"O1": 3, "U1": 3, "O2": 4, "U2": 4}
    return tuple(pass_code(t, q.get(t, 0)) for t in tokens)


def children(doc):
    """The two smoothings of the lowest crossing as component documents."""
    pair = resolve_crossing(parse_diagram(json.dumps(doc)))
    return [json.loads(serialize_diagram(ch.diagram))["components"] for ch in pair]


def one(e, i, q, signs=None):
    """A one-component document, by default with crossing 1 positive."""
    return {"components": [{"E": e, "I": i, "Q": q}], "U": signs or {"1": 1}}


# the branches of crossing 1 at both ends of the traversal
ENDS = one(["X+1", "O1", "U1", "X-1"], [3, 1, 2, 3], [0, 3, 4, 0])


TWO_COMPONENTS = {
    "components": [
        {"E": ["O1", "X+1", "U1"], "I": [1, 3, 2], "Q": [3, 0, 4]},
        {"E": ["O2", "X-1", "U2"], "I": [4, 3, 5], "Q": [5, 0, 4]},
    ],
    "U": {"1": 1},
}


def test_split_examples(two_crossing):
    # crossing 1 of the fixture sits at entries 1 and 8 of one component
    split, _ = children(json.loads(serialize_diagram(two_crossing)))
    assert split == [
        {
            "E": ["O2", "U2", "X-2", "O2", "U2", "X+2"],
            "I": [6, 5, 7, 3, 4, 7],
            "Q": [4, 5, 0, 4, 5, 0],
        },
        {"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]},
    ]
    # branches at both ends: the middle is everything else, the outside empty
    split, _ = children(ENDS)
    assert split == [{"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}, {"E": [], "I": [], "Q": []}]


def test_reverse_examples(two_crossing):
    # the section between the branches runs backwards, directions flipped
    _, rev = children(json.loads(serialize_diagram(two_crossing)))
    assert rev == [{
        "E": ["O1", "X+2", "U2", "O2", "X-2", "U2", "O2", "U1"],
        "I": [1, 7, 4, 3, 7, 5, 6, 2],
        "Q": [3, 0, 4, 5, 0, 4, 5, 4],
    }]
    _, rev = children(ENDS)
    assert rev == [{"E": ["U1", "O1"], "I": [2, 1], "Q": [3, 4]}]


def test_merge_fwd_examples():
    fwd, _ = children(TWO_COMPONENTS)
    assert fwd == [{"E": ["O1", "U2", "O2", "U1"], "I": [1, 5, 4, 2], "Q": [3, 4, 5, 4]}]
    # two lone branches leave one empty cycle
    lone = {
        "components": [{"E": ["X+1"], "I": [1], "Q": [0]}, {"E": ["X-1"], "I": [1], "Q": [0]}],
        "U": {"1": 1},
    }
    assert children(lone) == [[{"E": [], "I": [], "Q": []}]] * 2


def test_merge_back_examples():
    _, back = children(TWO_COMPONENTS)
    assert back == [{"E": ["O1", "O2", "U2", "U1"], "I": [1, 4, 5, 2], "Q": [3, 4, 5, 4]}]
    doc = {
        "components": [
            {"E": ["X+1"], "I": [3], "Q": [0]},
            {"E": ["X-1", "O1", "U1"], "I": [3, 1, 2], "Q": [0, 3, 4]},
        ],
        "U": {"1": 1},
    }
    fwd, back = children(doc)
    assert fwd == [{"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}]
    assert back == [{"E": ["U1", "O1"], "I": [2, 1], "Q": [3, 4]}]


def test_reverse_empty_middle_just_deletes():
    # adjacent branches (a kink): the reversed section is empty
    split, rev = children(one(["O1", "X+1", "X-1", "U1"], [1, 3, 3, 2], [3, 0, 0, 4], {"1": -1}))
    assert rev == [{"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}]
    assert split == [{"E": [], "I": [], "Q": []}, {"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}]


def entries(d, drop=()):
    """Sorted (token, height) pairs of a diagram, without the given codes."""
    return sorted((pass_token(k)[0], h) for k, h in pairs(d, drop))


def pairs(d, drop=()):
    """Sorted (code, height) pairs of a diagram, without the given codes."""
    return sorted((k, h) for c in d.components for k, h in zip(c.codes, c.heights) if k not in drop)


def check_conservation(seed, same_component):
    drawn = random_diagram(seed, 2, 3)
    ids = [cid for cid, _ in drawn.sign_pairs]
    for cid in ids:
        # the resolver smooths the lowest crossing: renumber cid to 1
        order = [cid] + [i for i in ids if i != cid]
        d = renumber_crossings(drawn, {old: new for new, old in enumerate(order, 1)})
        branches = codes("X+1", "X-1")
        # the components that carry a branch of crossing 1
        carriers = [i for i, c in enumerate(d.components) for k in branches if k in c.codes]
        assert len(carriers) == 2
        if (carriers[0] == carriers[1]) != same_component:
            continue
        first, second = resolve_crossing(d)
        # the split or forward child keeps every other code and height
        assert pairs(first.diagram) == pairs(d, branches)
        # the reversed child keeps every pass and height, directions aside
        assert entries(second.diagram) == entries(d, branches)
        for child in (first, second):
            assert validate(child.diagram) == []
        assert len(first.diagram.components) == len(d.components) + (1 if same_component else -1)
        assert len(second.diagram.components) == len(d.components) - (0 if same_component else 1)


@given(st.integers(0, 5000))
def test_split_and_reverse_conserve_entries(seed):
    check_conservation(seed, same_component=True)


@given(st.integers(0, 5000))
def test_merges_conserve_entries(seed):
    check_conservation(seed, same_component=False)


def test_reverse_flips_direction_codes():
    doc = one(["O1", "X+1", "O2", "U2", "X-1", "U1"], [1, 5, 3, 4, 5, 2], [3, 0, 4, 5, 0, 4])
    c = parse_diagram(json.dumps(doc)).components[0]
    back = SkeinDiagram((reverse_component(c),), ((1, 1),))
    assert json.loads(serialize_diagram(back)) == one(
        ["U1", "X-1", "U2", "O2", "X+1", "O1"], [2, 5, 4, 3, 5, 1], [3, 0, 4, 5, 0, 4]
    )
    assert reverse_component(reverse_component(c)) == c


section_codes = st.lists(st.integers(0, 7) | st.integers(-12, -2), max_size=12)


@given(section_codes)
def test_reversing_twice_is_identity(ks):
    c = Component(tuple(ks), tuple(range(1, len(ks) + 1)))
    assert reverse_component(reverse_component(c)) == c


def test_update_signs_examples():
    # both branches of crossing 2 inside the reversed section: unchanged
    section = codes("O2", "U2", "X-2", "O2", "U2", "X+2")
    assert update_signs_on_reversal(((2, 1),), section) == ((2, 1),)
    # a single branch inside: negated
    assert update_signs_on_reversal(((3, 1),), codes("X+3")) == ((3, -1),)
    assert update_signs_on_reversal(((1, -1), (3, -1)), codes("X+3")) == ((1, -1), (3, 1))
    # nothing reversed: identity
    assert update_signs_on_reversal(((1, 1), (2, -1)), ()) == ((1, 1), (2, -1))


@given(st.dictionaries(st.integers(1, 6), st.sampled_from([1, -1]), max_size=6))
def test_update_signs_is_involutive(signs):
    pairs = tuple(sorted(signs.items()))
    section = codes("X+1", "U1", "X-3")
    once = update_signs_on_reversal(pairs, section)
    assert [cid for cid, _ in once] == [cid for cid, _ in pairs]
    assert update_signs_on_reversal(once, section) == pairs

