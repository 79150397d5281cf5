"""Parsing, validation, and the symmetry helpers on encoded diagrams."""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

from g2skein import cli, diagram, engine

from g2skein import (
    SkeinFormatError,
    SkeinValidationError,
    parse_diagram,
    serialize_diagram,
    validate,
)
from g2skein.diagram import (
    Component,
    SkeinDiagram,
    dedup_key,
    pass_code,
    relabel_heights,
    renumber_crossings,
    reverse_component,
    rotate_component,
)
from g2skein.oracle import random_diagram, random_diagram_with_crossings
from g2skein.sorter import sort_state

from conftest import TWO_COMPONENT_DOC, TWO_CROSSING_DOC, doc_text
from naive import naive_key, tuple_key

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracles  # noqa: E402
import workloads  # noqa: E402

# crossing 1 of this document has its over branch in M and its under
# branch in R
SPLIT_REGIONS_DOC = {
    "components": [
        {"E": ["O1", "X+1", "U1"], "I": [1, 3, 2], "Q": [3, 0, 4]},
        {"E": ["O2", "X-1", "U2"], "I": [4, 3, 5], "Q": [4, 0, 5]},
    ],
    "U": {"1": 1},
}


def mk(*comps, pairs=()):
    """Build a diagram without the parse-time validation gate."""
    cs = tuple(
        Component(tuple(pass_code(t, d) for t, d in zip(e, q)), tuple(i))
        for e, i, q in comps
    )
    return SkeinDiagram(cs, pairs)


def test_round_trip_is_byte_exact(two_crossing, two_component):
    assert serialize_diagram(two_crossing) == doc_text(TWO_CROSSING_DOC)
    assert serialize_diagram(two_component) == doc_text(TWO_COMPONENT_DOC)
    again = parse_diagram(serialize_diagram(two_component))
    assert serialize_diagram(again) == serialize_diagram(two_component)


def test_fixtures_validate_clean(y_neg, y_pos, unknot, kink_pos, two_crossing, two_component):
    for d in (y_neg, y_pos, unknot, kink_pos, two_crossing, two_component):
        assert validate(d) == []


def test_parse_rejects_garbage():
    with pytest.raises(SkeinFormatError):
        parse_diagram("not json at all")
    with pytest.raises(SkeinFormatError):
        parse_diagram(json.dumps({"components": [{"E": ["Z9"], "I": [1], "Q": [3]}], "U": {}}))


def kink_doc(cid, token=None, key=None):
    """A kink of crossing ``cid`` on a strand-1 loop, its over branch
    spelled ``token`` and its U key ``key`` when given."""
    e = ["O1", token or f"X+{cid}", f"X-{cid}", "U1"]
    return {"components": [{"E": e, "I": [1, 3, 3, 2], "Q": [3, 0, 0, 4]}], "U": {key or str(cid): 1}}


def test_parse_accepts_one_spelling_per_crossing_id(tmp_path, capsys):
    assert parse_diagram(json.dumps(kink_doc(10))).sign_pairs == ((10, 1),)
    assert parse_diagram(json.dumps(kink_doc(10**17))).sign_pairs == ((10**17, 1),)
    long_id = "1" + "0" * 4999  # longer than int converts from a string
    for key in ("01", "+1", " 1", "1\n", "0", str(10**18), long_id):
        with pytest.raises(SkeinFormatError, match="bad crossing id"):
            parse_diagram(json.dumps(kink_doc(1, key=key)))
    with pytest.raises(SkeinFormatError, match="bad crossing id"):
        parse_diagram(json.dumps(kink_doc(10, key="1_0")))
    # two spellings of one crossing, or one spelling twice: no sign is
    # silently kept
    doc = kink_doc(1)
    doc["U"]["01"] = -1
    with pytest.raises(SkeinFormatError, match="bad crossing id"):
        parse_diagram(json.dumps(doc))
    twice = json.dumps(kink_doc(1)).replace('"U": {"1": 1}', '"U": {"1": 1, "1": -1}')
    with pytest.raises(SkeinFormatError, match="key '1' repeated"):
        parse_diagram(twice)
    for token in ("X+1\n", "X+01", "X+ 1", "X++1", "X+", "X+" + long_id):
        with pytest.raises(SkeinFormatError, match="bad pass token"):
            parse_diagram(json.dumps(kink_doc(1, token=token)))
    f = tmp_path / "d.json"
    f.write_text(json.dumps(kink_doc(1, key="+1")))
    assert cli.main(["validate", str(f)]) == 1
    assert capsys.readouterr().err == "error: bad crossing id '+1' in U\n"
    # a number too long for int is unreadable JSON, not an internal error
    f.write_text(json.dumps(kink_doc(1)).replace('"U": {"1": 1}', f'"U": {{"1": {long_id}}}'))
    assert cli.main(["validate", str(f)]) == 1
    assert capsys.readouterr().err.startswith("error: not valid JSON: Exceeds the limit")


def test_deeply_nested_json_is_a_format_error(tmp_path, capsys):
    """JSON nested deeper than the decoder recurses is unreadable input:
    exit 1 and one error line, not an internal error."""
    docs = ("[" * 100_000, '{"components": ' + "[" * 3000 + "]" * 3000 + ', "U": {}}')
    f = tmp_path / "deep.json"
    for text in docs:
        with pytest.raises(SkeinFormatError, match="not valid JSON: maximum recursion depth"):
            parse_diagram(text)
        f.write_text(text)
        assert cli.main(["validate", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not valid JSON: maximum recursion depth")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_parse_runs_validation():
    doc = {"components": [{"E": ["X+1"], "I": [1], "Q": [0]}], "U": {"1": 1}}
    with pytest.raises(SkeinValidationError) as exc:
        parse_diagram(json.dumps(doc))
    assert exc.value.violations == ["unpaired self-crossing 1"]
    with pytest.raises(SkeinValidationError):
        parse_diagram(json.dumps({"components": [{"E": ["O1"], "I": [1, 2], "Q": [3]}], "U": {}}))


def test_zero_heights_only_for_crossings_mid_pipeline():
    # input documents never carry the placeholder height 0, on crossing
    # branches or on strand passes
    d = mk((["X+1", "X-1"], [0, 0], [0, 0]), pairs=((1, 1),))
    problems = validate(d)
    assert len(problems) == 2 and all("zero height" in p for p in problems)
    d2 = mk((["O1"], [0], [3]))
    assert any("zero height" in p for p in validate(d2))


def test_validate_unpaired_crossing():
    d = mk((["X+1"], [1], [0]), pairs=((1, 1),))
    assert any("unpaired" in p for p in validate(d))


def test_validate_branch_height_mismatch():
    d = mk((["X+1", "X-1"], [1, 2], [0, 0]), pairs=((1, 1),))
    assert any("height mismatch" in p for p in validate(d))


def test_validate_height_collisions():
    d = mk((["O1", "U1"], [1, 1], [3, 4]))
    assert any("collision" in p for p in validate(d))
    # two different crossings may not share a height either
    d2 = mk((["X+1", "X-1", "X+2", "X-2"], [1, 1, 1, 1], [0, 0, 0, 0]), pairs=((1, 1), (2, 1)))
    assert any("collision" in p for p in validate(d2))


def test_validate_sign_table(two_crossing):
    d = mk((["X+1", "X-1"], [1, 1], [0, 0]))
    assert any("sign table" in p for p in validate(d))
    d2 = mk((["O1", "U1"], [1, 2], [3, 4]), pairs=((7, 1),))
    assert any("sign table" in p for p in validate(d2))
    # each id once, lowest first: a repeated or a descending id is a
    # validation error, never an internal one
    assert two_crossing.sign_pairs == ((1, -1), (2, 1))
    for pairs in (((1, -1), (1, 1), (2, 1)), ((2, 1), (1, -1))):
        d3 = SkeinDiagram(two_crossing.components, pairs)
        assert validate(d3) == ["sign table ids not strictly ascending"]
        with pytest.raises(SkeinValidationError) as exc:
            engine.run_pipeline(d3)
        assert exc.value.violations == ["sign table ids not strictly ascending"]


def test_validate_orientation_codes():
    # a direction code must fit its token; the pair is packed at parse time
    for doc in (
        {"components": [{"E": ["O1", "U1"], "I": [1, 2], "Q": [5, 4]}], "U": {}},
        {"components": [{"E": ["X+1", "X-1"], "I": [1, 1], "Q": [3, 0]}], "U": {"1": 1}},
    ):
        with pytest.raises(SkeinValidationError) as exc:
            parse_diagram(json.dumps(doc))
        assert exc.value.violations == ["bad orientation code at component 0 entry 0"]


def test_validate_region_continuity():
    # O1 enters M from L, so the next strand pass must leave M
    d = mk((["O1", "O2", "U2", "U1"], [1, 3, 4, 2], [3, 5, 4, 4]))
    assert validate(d) == [
        "region break at component 0 entry 1",
        "region break at component 0 entry 3",
    ]
    # a lone pass never returns to the region it left
    assert validate(mk((["O1"], [1], [3]))) == ["region break at component 0 entry 0"]


def test_validate_crossing_regions():
    with pytest.raises(SkeinValidationError) as exc:
        parse_diagram(doc_text(SPLIT_REGIONS_DOC))
    assert exc.value.violations == ["self-crossing 1 branches lie in regions M and R"]
    # a component without strand passes fits any region
    loop = mk((["O1", "X+1", "U1"], [1, 3, 2], [3, 0, 4]), (["X-1"], [3], [0]), pairs=((1, 1),))
    assert validate(loop) == []


def test_flipped_direction_codes_are_rejected():
    """Flipping the direction of any one strand pass of a generated
    diagram breaks the region chain, so the document no longer parses."""
    flip = {(1, 3): 4, (1, 4): 3, (2, 4): 5, (2, 5): 4}
    mutants = 0
    for seed in range(200):
        doc = json.loads(serialize_diagram(random_diagram(seed, 2, 3)))
        for comp in doc["components"]:
            for j, (tok, q) in enumerate(zip(comp["E"], comp["Q"])):
                if tok[0] == "X":
                    continue
                comp["Q"][j] = flip[(int(tok[1]), q)]
                with pytest.raises(SkeinValidationError, match="region break"):
                    parse_diagram(json.dumps(doc))
                comp["Q"][j] = q
                mutants += 1
    assert mutants == 840


def test_bad_sign_value_reported():
    d = mk((["X+1", "X-1"], [1, 1], [0, 0]), pairs=((1, 2),))
    assert validate(d) == ["bad sign value for crossing 1"]


def test_rotate_component_shifts_start():
    d = parse_diagram(json.dumps({"components": [{"E": ["O1", "U1"], "I": [1, 2], "Q": [3, 4]}], "U": {}}))
    r = rotate_component(d.components[0], 1)
    rd = SkeinDiagram((r,), ())
    assert json.loads(serialize_diagram(rd))["components"][0] == {
        "E": ["U1", "O1"],
        "I": [2, 1],
        "Q": [4, 3],
    }


def test_rotate_full_cycle_is_identity(two_crossing):
    c = two_crossing.components[0]
    assert rotate_component(c, len(c)) == c
    assert rotate_component(c, 0) == c


def test_rotation_preserves_dedup_key(two_crossing, two_component):
    for d in (two_crossing, two_component):
        for k in range(1, len(d.components[0])):
            rot = SkeinDiagram((rotate_component(d.components[0], k), *d.components[1:]), d.sign_pairs)
            assert validate(rot) == []
            assert dedup_key(rot) == dedup_key(d)


def test_reverse_component_is_involutive(two_crossing, y_neg):
    for d in (two_crossing, y_neg):
        c = d.components[0]
        assert reverse_component(reverse_component(c)) == c


def test_relabel_heights_keeps_key(two_crossing):
    used = sorted({h for c in two_crossing.components for h in c.heights})
    shifted = relabel_heights(two_crossing, {h: h + 5 for h in used})
    assert validate(shifted) == []
    assert dedup_key(shifted) == dedup_key(two_crossing)
    gappy = relabel_heights(two_crossing, {h: 10 * h for h in used})
    assert dedup_key(gappy) == dedup_key(two_crossing)


def test_relabel_heights_rejects_bad_mappings(two_crossing):
    used = sorted({h for c in two_crossing.components for h in c.heights})
    with pytest.raises(SkeinValidationError):
        relabel_heights(two_crossing, {h: h for h in used[:-1]})
    collapse = {h: 1 for h in used}
    with pytest.raises(SkeinValidationError):
        relabel_heights(two_crossing, collapse)


def test_renumber_crossings_keeps_key_and_value(two_component):
    ids = [cid for cid, _ in two_component.sign_pairs]
    mapping = dict(zip(ids, [3 * cid + 4 for cid in reversed(ids)]))
    renumbered = renumber_crossings(two_component, mapping)
    assert validate(renumbered) == []
    assert [cid for cid, _ in renumbered.sign_pairs] == sorted(mapping.values())
    assert dedup_key(renumbered) == dedup_key(two_component)
    assert engine.run_pipeline(renumbered) == engine.run_pipeline(two_component)
    # every branch keeps its side and height, and every crossing its sign
    assert renumber_crossings(renumbered, {new: old for old, new in mapping.items()}) == two_component


def test_renumber_crossings_rejects_bad_mappings(two_crossing):
    for mapping in ({1: 5}, {1: 3, 2: 3}, {1: 0, 2: 1}):
        with pytest.raises(SkeinValidationError, match="one-to-one"):
            renumber_crossings(two_crossing, mapping)


def test_dedup_key_constant_on_symmetry_orbit(two_component):
    base = dedup_key(two_component)

    swapped = SkeinDiagram(two_component.components[::-1], two_component.sign_pairs)
    assert dedup_key(swapped) == base

    rot = SkeinDiagram(
        (rotate_component(two_component.components[0], 3), two_component.components[1]),
        two_component.sign_pairs,
    )
    assert dedup_key(rot) == base

    used = sorted({h for c in two_component.components for h in c.heights})
    relabeled = relabel_heights(two_component, {h: h * 3 + 1 for h in used})
    assert dedup_key(relabeled) == base


def test_dedup_key_ignores_reversal_without_crossings(y_neg, y_pos):
    # a crossing-free curve is the same unoriented curve read backwards,
    # from any start point
    for d in (y_neg, y_pos):
        back = reverse_component(d.components[0])
        assert back != d.components[0]
        for k in range(len(back)):
            variant = SkeinDiagram((rotate_component(back, k),), ())
            assert validate(variant) == []
            assert dedup_key(variant) == dedup_key(d)


def test_dedup_key_separates_fixtures(y_neg, y_pos, two_crossing, unknot):
    ds = [y_neg, y_pos, two_crossing, unknot]
    keys = [dedup_key(d) for d in ds]
    assert len(set(keys)) == len(ds)


def reencode(d, rng):
    """A random re-encoding of ``d``: components shuffled and rotated,
    reversed at random when ``d`` has no crossings, heights relabelled
    and crossings renumbered."""
    ids = [cid for cid, _ in d.sign_pairs]
    renamed = renumber_crossings(d, dict(zip(ids, rng.sample(range(1, 3 * len(ids) + 2), len(ids)))))
    comps = []
    for c in renamed.components:
        if not ids and rng.random() < 0.5:
            c = reverse_component(c)
        comps.append(rotate_component(c, rng.randrange(len(c) + 1)))
    rng.shuffle(comps)
    out = SkeinDiagram(tuple(comps), renamed.sign_pairs)
    used = sorted({h for c in comps for h in c.heights})
    images = sorted(rng.sample(range(1, 4 * len(used) + 2), len(used)))
    return relabel_heights(out, dict(zip(used, images)))


def test_dedup_key_partition_matches_brute_force(monkeypatch):
    """Two diagrams get equal keys exactly when their brute-force orbit
    keys agree: on every diagram the walk keys for 40 generated diagrams
    and for a braid closure, and on random re-encodings of those."""
    keyed = []

    def spy(d):
        keyed.append(d)
        return dedup_key(d)

    monkeypatch.setattr(engine, "dedup_key", spy)
    for s in range(40):
        engine.run_pipeline(random_diagram(s, 2, 3))
    braid = oracles.braid_document(workloads.BRAID_WORD[:8], workloads.BRAID_STRANDS)
    engine.run_pipeline(parse_diagram(json.dumps(braid)))
    monkeypatch.undo()
    ds = list(dict.fromkeys(keyed))
    rng = random.Random(5)
    ds += [reencode(d, rng) for d in ds for _ in range(2)]
    pairs = {(dedup_key(d), naive_key(d)) for d in ds}
    assert len({k for k, _ in pairs}) == len({n for _, n in pairs}) == len(pairs)
    assert len(pairs) < len(ds) / 3


def walk_keys(inputs, monkeypatch):
    """The diagrams the walk keys on ``inputs``, and the inner children
    (those with a crossing or an inversion left) of each crossing or
    sort expansion, by spying on ``engine``."""
    keyed, siblings = [], []

    def key_spy(d):
        keyed.append(d)
        return dedup_key(d)

    def sibling_spy(stage):
        def spy(d):
            children, record = stage(d)
            siblings.append([ch.diagram for ch in children if ch.diagram.sign_pairs or sort_state(ch.diagram)[0]])
            return children, record
        return spy

    with monkeypatch.context() as m:
        m.setattr(engine, "dedup_key", key_spy)
        for name in ("resolve_stage", "sort_stage"):
            m.setattr(engine, name, sibling_spy(getattr(engine, name)))
        for d in inputs:
            engine.run_pipeline(d)
    return keyed, siblings


@pytest.mark.parametrize("base", [diagram._BASE, 24], ids=["one-digit", "base-24"])
def test_text_key_partitions_and_orders_as_tuple_key(monkeypatch, base):
    """The text key splits every diagram the walk keys into the same
    classes as the tuple key it replaced (``naive.tuple_key``), and
    sorts the inner children of every expansion in the same order, the
    order ``engine.dedup`` returns; the walk itself does not sort them.
    With a base of 24 the keys of diagrams with more than 24 heights or
    with 8 crossings or more take two digits a value, and the rest one."""
    monkeypatch.setattr(diagram, "_BASE", base)
    inputs = [random_diagram(s, 2, 3) for s in range(150)] + [random_diagram_with_crossings(11, 10, 10)]
    keyed, siblings = walk_keys(inputs, monkeypatch)
    pairs = {(dedup_key(d), tuple_key(d)) for d in keyed}
    assert len({k for k, _ in pairs}) == len({t for _, t in pairs}) == len(pairs) > 3000
    # a two-digit text is marked by a leading "\1"
    wide = set()
    for d in keyed:
        text = dedup_key(d)[0]
        wide.add(text[:1] == "\1")
        if text[:1] == "\1":
            assert len(text) == 1 + sum(4 * len(c) + 2 for c in d.components)
    assert wide == ({False, True} if base == 24 else {False})
    assert sum(len(g) > 1 for g in siblings) > 2000
    for g in siblings:
        by_text = sorted(range(len(g)), key=lambda i: dedup_key(g[i]))
        assert by_text == sorted(range(len(g)), key=lambda i: tuple_key(g[i]))


def test_key_length_is_one_character_a_code_and_a_rank(monkeypatch):
    """On ``crossings-10`` every key's text has one character per code,
    one per rank and two run ends per component, on any Python."""
    keyed, _ = walk_keys([random_diagram_with_crossings(11, 10, 10)], monkeypatch)
    assert len(keyed) > 3000
    for d in keyed:
        assert len(dedup_key(d)[0]) == sum(2 * len(c) + 2 for c in d.components)


def kink_chain(n):
    """One component of n kinks, each the two branches of one crossing
    at its own height."""
    codes = tuple(k for cid in range(1, n + 1) for k in (-2 * cid, -2 * cid - 1))
    heights = tuple(h for h in range(1, n + 1) for _ in (0, 1))
    return SkeinDiagram((Component(codes, heights),), tuple((cid, 1) for cid in range(1, n + 1)))


def many_heights(n):
    """A curve passing in front of strand 1 n times, back and forth,
    each pass at its own height, and a two-kink chain above it."""
    passes = Component((0, 1) * (n // 2), tuple(range(1, n + 1)))
    kinks = Component((-2, -3, -4, -5), (n + 1, n + 1, n + 2, n + 2))
    return SkeinDiagram((passes, kinks), ((1, 1), (2, -1)))


@pytest.mark.parametrize("build, n", [(kink_chain, 8200), (many_heights, 70000)], ids=["crossings", "heights"])
def test_key_of_large_diagrams(build, n):
    """8,200 crossings (codes down to -16,401) and 70,000 heights (ranks
    past 0xFFFF) still take one character a value, and a re-encoding
    gets the same key."""
    d = build(n)
    assert validate(d) == []
    key = dedup_key(d)
    assert len(key[0]) == sum(2 * len(c) + 2 for c in d.components)
    assert dedup_key(reencode(d, random.Random(3))) == key


def test_resolve_8200_kinks_hits_the_step_budget(tmp_path, capsys):
    f = tmp_path / "kinks.json"
    f.write_text(serialize_diagram(kink_chain(8200)))
    assert cli.main(["resolve", str(f), "--max-steps", "0"]) == 3
    assert "more than 0 expansions" in capsys.readouterr().err
