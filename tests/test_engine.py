"""End-to-end pipeline values, deduplication, and the CLI surface."""

import hashlib
import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import g2skein
from g2skein import Term, classifier, cli, diagram, engine, parse_diagram, serialize_diagram, sorter
from g2skein.diagram import (
    SkeinDiagram,
    dedup_key,
    relabel_heights,
    renumber_crossings,
    reverse_component,
    rotate_component,
)
from g2skein.classifier import evaluate
from g2skein.engine import dedup, run_pipeline, split_stage
from g2skein.errors import InternalInvariantError, SkeinValidationError, StepLimitExceeded
from g2skein.laurent import LaurentPoly
from g2skein.oracle import random_diagram, random_diagram_with_crossings
from g2skein.sorter import sort_state

from conftest import TWO_CROSSING_DOC, UNKNOT_DOC, doc_text
from test_diagram import SPLIT_REGIONS_DOC
from naive import naive_value, resolve_all, sort_expression

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracles  # noqa: E402
import workloads  # noqa: E402


def one_term(d, coeff=None):
    return Term(coeff=coeff or LaurentPoly.one(), diagram=d)


# ---------------------------------------------------------------------------
# dedup

def test_dedup_merges_symmetric_duplicates(y_neg):
    rotated = SkeinDiagram((rotate_component(y_neg.components[0], 2),), y_neg.sign_pairs)
    e = [
        one_term(y_neg, LaurentPoly.monomial(1)),
        one_term(rotated, LaurentPoly.monomial(1)),
    ]
    out = dedup(e)
    assert len(out) == 1
    assert out[0].coeff == LaurentPoly.monomial(1, 2)


def test_dedup_drops_cancelled_terms(y_neg):
    used = sorted({h for c in y_neg.components for h in c.heights})
    relabeled = relabel_heights(y_neg, {h: h + 3 for h in used})
    e = [
        one_term(y_neg, LaurentPoly.monomial(2)),
        one_term(relabeled, LaurentPoly.monomial(2, -1)),
    ]
    assert dedup(e) == []


def test_dedup_keeps_distinct_terms(y_neg, unknot):
    e = [one_term(y_neg), one_term(unknot)]
    assert len(dedup(e)) == 2


@pytest.mark.parametrize("seed", range(6))
def test_dedup_preserves_value(seed):
    """The walk (children merged by the memo, layers split) against the
    naive reference."""
    d = random_diagram(seed, max_components=2, max_self_crossings=2)
    assert run_pipeline(d) == naive_value(d)


# ---------------------------------------------------------------------------
# pipeline values

def test_winding_curve_values(y_neg, y_pos):
    assert run_pipeline(y_neg).text() == "(-1*t^-2)*x*z + (-1*t^-4)*y"
    assert run_pipeline(y_pos).text() == "(-1*t^2)*x*z + (-1*t^4)*y"


def test_unknot_value(unknot):
    assert run_pipeline(unknot).text() == "(-1*t^-2 + -1*t^2)"


def test_kink_values_are_twist_multiples(kink_pos, kink_neg, unknot):
    base = run_pipeline(unknot)
    pos = run_pipeline(kink_pos)
    neg = run_pipeline(kink_neg)
    assert pos.text() == "(1*t + 1*t^5)"
    assert neg.text() == "(1*t^-5 + 1*t^-1)"
    assert pos == base.scaled(LaurentPoly.monomial(3, -1))
    assert neg == base.scaled(LaurentPoly.monomial(-3, -1))


def test_two_crossing_fixture_value(two_crossing):
    assert run_pipeline(two_crossing).text() == (
        "(1 + -1*t^4)*x*z^2 + (-1*t^-4)*x + (-1*t^6)*y*z"
    )


TWO_COMPONENT_VALUE = (
    "(1*t)*x^3*z^2 + (-1*t)*x^3 + (1*t^-1)*x^2*y*z"
    " + (-1*t^-3 + 1*t + -2*t^5)*x*z^2 + (1*t + 1*t^5)*x"
    " + (-1*t^-5 + -1*t^7)*y*z"
)


def test_two_component_fixture_value(two_component):
    assert run_pipeline(two_component).text() == TWO_COMPONENT_VALUE


def test_equal_values_are_one_object(two_component):
    """The memo holds one key per node and one object per distinct value,
    and sharing them changes no value."""
    memo, stats = {}, {}
    value = engine._basis_value(two_component, memo=memo, stats=stats)
    assert value.text() == TWO_COMPONENT_VALUE
    assert len(memo) == stats["nodes"]
    assert len({id(v) for v in memo.values()}) == len(set(memo.values())) == stats["values"]


def test_resolution_order_does_not_change_value(two_crossing):
    """The walk smooths the lowest id first, so renumbering the crossings
    reorders their resolution; the value must not move."""
    flipped = renumber_crossings(two_crossing, {1: 2, 2: 1})
    assert flipped != two_crossing
    assert run_pipeline(flipped) == run_pipeline(two_crossing)
    for seed in range(6):
        d = random_diagram_with_crossings(seed, 3, 4)
        ids = [cid for cid, _ in d.sign_pairs]
        reversed_ids = renumber_crossings(d, dict(zip(ids, reversed(ids))))
        assert run_pipeline(reversed_ids) == run_pipeline(d), seed


@pytest.mark.parametrize("seed", range(8))
def test_staged_path_agrees_with_fast_path(seed):
    """A run that emits every stage as a trace record under a step budget
    prints byte-identical output to a plain run."""
    d = random_diagram(seed, max_components=2, max_self_crossings=2)
    plain = run_pipeline(d)
    records = []
    traced = run_pipeline(d, max_steps=10_000, emit=records.append)
    assert records[-1] == {"stage": "done", "polynomial": plain.text()}
    assert traced.text() == plain.text()
    assert json.dumps(traced.to_json_obj()) == json.dumps(plain.to_json_obj())


def test_runs_share_no_memo(two_crossing):
    first, second = {}, {}
    run_pipeline(two_crossing, stats=first)
    run_pipeline(two_crossing, stats=second)
    first.pop("seconds"), second.pop("seconds")
    assert first == second
    assert first["sort_expansions"] > 0


def test_step_limit_propagates(y_neg):
    with pytest.raises(StepLimitExceeded):
        run_pipeline(y_neg, max_steps=0)


def test_invalid_diagram_rejected(y_neg):
    broken = SkeinDiagram(y_neg.components, ((4, 1),))
    with pytest.raises(SkeinValidationError):
        run_pipeline(broken)


def test_each_document_is_validated_once(monkeypatch, y_neg):
    """``parse_diagram`` caches its clean verdict on the diagram, so the
    run that values it scans it no more; a diagram built in Python is
    scanned once however often it runs, and a broken one never passes."""
    scans = []
    real = diagram.validate

    def spy(d):
        scans.append(d)
        return real(d)

    monkeypatch.setattr(diagram, "validate", spy)
    d = parse_diagram(doc_text(TWO_CROSSING_DOC))
    run_pipeline(d)
    assert scans == [d]
    built = SkeinDiagram(y_neg.components, ())
    run_pipeline(built)
    run_pipeline(built)
    assert scans == [d, built]
    broken = SkeinDiagram(y_neg.components, ((4, 1),))
    for _ in range(2):
        with pytest.raises(SkeinValidationError):
            run_pipeline(broken)
    assert scans == [d, built, broken, broken]


def test_walk_checks_the_exponent_congruence(monkeypatch, two_crossing):
    """The mutant M1 flips the exponent of the twist compensation
    -t^(-3 sign) in ``induce_crossings``: it multiplies a twist's term
    by t^(6 sign), so the value of the first node that sums a twist's
    children with others mixes two classes of e + 2(i + j + k) mod 4."""
    real = sorter.induce_crossings

    def m1(t, a, c):
        staged = real(t, a, c)
        if len(staged.diagram.sign_pairs) != 1:
            return staged
        ((_cid, sign),) = staged.diagram.sign_pairs
        return Term(staged.coeff * LaurentPoly.monomial(6 * sign), staged.diagram)

    run_pipeline(two_crossing)
    monkeypatch.setattr(sorter, "induce_crossings", m1)
    with pytest.raises(InternalInvariantError, match=r"takes the classes \[0, 2\] mod 4"):
        run_pipeline(two_crossing)


def walk_population(*fixtures):
    """The given fixtures, ``random_diagram(s, 2, 3)`` for s < 150 and
    the ``crossings-10`` diagram."""
    return list(fixtures) + [random_diagram(s, 2, 3) for s in range(150)] + [random_diagram_with_crossings(11, 10, 10)]


def test_walk_keeps_sign_ids_ascending(monkeypatch, y_neg, y_pos, unknot, kink_pos, two_crossing, two_component):
    """``validate`` checks the sign-id order of the input only; every
    diagram the walk builds from it and keys or classifies must keep
    its sign pairs in strictly ascending id order too.  More than 500
    distinct diagrams with two sign pairs or more are checked."""
    seen = []
    key, value = engine.dedup_key, classifier.evaluate

    def key_spy(d):
        seen.append(d)
        return key(d)

    def value_spy(e):
        seen.extend(t.diagram for t in e)
        return value(e)

    monkeypatch.setattr(engine, "dedup_key", key_spy)
    monkeypatch.setattr(classifier, "evaluate", value_spy)
    for d in walk_population(y_neg, y_pos, unknot, kink_pos, two_crossing, two_component):
        run_pipeline(d)
    assert len({key(d) for d in seen if len(d.sign_pairs) > 1}) > 500
    for d in seen:
        ids = [cid for cid, _ in d.sign_pairs]
        assert all(a < b for a, b in zip(ids, ids[1:])), d.sign_pairs


def test_resolve_records_name_the_case(monkeypatch, y_neg, y_pos, unknot, kink_pos, two_crossing, two_component):
    """A ``resolve`` record's ``case`` is ``split`` exactly when the two
    branch codes of the smoothed crossing lie on one component, read here
    off the diagram that the record's expansion smooths."""
    smoothed, records = [], []
    stage = engine.resolve_stage

    def stage_spy(t):
        smoothed.append(t.diagram)
        return stage(t)

    monkeypatch.setattr(engine, "resolve_stage", stage_spy)
    for d in walk_population(y_neg, y_pos, unknot, kink_pos, two_crossing, two_component):
        run_pipeline(d, emit=records.append)
    records = [r for r in records if r["stage"] == "resolve"]
    assert len(records) == len(smoothed)
    cases = {"split": 0, "merge": 0}
    for r, d in zip(records, smoothed):
        cid = d.sign_pairs[0][0]
        assert r["crossing"] == cid
        carriers = [i for i, c in enumerate(d.components) for k in (-2 * cid, -2 * cid - 1) if k in c.codes]
        assert len(carriers) == 2
        assert r["case"] == ("split" if carriers[0] == carriers[1] else "merge")
        cases[r["case"]] += 1
    assert min(cases.values()) > 100, cases


def test_stats_and_trace(two_crossing):
    """The trace has one record per expansion the counters report,
    between ``start`` and ``done``; the fixture expands by every rule, so
    every kind of record is checked.  ``golden_counters.txt`` pins the
    counts themselves."""
    stats, lines = {}, []
    out = run_pipeline(two_crossing, emit=lines.append, stats=stats)
    assert out.text() == "(1 + -1*t^4)*x*z^2 + (-1*t^-4)*x + (-1*t^6)*y*z"
    assert stats.pop("seconds") >= 0
    assert set(stats) == {"nodes", "values", "crossing_expansions", "sort_expansions", "layer_splits", "leaves"}
    expanded = stats["crossing_expansions"], stats["sort_expansions"], stats["layer_splits"]
    assert min(expanded) >= 1
    stages = [l["stage"] for l in lines]
    assert stages[0] == "start" and stages[-1] == "done"
    assert stages.count("resolve") == stats["crossing_expansions"]
    assert stages.count("sort") == stats["sort_expansions"]
    assert stages.count("split") == stats["layer_splits"]
    assert all(l["groups"] >= 2 for l in lines if l["stage"] == "split")
    assert len(stages) == 2 + sum(expanded)
    assert lines[-1]["polynomial"] == out.text()


def test_trace_is_pinned(tmp_path):
    """The ``g2skein resolve --trace`` file of the ``traced`` workload's
    diagram, byte for byte: the order of expansions, every field of every
    record and the line format."""
    doc, trace_file = tmp_path / "d.json", tmp_path / "trace.jsonl"
    doc.write_text(serialize_diagram(random_diagram(172, 2, 3)))
    assert cli.main(["resolve", str(doc), "--trace", str(trace_file)]) == 0
    data = trace_file.read_bytes()
    assert data.count(b"\n") == 898
    assert hashlib.sha256(data).hexdigest() == "dc544dc512f4bc7ca89b59d6d7f73e6300b813c0f29a3014e24854af744705d9"


# ---------------------------------------------------------------------------
# the layer rule

def stacked(lower, upper):
    """The union of two crossing-free diagrams, ``upper`` relabelled to
    lie above every height of ``lower``."""
    top = max(h for c in lower.components for h in c.heights)
    used = {h for c in upper.components for h in c.heights}
    raised = relabel_heights(upper, {h: h + top for h in used})
    return SkeinDiagram(lower.components + raised.components, ())


def test_stacked_layers_multiply(y_neg, y_pos):
    crossing_free = [y_neg, y_pos, random_diagram(60, 2, 0), random_diagram(63, 2, 0)]
    for lower, upper in itertools.product(crossing_free, repeat=2):
        d = stacked(lower, upper)
        stats = {}
        value = run_pipeline(d, stats=stats)
        assert stats["layer_splits"] >= 1
        assert value == run_pipeline(lower) * run_pipeline(upper)
        assert value == evaluate(sort_expression([one_term(d)]))


def test_heights_interleaved_on_neither_strand_split():
    # the global intervals [6, 8] and [1, 7] overlap, but on neither
    # strand do the two components interleave: the first one's strand-1
    # heights 6 and 8 lie above the other's 2 and 3, and it has no
    # strand-2 pass.  So they are two layers, and the node has the two
    # inversions the walk splits at.
    d = parse_diagram(doc_text({
        "components": [
            {"E": ["U1", "U1"], "I": [8, 6], "Q": [3, 4]},
            {"E": ["U1", "U2", "O2", "O2", "U2", "U1"], "I": [3, 7, 5, 4, 1, 2],
             "Q": [3, 4, 5, 4, 5, 4]},
        ],
        "U": {},
    }))
    factors, record = split_stage(one_term(d))
    assert record == {"stage": "split", "groups": 2}
    assert [f.diagram.components for f in factors] == [d.components[1:], d.components[:1]]
    assert sort_state(d)[1] == 2
    stats = {}
    value = run_pipeline(d, stats=stats)
    assert stats["layer_splits"] == 1
    assert stats["sort_expansions"] == 3
    assert value == naive_value(d)


@pytest.mark.parametrize("seed, strand", [(541, 1), (258, 2)])
def test_heights_interleaved_on_one_strand_do_not_split(seed, strand):
    """Two components whose passes interleave along one strand: one at
    heights 1 and 4 straddles the other at 2 and 3 there."""
    d = random_diagram(seed, 2, 0)
    on_strand = [sorted(h for k, h in zip(c.codes, c.heights) if (k >> 1) & 1 == strand - 1) for c in d.components]
    assert sorted(on_strand) == [[1, 4], [2, 3]]
    assert split_stage(one_term(d)) is None
    stats = {}
    value = run_pipeline(d, stats=stats)
    assert stats["layer_splits"] == 0
    assert value == naive_value(d)


def test_trivial_loop_is_split_off(y_neg, unknot):
    d = SkeinDiagram(y_neg.components + unknot.components, ())
    factors, record = split_stage(one_term(d))
    assert record == {"stage": "split", "groups": 2}
    assert [f.diagram.components for f in factors] == [unknot.components, y_neg.components]
    # the walk splits a node with two inversions
    two = random_diagram(3, 1, 0)
    assert sort_state(two)[1] == 2
    stats = {}
    run_pipeline(two, stats=stats)
    assert stats["layer_splits"] == 0
    d = SkeinDiagram(two.components + unknot.components, ())
    assert run_pipeline(d, stats=stats) == run_pipeline(two) * run_pipeline(unknot)
    assert stats["layer_splits"] == 1


def test_one_inversion_is_sorted_without_a_split(y_neg, unknot):
    """A node one slide from sorted is slid at once: all the slide's
    children are leaves, so a split would only add a node."""
    d = SkeinDiagram(y_neg.components + unknot.components, ())
    assert sort_state(d)[1] == 1 and split_stage(one_term(d)) is not None
    stats, lines = {}, []
    assert run_pipeline(d, emit=lines.append, stats=stats) == run_pipeline(y_neg) * run_pipeline(unknot)
    assert (stats["nodes"], stats["layer_splits"], stats["sort_expansions"]) == (1, 0, 1)
    assert [l["stage"] for l in lines] == ["start", "sort", "done"]


# ---------------------------------------------------------------------------
# command line

# The directory that holds the imported package, as an absolute path: a
# relative PYTHONPATH entry such as "src" stops resolving once the child runs
# in another working directory, and this also keeps the child on the same
# copy of g2skein that the in-process tests import.
PACKAGE_ROOT = str(Path(g2skein.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "g2skein.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_cli_validate(tmp_path):
    f = tmp_path / "d.json"
    f.write_text(doc_text(TWO_CROSSING_DOC))
    r = run_cli("validate", str(f))
    assert r.returncode == 0
    assert r.stdout.strip() == "ok"


def test_cli_validate_rejects(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"components": [{"E": ["X+1"], "I": [1], "Q": [0]}], "U": {"1": 1}}')
    r = run_cli("validate", str(f))
    assert r.returncode == 1
    assert "unpaired" in r.stderr
    # two passes in front of strand 1, both from L to M
    f.write_text('{"components": [{"E": ["O1", "O1"], "I": [1, 2], "Q": [3, 3]}], "U": {}}')
    r = run_cli("resolve", str(f))
    assert r.returncode == 1
    assert "region break" in r.stderr
    f.write_text(doc_text(SPLIT_REGIONS_DOC))
    r = run_cli("resolve", str(f))
    assert r.returncode == 1
    assert r.stderr.strip() == "error: self-crossing 1 branches lie in regions M and R"


@pytest.mark.parametrize(
    "command, data",
    [
        ("validate", b"\x7fELF\x02\x01\x01\x00\xff\x00"),
        ("resolve", b"\xff\xfe" + doc_text(UNKNOT_DOC).encode("utf-16-le")),
    ],
    ids=["validate-binary", "resolve-utf16"],
)
def test_cli_undecodable_input_exits_1(tmp_path, command, data):
    """Input that is not UTF-8 is unreadable input, reported like a
    missing file."""
    f = tmp_path / "d.json"
    f.write_bytes(data)
    r = run_cli(command, str(f))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: cannot read {f}: "), r.stderr
    assert "Traceback" not in r.stderr


def test_cli_unwritable_trace_exits_1_before_the_walk(tmp_path, monkeypatch, capsys):
    """A ``--trace`` path in a missing directory, naming a directory, or
    empty is an error of the command line: exit 1, and the walk never
    starts."""
    f = tmp_path / "d.json"
    f.write_text(doc_text(TWO_CROSSING_DOC))

    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(engine, "_basis_value", no_walk)
    for trace in (tmp_path / "missing" / "t.jsonl", tmp_path, ""):
        assert cli.main(["resolve", str(f), "--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), err


def test_cli_unexpected_exception_exits_2(tmp_path, monkeypatch, capsys):
    """Any exception the CLI does not expect is a bug: exit 2, the status
    kept for bugs, never 1, the status of bad input."""
    f = tmp_path / "d.json"
    f.write_text(doc_text(TWO_CROSSING_DOC))

    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr(engine, "run_pipeline", broken)
    assert cli.main(["resolve", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "internal error: KeyError: 'lost'"


@pytest.mark.parametrize("exc, status, message", [
    (MemoryError, 3, "error: out of memory"),
    (KeyboardInterrupt, 130, "interrupted"),
])
def test_cli_out_of_memory_and_interrupt_exit_without_a_traceback(tmp_path, monkeypatch, capsys, exc, status, message):
    """Running out of memory ends like an exhausted budget, with exit 3,
    and Ctrl-C with exit 130; each prints one line and no traceback."""
    f = tmp_path / "d.json"
    f.write_text(doc_text(TWO_CROSSING_DOC))

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(engine, "run_pipeline", broken)
    assert cli.main(["resolve", str(f)]) == status
    assert capsys.readouterr() == ("", message + "\n")


def test_console_script_is_cli_main():
    """The ``g2skein`` command that installing the package makes calls
    ``cli.main``."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"g2skein": "g2skein.cli:main"}
    module, attr = scripts["g2skein"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_cli_resolve_text(tmp_path):
    f = tmp_path / "d.json"
    f.write_text(doc_text(TWO_CROSSING_DOC))
    r = run_cli("resolve", str(f))
    assert r.returncode == 0
    assert r.stdout.strip() == "(1 + -1*t^4)*x*z^2 + (-1*t^-4)*x + (-1*t^6)*y*z"


def re_encodings(d):
    """Every component rotation, the components in reverse order, heights
    doubled plus 3, and, for a crossing-free input, each component
    traversed backwards."""
    comps = d.components
    for li, c in enumerate(comps):
        for k in range(1, len(c)):
            yield SkeinDiagram(comps[:li] + (rotate_component(c, k),) + comps[li + 1 :], d.sign_pairs)
        if not d.sign_pairs:
            yield SkeinDiagram(comps[:li] + (reverse_component(c),) + comps[li + 1 :], ())
    yield SkeinDiagram(comps[::-1], d.sign_pairs)
    yield relabel_heights(d, {h: 2 * h + 3 for c in comps for h in c.heights if h})


def test_resolve_text_does_not_depend_on_the_encoding(tmp_path, capsys):
    """The ``g2skein resolve`` text is byte-identical under re-encoding,
    wherever the walk's work lands; on 6-crossing diagrams and, for
    reversal, their crossing-free smoothings with the most strand passes."""
    path = tmp_path / "d.json"

    def resolve_text(d):
        path.write_text(serialize_diagram(d))
        assert cli.main(["resolve", str(path)]) == 0
        return capsys.readouterr().out

    checked = 0
    for seed in (0, 1, 8):
        d = random_diagram_with_crossings(seed, 6, 6)
        smoothed = sorted(resolve_all([Term(LaurentPoly.one(), d)]), key=lambda t: -sort_state(t.diagram)[0])
        for base in [d] + [t.diagram for t in smoothed[:2]]:
            text = resolve_text(base)
            for variant in re_encodings(base):
                assert resolve_text(variant) == text, serialize_diagram(variant)
                checked += 1
    assert checked > 100


def test_cli_resolve_json(tmp_path):
    f = tmp_path / "d.json"
    f.write_text(doc_text(UNKNOT_DOC))
    r = run_cli("resolve", str(f), "--output", "json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj == {
        "polynomial": [
            {
                "monomial": {"x": 0, "y": 0, "z": 0, "unknot": 0},
                "coeff": [[-2, -1], [2, -1]],
            }
        ]
    }


def test_cli_usage_errors_exit_1(tmp_path):
    f = tmp_path / "d.json"
    f.write_text(doc_text(UNKNOT_DOC))
    for extra in (
        ["--delta", "standard"],
        ["--aux-substitute"],
        ["--max-steps", "abc"],
        ["--order", "1"],
        ["--max-steps", "-1"],
    ):
        r = run_cli("resolve", str(f), *extra)
        assert r.returncode == 1, extra
        assert "usage:" in r.stderr
    # counts that would make fuzz check nothing
    for extra in (["--count", "-5"], ["--count", "1", "--max-crossings", "-1"]):
        r = run_cli("fuzz", *extra)
        assert r.returncode == 1, extra
        assert "usage:" in r.stderr
    assert run_cli("--help").returncode == 0


def test_cli_resolve_step_limit(tmp_path):
    f = tmp_path / "d.json"
    f.write_text(doc_text(TWO_CROSSING_DOC))
    r = run_cli("resolve", str(f), "--max-steps", "0")
    assert r.returncode == 3
    # a braid closure expands crossings only and never sorts; the budget
    # still stops it, and the run's own expansion count is enough
    d = parse_diagram(json.dumps(oracles.braid_document(workloads.BRAID_WORD, workloads.BRAID_STRANDS)))
    stats = {}
    run_pipeline(d, stats=stats)
    assert stats["sort_expansions"] == 0
    spent = stats["crossing_expansions"] + stats["layer_splits"]
    f = tmp_path / "braid.json"
    f.write_text(serialize_diagram(d))
    r = run_cli("resolve", str(f), "--max-steps", "0")
    assert r.returncode == 3
    assert r.stderr.strip() == "error: the walk needs more than 0 expansions"
    assert run_cli("resolve", str(f), "--max-steps", str(spent - 1)).returncode == 3
    assert run_cli("resolve", str(f), "--max-steps", str(spent)).returncode == 0


def test_cli_fuzz_clean(tmp_path):
    r = run_cli("fuzz", "--seed", "5", "--count", "6", "--check", "invariance", cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "6 diagrams" in r.stdout
    r = run_cli("fuzz", "--seed", "5", "--count", "6", "--check", "framing", cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "6 diagrams" in r.stdout
    r = run_cli("fuzz", "--seed", "5", "--count", "6", "--check", "all", cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "6 diagrams" in r.stdout


def test_cli_fuzz_reports_diagrams_without_a_confluence_check(tmp_path, monkeypatch, capsys):
    # seed 35 draws 6 crossings, one more than the exhaustive order check takes
    monkeypatch.chdir(tmp_path)
    args = ["fuzz", "--seed", "35", "--count", "1", "--max-crossings", "9", "--check", "confluence"]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (
        "1 diagrams checked, 0 failures; 1 without a confluence check (more than 5 crossings)\n"
    )
    assert cli.main(["fuzz", "--seed", "35", "--count", "1", "--max-crossings", "5", "--check", "confluence"]) == 0
    assert capsys.readouterr().out == "1 diagrams checked, 0 failures\n"


def test_cli_bench_runs(tmp_path):
    r = run_cli("bench", "--crossings", "3", "--seed", "3", cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "wall time" in r.stdout
    assert "sort expansions" in r.stdout
    assert "layer splits" in r.stdout
    assert "leaves valued" in r.stdout
    assert "distinct values" in r.stdout


def test_cli_bench_rejects_unusable_counts(tmp_path):
    """A negative count is a usage error; a count the generator cannot
    reach is reported as an error.  Both exit 1 without a traceback."""
    for count, message in (("-1", "not a non-negative integer"), ("40", "error: no diagram with 40..40 crossings")):
        r = run_cli("bench", "--crossings", count, cwd=str(tmp_path))
        assert r.returncode == 1
        assert message in r.stderr
        assert "Traceback" not in r.stderr
