"""End-to-end pipeline values, deduplication, and the CLI surface."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import g2skein
from g2skein import Term, cli, parse_diagram, serialize_diagram
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
from g2skein.errors import SkeinValidationError, StepLimitExceeded
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
    rotated = SkeinDiagram.make(
        [rotate_component(y_neg.components[0], 2)], y_neg.signs()
    )
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
    """The walk (children merged by dedup, values memoized, layers split)
    against the naive reference."""
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


def test_two_component_fixture_value(two_component):
    assert run_pipeline(two_component).text() == (
        "(1*t)*x^3*z^2 + (-1*t)*x^3 + (1*t^-1)*x^2*y*z"
        " + (-1*t^-3 + 1*t + -2*t^5)*x*z^2 + (1*t + 1*t^5)*x"
        " + (-1*t^-5 + -1*t^7)*y*z"
    )


def test_resolution_order_does_not_change_value(two_crossing):
    """The walk smooths the lowest id first, so renumbering the crossings
    reorders their resolution; the value must not move."""
    flipped = renumber_crossings(two_crossing, {1: 2, 2: 1})
    assert flipped != two_crossing
    assert run_pipeline(flipped) == run_pipeline(two_crossing)
    for seed in range(6):
        d = random_diagram_with_crossings(seed, 3, 4)
        ids = d.crossing_ids()
        reversed_ids = renumber_crossings(d, dict(zip(ids, reversed(ids))))
        assert run_pipeline(reversed_ids) == run_pipeline(d), seed


@pytest.mark.parametrize("seed", range(8))
def test_staged_path_agrees_with_fast_path(seed, tmp_path):
    """A run that records every stage to a trace under a step budget
    prints byte-identical output to a plain run."""
    d = random_diagram(seed, max_components=2, max_self_crossings=2)
    plain = run_pipeline(d)
    traced = run_pipeline(d, max_steps=10_000, trace_path=str(tmp_path / "t.jsonl"))
    assert traced.text() == plain.text()
    assert json.dumps(traced.to_json_obj()) == json.dumps(plain.to_json_obj())


def test_runs_share_no_memo(two_crossing):
    first, second = {}, {}
    run_pipeline(two_crossing, stats=first)
    run_pipeline(two_crossing, stats=second)
    first.pop("seconds"), second.pop("seconds")
    assert first == second
    assert first["sort_expansions"] > 0


def expansions(d):
    stats = {}
    run_pipeline(d, stats=stats)
    return stats["crossing_expansions"], stats["sort_expansions"], stats["layer_splits"]


def test_expansion_counts_are_pinned():
    """(crossing, sort, split) expansions of the walk on generated
    diagrams; a change that moves work between the rules shows here."""
    assert expansions(random_diagram_with_crossings(11, 10, 10)) == (853, 2508, 548)
    assert expansions(random_diagram(172, 2, 3)) == (7, 847, 165)
    sums = [expansions(random_diagram(s, 2, 3)) for s in range(150)]
    assert tuple(map(sum, zip(*sums))) == (196, 2773, 444)


def test_step_limit_propagates(y_neg):
    with pytest.raises(StepLimitExceeded):
        run_pipeline(y_neg, max_steps=0)


def test_invalid_diagram_rejected(y_neg):
    broken = SkeinDiagram.make(list(y_neg.components), {4: 1})
    with pytest.raises(SkeinValidationError):
        run_pipeline(broken)


def test_stats_and_trace(tmp_path, two_crossing):
    stats = {}
    trace_file = tmp_path / "trace.jsonl"
    out = run_pipeline(two_crossing, trace_path=str(trace_file), stats=stats)
    assert out.text() == "(1 + -1*t^4)*x*z^2 + (-1*t^-4)*x + (-1*t^6)*y*z"
    assert stats.pop("seconds") >= 0
    assert stats == {
        "nodes": 15,
        "crossing_expansions": 3,
        "sort_expansions": 7,
        "layer_splits": 5,
        "leaves": 20,
    }
    lines = [json.loads(l) for l in trace_file.read_text().splitlines()]
    stages = [l["stage"] for l in lines]
    assert stages[0] == "start" and stages[-1] == "done"
    assert stages.count("resolve") == stats["crossing_expansions"]
    assert stages.count("sort") == stats["sort_expansions"]
    assert stages.count("split") == stats["layer_splits"]
    assert all(l["groups"] >= 2 for l in lines if l["stage"] == "split")
    assert len(stages) == 2 + 3 + 7 + 5
    assert lines[-1]["polynomial"] == out.text()


# ---------------------------------------------------------------------------
# the layer rule

def stacked(lower, upper):
    """The union of two crossing-free diagrams, ``upper`` relabelled to
    lie above every height of ``lower``."""
    top = max(h for c in lower.components for h in c.heights)
    used = {h for c in upper.components for h in c.heights}
    raised = relabel_heights(upper, {h: h + top for h in used})
    return SkeinDiagram.make(lower.components + raised.components)


def test_stacked_layers_multiply(y_neg, y_pos):
    crossing_free = [y_neg, y_pos, random_diagram(60, 2, 0), random_diagram(63, 2, 0)]
    for lower, upper in itertools.product(crossing_free, repeat=2):
        d = stacked(lower, upper)
        stats = {}
        value = run_pipeline(d, stats=stats)
        assert stats["layer_splits"] >= 1
        assert value == run_pipeline(lower) * run_pipeline(upper)
        assert value == evaluate(sort_expression([one_term(d)]))


def test_interleaved_heights_do_not_split():
    # the intervals [6, 8] and [1, 7] overlap, and no diagram the sort
    # reaches from here separates either
    d = parse_diagram(doc_text({
        "components": [
            {"E": ["U1", "U1"], "I": [8, 6], "Q": [3, 4]},
            {"E": ["U1", "U2", "O2", "O2", "U2", "U1"], "I": [3, 7, 5, 4, 1, 2],
             "Q": [3, 4, 5, 4, 5, 4]},
        ],
        "U": {},
    }))
    assert split_stage(one_term(d)) is None
    stats = {}
    value = run_pipeline(d, stats=stats)
    assert stats["layer_splits"] == 0
    assert stats["sort_expansions"] == 3
    assert value == naive_value(d)


def test_trivial_loop_is_split_off(y_neg, unknot):
    d = SkeinDiagram.make(y_neg.components + unknot.components)
    factors, record = split_stage(one_term(d))
    assert record == {"stage": "split", "groups": 2}
    assert [f.diagram.components for f in factors] == [y_neg.components, unknot.components]
    stats = {}
    assert run_pipeline(d, stats=stats) == run_pipeline(y_neg) * run_pipeline(unknot)
    assert stats["layer_splits"] == 1


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
    comps = list(d.components)
    for li, c in enumerate(comps):
        for k in range(1, len(c)):
            yield SkeinDiagram.make(comps[:li] + [rotate_component(c, k)] + comps[li + 1 :], d.signs())
        if not d.sign_pairs:
            yield SkeinDiagram.make(comps[:li] + [reverse_component(c)] + comps[li + 1 :])
    yield SkeinDiagram.make(comps[::-1], d.signs())
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


def test_cli_bench_runs(tmp_path):
    r = run_cli("bench", "--crossings", "3", "--seed", "3", cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "wall time" in r.stdout
    assert "sort expansions" in r.stdout
    assert "layer splits" in r.stdout
    assert "leaves valued" in r.stdout


def test_cli_bench_rejects_unusable_counts(tmp_path):
    """A negative count is a usage error; a count the generator cannot
    reach is reported as an error.  Both exit 1 without a traceback."""
    for count, message in (("-1", "not a non-negative integer"), ("40", "error: no diagram with 40..40 crossings")):
        r = run_cli("bench", "--crossings", count, cwd=str(tmp_path))
        assert r.returncode == 1
        assert message in r.stderr
        assert "Traceback" not in r.stderr
