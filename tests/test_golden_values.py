"""Byte-identical output and unchanged work on a fixed set of 220 diagrams.

``golden_values.txt`` holds one line per input: its name, a tab, and the
polynomial's text form.  ``golden_counters.txt`` holds, from the same
runs, the input's name, a tab, and the walk's counters as ``name=count``
fields: ``nodes``, ``crossing_expansions``, ``sort_expansions``,
``layer_splits``, ``leaves`` and ``values`` (distinct value objects).
The inputs are the fixture documents, the benchmark's braid closure,
``random_diagram(s, 2, 3)`` for s < 150 and s = 172,
``random_diagram(s, 2, 2)`` for s < 60, and
``random_diagram_with_crossings(11, 10, 10)``.  A refactor that changes
any value, or the way one is printed, fails here; one that moves work
between the walk's rules, or adds or saves some, fails the counter check.
The values must also come out when every rule hands its children to the
walk in reverse order.

``PYTHONPATH=src python tests/test_golden_values.py`` rewrites both files
from the current code.
"""

import functools
import json
import sys
from pathlib import Path

from g2skein import engine, parse_diagram
from g2skein.engine import run_pipeline
from g2skein.oracle import random_diagram, random_diagram_with_crossings

import conftest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracles  # noqa: E402
import workloads  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_values.txt"
COUNTERS = GOLDEN.with_name("golden_counters.txt")
COUNTER_NAMES = ("nodes", "crossing_expansions", "sort_expansions", "layer_splits", "leaves", "values")


def inputs():
    """(name, diagram) pairs in file order."""
    for name in sorted(n for n in dir(conftest) if n.endswith("_DOC")):
        yield name, parse_diagram(json.dumps(getattr(conftest, name)))
    braid = oracles.braid_document(workloads.BRAID_WORD, workloads.BRAID_STRANDS)
    yield "braid", parse_diagram(json.dumps(braid))
    for s in [*range(150), 172]:
        yield f"random_diagram({s},2,3)", random_diagram(s, 2, 3)
    for s in range(60):
        yield f"random_diagram({s},2,2)", random_diagram(s, 2, 2)
    yield "random_diagram_with_crossings(11,10,10)", random_diagram_with_crossings(11, 10, 10)


def walk_lines():
    """The value lines and the counter lines, from one run per input."""
    values, counters = [], []
    for name, d in inputs():
        stats = {}
        values.append(f"{name}\t{run_pipeline(d, stats=stats).text()}")
        counters.append(f"{name}\t" + " ".join(f"{k}={stats[k]}" for k in COUNTER_NAMES))
    return values, counters


current_lines = functools.cache(walk_lines)


def assert_lines_match(path, got, what):
    expected = path.read_text(encoding="utf-8").splitlines()
    assert len(expected) == 220
    mismatched = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not mismatched, f"{len(mismatched)} {what} changed, first: {mismatched[0]}"
    assert len(got) == len(expected)


def test_golden_values():
    assert_lines_match(GOLDEN, current_lines()[0], "values")


def test_golden_counters():
    assert_lines_match(COUNTERS, current_lines()[1], "counter lines")


def test_child_order_moves_no_value(monkeypatch):
    """The memo is the walk's only merge: children that share a key are
    two edges, summed or multiplied where they meet.  Every rule handing
    its children over in reverse order gives every golden value again,
    while the walk itself takes another path."""
    def reversed_children(stage):
        def spy(d):
            out = stage(d)
            return out and (out[0][::-1], out[1])
        return spy

    for name in ("resolve_stage", "sort_stage", "split_stage"):
        monkeypatch.setattr(engine, name, reversed_children(getattr(engine, name)))
    values, counters = walk_lines()
    assert_lines_match(GOLDEN, values, "values")
    assert counters != COUNTERS.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    for path, lines in zip((GOLDEN, COUNTERS), current_lines()):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
