"""Byte-identical output on a fixed set of 220 diagrams.

``golden_values.txt`` holds one line per input: its name, a tab, and the
polynomial's text form.  The inputs are the fixture documents, the
benchmark's braid closure, ``random_diagram(s, 2, 3)`` for s < 150 and
s = 172, ``random_diagram(s, 2, 2)`` for s < 60, and
``random_diagram_with_crossings(11, 10, 10)``.  A refactor that changes
any value, or the way one is printed, fails here.

``PYTHONPATH=src python tests/test_golden_values.py`` prints the current
values in the same form.
"""

import json
import sys
from pathlib import Path

from g2skein import parse_diagram
from g2skein.engine import run_pipeline
from g2skein.oracle import random_diagram, random_diagram_with_crossings

import conftest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracles  # noqa: E402
import workloads  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_values.txt"


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


def current_lines():
    return [f"{name}\t{run_pipeline(d).text()}" for name, d in inputs()]


def test_golden_values():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = current_lines()
    assert len(expected) == 220
    mismatched = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not mismatched, f"{len(mismatched)} values changed, first: {mismatched[0]}"
    assert len(got) == len(expected)


if __name__ == "__main__":
    print("\n".join(current_lines()))
