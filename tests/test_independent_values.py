"""Pipeline values against oracles that share no code with the package.

The oracles live in ``perfbench/oracles.py``, which the benchmark also
uses; it is imported from there so that one copy is kept.  Each oracle
reads the diagram as its JSON document and the pipeline's JSON output,
and does its own arithmetic on plain ints:

* the t = -1 SL2 trace identity (Bullock 1997) on every fixture, on
  the 500 generated diagrams of the acceptance check A5, and on the 8-
  and 10-crossing diagrams of the acceptance check A8 and the
  benchmark's ``crossings-10`` workload;
* the Temperley-Lieb state sum (Kauffman 1987) on closures of random
  3- and 4-strand braids;
* the annular state sum at generic t (``annular``, kept under ``tests/``)
  on braids closed around strand 1, as drawn and mirrored; the mirror
  images have n^2 height inversions, so this is the check with an
  independently computed value that drives the sorter; and the same
  closures with the strands swapped, around strand 2, valued in z;
* the Temperley-Lieb state sum on seeded 3-strand closures of 16 to 40
  letters, the crossing-heavy regime of the benchmark's ``braid``
  workload;
* the filled-ball state sum at generic t (``filled_ball``, kept under
  ``tests/``): at x = y = z = -t^2 - t^-2 the value is the bracket of the
  drawing with both strands deleted, checked on the fixtures, on
  ``random_diagram(s, 2, 3)`` for s < 150, on
  ``random_diagram_with_crossings(s, 8, 10)`` for s < 10 and on the
  ``crossings-10`` input;
* the exponent congruence of the Kauffman bracket on the 220 golden
  inputs and on ``random_diagram(s, 2, 3)`` for s < 500.
"""

import copy
import json
import random
import sys
import warnings
from pathlib import Path

import pytest

from g2skein import parse_diagram, serialize_diagram
from g2skein.engine import run_pipeline
from g2skein.oracle import random_diagram, random_diagram_with_crossings

import conftest
from test_golden_values import inputs as golden_inputs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracles  # noqa: E402
from annular import annular_bracket, annular_document, annular_failure, swap_strands  # noqa: E402
from filled_ball import MAX_CROSSINGS, filled_ball_failure  # noqa: E402

FIXTURES = sorted(name for name in dir(conftest) if name.endswith("_DOC"))
PAIRS = oracles.random_sl2_pairs(0, 2)


def value_obj(doc: dict) -> dict:
    return run_pipeline(parse_diagram(json.dumps(doc))).to_json_obj()


@pytest.mark.parametrize("name", FIXTURES)
def test_trace_identity_on_fixtures(name):
    doc = getattr(conftest, name)
    assert oracles.trace_identity_failure(doc, value_obj(doc), PAIRS) is None


def test_trace_identity_on_generated_diagrams():
    for seed in range(500):
        doc = json.loads(serialize_diagram(random_diagram(seed, 2, 3)))
        failure = oracles.trace_identity_failure(doc, value_obj(doc), PAIRS)
        assert failure is None, f"seed {seed}: {failure}"


@pytest.mark.parametrize("crossings", [8, 10])
def test_trace_identity_on_many_crossings(crossings):
    d = random_diagram_with_crossings(11, crossings, crossings)
    doc = json.loads(serialize_diagram(d))
    assert oracles.trace_identity_failure(doc, run_pipeline(d).to_json_obj(), PAIRS) is None


def test_state_sum_on_braid_closures():
    rng = random.Random(7)
    for k in range(30):
        n = 3 + k % 2
        word = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(2, 8))]
        doc = oracles.braid_document(word, n)
        failure = oracles.bracket_failure(value_obj(doc), oracles.braid_bracket(word, n))
        assert failure is None, f"{n} strands, word {word}: {failure}"


@pytest.mark.parametrize("letters", [16, 24, 32, 40])
def test_state_sum_on_long_braid_closures(letters):
    """Seeded 3-strand closures as long as the ``braid`` workload's and
    longer: many crossings, and no strand pass to sort."""
    rng = random.Random(letters)
    word = [(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(letters)]
    failure = oracles.bracket_failure(value_obj(oracles.braid_document(word, 3)), oracles.braid_bracket(word, 3))
    assert failure is None, f"word {word}: {failure}"


def filled_ball_inputs():
    """(name, diagram): the fixtures, A5's first 150 diagrams, ten of 8 to
    10 crossings and the ``crossings-10`` input."""
    for name in FIXTURES:
        yield name, parse_diagram(json.dumps(getattr(conftest, name)))
    for s in range(150):
        yield f"random_diagram({s}, 2, 3)", random_diagram(s, 2, 3)
    for s in range(10):
        yield f"random_diagram_with_crossings({s}, 8, 10)", random_diagram_with_crossings(s, 8, 10)
    yield "random_diagram_with_crossings(11, 10, 10)", random_diagram_with_crossings(11, 10, 10)


def test_filled_ball_state_sum():
    """Values at x = y = z = delta against the bracket of the drawing
    without the strands; diagrams of more than ``MAX_CROSSINGS``
    crossings are skipped, and a warning names them."""
    checked, skipped = 0, []
    for name, d in filled_ball_inputs():
        doc = json.loads(serialize_diagram(d))
        if len(doc["U"]) > MAX_CROSSINGS:
            skipped.append(name)
            continue
        failure = filled_ball_failure(doc, run_pipeline(d).to_json_obj())
        assert failure is None, f"{name}: {failure}"
        checked += 1
    if skipped:
        warnings.warn(f"filled-ball check skipped {len(skipped)} diagrams of more than"
                      f" {MAX_CROSSINGS} crossings: {skipped}")
    assert checked >= 150


def test_filled_ball_check_rejects_a_perturbed_value():
    doc = conftest.TWO_CROSSING_DOC
    value = value_obj(doc)
    assert filled_ball_failure(doc, value) is None
    bumped = copy.deepcopy(value)
    bumped["polynomial"][0]["coeff"][0][1] += 1
    assert filled_ball_failure(doc, bumped) is not None
    # one basis loop more in a monomial is one factor delta more
    grown = copy.deepcopy(value)
    grown["polynomial"][0]["monomial"]["y"] += 1
    assert filled_ball_failure(doc, grown) is not None
    # a kink's value under t -> 1/t is its mirror image's, not its own
    doc = conftest.KINK_POS_DOC
    value = value_obj(doc)
    mirrored = {"polynomial": [
        {**entry, "coeff": [[-e, c] for e, c in entry["coeff"]]} for entry in value["polynomial"]
    ]}
    assert filled_ball_failure(doc, mirrored) is not None
    assert filled_ball_failure(oracles.mirror_document(doc), mirrored) is None


def annular_words():
    """20 random words on 2 and 3 threads, then two on 4."""
    rng = random.Random(13)
    for k in range(20):
        n = 2 + k % 2
        yield n, [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))]
    yield 4, [(2, 1), (1, -1), (3, 1), (2, 1), (1, 1)]
    yield 4, [(1, -1), (3, -1), (2, 1), (3, -1)]


def inverted(value: dict) -> dict:
    """A state sum under t -> 1/t."""
    return {power: {-e: c for e, c in coeff.items()} for power, coeff in value.items()}


@pytest.mark.parametrize("mirror", [False, True])
def test_annular_state_sum_on_closures_around_strand_1(mirror):
    for n, word in annular_words():
        doc, expected = annular_document(word, n), annular_bracket(word, n)
        if mirror:
            doc, expected = oracles.mirror_document(doc), inverted(expected)
        failure = annular_failure(value_obj(doc), expected)
        assert failure is None, f"{n} threads, word {word}, mirror {mirror}: {failure}"


def test_annular_check_rejects_a_perturbed_value():
    word = [(1, 1), (1, 1), (1, 1)]
    value, expected = value_obj(annular_document(word, 2)), annular_bracket(word, 2)
    assert annular_failure(value, expected) is None
    bumped = {power: dict(coeff) for power, coeff in expected.items()}
    bumped[0][3] += 1
    assert annular_failure(value, bumped) is not None
    assert annular_failure(value, inverted(expected)) is not None
    assert annular_failure(value, {power + 1: coeff for power, coeff in expected.items()}) is not None
    # the swapped closure is valued in z, and read as x it fails
    swapped = value_obj(swap_strands(annular_document(word, 2)))
    assert annular_failure(swapped, expected, "z") is None
    assert annular_failure(swapped, expected) is not None
    assert annular_failure(swapped, bumped, "z") is not None


@pytest.mark.parametrize("mirror", [False, True])
def test_annular_state_sum_on_closures_around_strand_2(mirror):
    for n, word in annular_words():
        doc, expected = annular_document(word, n), annular_bracket(word, n)
        if mirror:
            doc, expected = oracles.mirror_document(doc), inverted(expected)
        failure = annular_failure(value_obj(swap_strands(doc)), expected, "z")
        assert failure is None, f"{n} threads, word {word}, mirror {mirror}: {failure}"


def test_exponent_congruence():
    """Every term t^e x^i y^j z^k of a value has the same e + 2(i + j + k)
    mod 4, and e has the parity of the input's crossing count R.  In a
    state of the bracket sum the exponent moves by 2 and the number of
    curves by 1 per smoothing changed, and each trivial curve folded
    into the coefficient brings an exponent of 2 mod 4.  A change of
    exponents by a multiple of 4 passes this check."""
    diagrams = [d for _name, d in golden_inputs()] + [random_diagram(s, 2, 3) for s in range(500)]
    for d in diagrams:
        doc = json.loads(serialize_diagram(d))
        terms = oracles.poly_terms(run_pipeline(d).to_json_obj())
        classes = {(e + 2 * (x + y + z)) % 4 for (x, y, z, _unknot), coeff in terms.items() for e in coeff}
        assert len(classes) <= 1, doc
        assert all((c - len(doc["U"])) % 2 == 0 for c in classes), doc
