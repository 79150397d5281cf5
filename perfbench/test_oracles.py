"""Each value check accepts the pipeline's output and rejects a perturbed one.

    python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from g2skein import engine, oracle, parse_diagram, serialize_diagram  # noqa: E402

PAIRS = oracles.random_sl2_pairs(0)


def pipeline(doc: dict) -> dict:
    return engine.run_pipeline(parse_diagram(json.dumps(doc))).to_json_obj()


def generated(seed: int) -> dict:
    return json.loads(serialize_diagram(oracle.random_diagram(seed, 2, 3)))


def bump_first_coefficient(poly_obj: dict) -> dict:
    out = copy.deepcopy(poly_obj)
    out["polynomial"][0]["coeff"][0][1] += 1
    return out


def swap_x_z(poly_obj: dict) -> dict:
    out = copy.deepcopy(poly_obj)
    for entry in out["polynomial"]:
        m = entry["monomial"]
        m["x"], m["z"] = m["z"], m["x"]
    return out


def invert_t(poly_obj: dict) -> dict:
    out = copy.deepcopy(poly_obj)
    for entry in out["polynomial"]:
        entry["coeff"] = [[-e, c] for e, c in entry["coeff"]]
    return out


# ---------------------------------------------------------------------------
# Kauffman state sum for closed braids

def brute_state_sum(word, n):
    """2^k smoothings, loops counted with a union-find over arc ends."""
    total: dict = {}
    k = len(word)
    for state in range(2 ** k):
        # points (level, position): level j is between letters j-1 and j
        parent = list(range((k + 1) * n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def join(a, b):
            parent[find(a)] = find(b)

        exp = 0
        for j, (i, eps) in enumerate(word):
            lo, hi = j * n, (j + 1) * n
            for p in range(n):
                if p not in (i - 1, i):
                    join(lo + p, hi + p)
            if state >> j & 1:  # oriented smoothing
                join(lo + i - 1, hi + i - 1)
                join(lo + i, hi + i)
                exp += eps
            else:
                join(lo + i - 1, lo + i)
                join(hi + i - 1, hi + i)
                exp -= eps
        for p in range(n):  # closure
            join(p, k * n + p)
        loops = len({find(a) for a in range((k + 1) * n)})
        oracles.lp_add(total, oracles.lp_shift(oracles.delta_power(loops), exp))
    return total


@pytest.mark.parametrize("seed", range(6))
def test_braid_bracket_matches_brute_force_and_pipeline(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3, 4))
    word = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(1, 8))]
    expected = oracles.braid_bracket(word, n)
    assert expected == brute_state_sum(word, n)
    value = pipeline(oracles.braid_document(word, n))
    assert oracles.bracket_failure(value, expected) is None


def test_braid_bracket_rejects_perturbed_values():
    word = [(1, 1)] * 3  # trefoil: chiral, so t -> 1/t changes the value
    expected = oracles.braid_bracket(word, 2)
    value = pipeline(oracles.braid_document(word, 2))
    assert oracles.bracket_failure(value, expected) is None
    assert oracles.bracket_failure(bump_first_coefficient(value), expected)
    assert oracles.bracket_failure(invert_t(value), expected)


def test_braid_document_has_one_component_per_closure_cycle():
    doc = oracles.braid_document([(1, 1), (1, 1)], 3)  # strand 3 never crosses
    assert [len(c["E"]) for c in doc["components"]] == [2, 2, 0]


# ---------------------------------------------------------------------------
# t = -1 trace identity

def test_trace_identity_holds_on_generated_diagrams():
    for seed in range(40):
        doc = generated(seed)
        assert oracles.trace_identity_failure(doc, pipeline(doc), PAIRS) is None, seed


def test_trace_identity_rejects_changed_coefficient_and_swapped_handles():
    doc, value = None, None
    for seed in range(40):
        doc = generated(seed)
        value = pipeline(doc)
        if oracles.poly_terms(swap_x_z(value)) != oracles.poly_terms(value):
            break
    assert oracles.trace_identity_failure(doc, value, PAIRS) is None
    assert oracles.trace_identity_failure(doc, bump_first_coefficient(value), PAIRS)
    assert oracles.trace_identity_failure(doc, swap_x_z(value), PAIRS)


def test_sl2_pairs_avoid_small_traces():
    for a, b in oracles.random_sl2_pairs(7, 5):
        assert a[0] * a[3] - a[1] * a[2] == 1 and b[0] * b[3] - b[1] * b[2] == 1
        assert a[0] + a[3] != b[0] + b[3]


# ---------------------------------------------------------------------------
# mirror symmetry

def test_mirror_holds_and_rejects_perturbed_values():
    checked = 0
    for seed in range(60):
        doc = generated(seed)
        if oracles.mirror_inversions(doc) > 2:
            continue
        value, mirrored = pipeline(doc), pipeline(oracles.mirror_document(doc))
        assert oracles.mirror_failure(value, mirrored) is None, seed
        assert oracles.mirror_failure(bump_first_coefficient(value), mirrored), seed
        if oracles.poly_terms(invert_t(value)) != oracles.poly_terms(value):
            assert oracles.mirror_failure(invert_t(value), mirrored), seed
            checked += 1
    assert checked >= 5


def test_mirror_document_flips_passes_crossings_and_signs():
    doc = {"components": [{"E": ["O1", "X+1", "U2", "X-1"], "I": [1, 3, 2, 3], "Q": [3, 0, 4, 0]}],
           "U": {"1": -1}}
    assert oracles.mirror_document(doc) == {
        "components": [{"E": ["U1", "X-1", "O2", "X+1"], "I": [1, 3, 2, 3], "Q": [3, 0, 4, 0]}],
        "U": {"1": 1},
    }


# ---------------------------------------------------------------------------
# the CLI trace's closing record

def test_trace_record_agrees_with_output_and_rejects_changes():
    for seed in range(30):
        poly = engine.run_pipeline(oracle.random_diagram(seed, 2, 3))
        record = json.dumps({"stage": "done", "polynomial": poly.text()})
        assert oracles.trace_record_failure(record, poly.to_json_obj()) is None, seed
        assert oracles.trace_record_failure(record, bump_first_coefficient(poly.to_json_obj()))
    poly_obj = engine.run_pipeline(oracle.random_diagram(0, 2, 3)).to_json_obj()
    assert oracles.trace_record_failure(json.dumps({"stage": "sort-round"}), poly_obj)
