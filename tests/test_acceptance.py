"""Acceptance gate: eight checks, one test each, timed where required.

Each test prints a single PASS line naming the guarantee it pins down,
so a verbose run reads as a checklist.  Timing limits use wall-clock
time around the complete check body.
"""

import json
import time

from g2skein import Term, parse_diagram, serialize_diagram, validate
from g2skein.classifier import evaluate
from g2skein.engine import run_pipeline
from g2skein.laurent import LaurentPoly
from g2skein.oracle import (
    check_confluence,
    check_encoding_invariance,
    random_diagram,
    random_diagram_with_crossings,
)

from conftest import (
    KINK_NEG_DOC,
    KINK_POS_DOC,
    TWO_COMPONENT_DOC,
    TWO_CROSSING_DOC,
    UNKNOT_DOC,
    Y_NEG_DOC,
    Y_POS_DOC,
    doc_text,
)
from naive import resolve_all, sort_expression


def test_a1_encoding_round_trip():
    start = time.perf_counter()
    for doc in (TWO_CROSSING_DOC, TWO_COMPONENT_DOC):
        text = doc_text(doc)
        d = parse_diagram(text)
        assert validate(d) == []
        assert serialize_diagram(d) == text
        assert serialize_diagram(parse_diagram(serialize_diagram(d))) == serialize_diagram(d)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nA1 PASS: reference arrays parse, validate, and round-trip byte-exactly ({elapsed:.3f}s)")


def test_a2_resolution_term_counts():
    start = time.perf_counter()
    base = resolve_all([Term(coeff=LaurentPoly.one(), diagram=parse_diagram(doc_text(TWO_CROSSING_DOC)))])
    assert len(base) == 4
    assert all(t.diagram.sign_pairs == () for t in base)

    seen_counts = set()
    for seed in range(30):
        d = random_diagram(seed, max_components=2, max_self_crossings=3)
        r = len(d.sign_pairs)
        if r > 5:
            continue
        terms = resolve_all([Term(coeff=LaurentPoly.one(), diagram=d)])
        assert len(terms) == 2 ** r
        assert all(t.diagram.sign_pairs == () for t in terms)
        seen_counts.add(r)
    assert len(seen_counts) >= 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nA2 PASS: every r-crossing diagram resolves to exactly 2^r crossing-free terms ({elapsed:.3f}s)")


def test_a3_winding_curve_identities():
    start = time.perf_counter()
    neg = run_pipeline(parse_diagram(doc_text(Y_NEG_DOC)))
    pos = run_pipeline(parse_diagram(doc_text(Y_POS_DOC)))
    assert neg.text() == "(-1*t^-2)*x*z + (-1*t^-4)*y"
    assert pos.text() == "(-1*t^2)*x*z + (-1*t^4)*y"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nA3 PASS: the two once-around-both-handles curves hit their exact basis expansions ({elapsed:.3f}s)")


def test_a4_kink_framing_factors():
    start = time.perf_counter()
    base = run_pipeline(parse_diagram(doc_text(UNKNOT_DOC)))
    pos = run_pipeline(parse_diagram(doc_text(KINK_POS_DOC)))
    neg = run_pipeline(parse_diagram(doc_text(KINK_NEG_DOC)))
    assert pos == base.scaled(LaurentPoly.monomial(3, -1))
    assert neg == base.scaled(LaurentPoly.monomial(-3, -1))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nA4 PASS: one kink multiplies the unknot value by -t^3 or -t^-3 per its sign ({elapsed:.3f}s)")


def test_a5_sorting_and_classification_total():
    start = time.perf_counter()
    for seed in range(500):
        d = random_diagram(seed, max_components=2, max_self_crossings=3)
        # any unsorted terminal, stuck monitor, or unclassifiable curve
        # raises out of the pipeline
        run_pipeline(d)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nA5 PASS: 500 random diagrams sort fully and classify with no monitor trips ({elapsed:.1f}s)")


def test_a6_confluence_over_resolution_orders():
    start = time.perf_counter()
    for seed in range(200):
        d = random_diagram_with_crossings(seed, 2, 4)
        assert check_confluence(d) is None, f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nA6 PASS: 200 diagrams give identical values under every resolution order ({elapsed:.1f}s)")


def test_a7_encoding_invariance():
    start = time.perf_counter()
    for seed in range(200):
        d = random_diagram(seed, max_components=2, max_self_crossings=3)
        assert check_encoding_invariance(d) is None, f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nA7 PASS: rotation, reversal, height relabeling, and component order never change the value ({elapsed:.1f}s)")


def test_a8_dedup_soundness_and_performance():
    # the memoized walk against the naive reference: every smoothing and
    # every sort step, merging only exactly equal diagrams between
    # rounds; no canonical key, no memo, no layer split
    for seed in range(200):
        d = random_diagram(seed, max_components=2, max_self_crossings=3)
        naive = sort_expression(resolve_all([Term(coeff=LaurentPoly.one(), diagram=d)]))
        assert run_pipeline(d) == evaluate(naive), f"seed {seed}"

    big = random_diagram_with_crossings(11, 8, 8)
    start = time.perf_counter()
    plain = run_pipeline(big)
    plain_time = time.perf_counter() - start
    assert plain_time < 5.0
    traced = run_pipeline(big, emit=[].append, max_steps=10_000_000)
    assert traced.text() == plain.text()
    print(
        "\nA8 PASS: the memoized walk matches the naive reference on 200 diagrams; "
        f"8-crossing pipeline in {plain_time:.2f}s with traced output byte-identical"
    )
