"""Winding numbers, loop classification, and folding trivial loops."""

import json

import pytest

from g2skein import Term, parse_diagram
from g2skein import classifier
from g2skein.diagram import Component, SkeinDiagram, pass_code, reverse_component
from g2skein.errors import InternalInvariantError
from g2skein.laurent import BasisMonomial, LaurentPoly, SkeinPolynomial


def comp(e, i, q, u=None):
    doc = {"components": [{"E": e, "I": i, "Q": q}], "U": u or {}}
    return parse_diagram(json.dumps(doc)).components[0]


def diagram(*comps):
    doc = {"components": [{"E": e, "I": i, "Q": q} for e, i, q in comps], "U": {}}
    return parse_diagram(json.dumps(doc))


def test_winding_counts_front_passes_only():
    assert classifier.winding(comp(["O1", "U1"], [1, 2], [3, 4])) == (1, 0)
    assert classifier.winding(comp([], [], [])) == (0, 0)
    assert classifier.winding(comp(["O1", "O2", "U2", "U1"], [1, 3, 4, 2], [3, 4, 5, 4])) == (1, 1)
    # direction decides the sign
    assert classifier.winding(comp(["O2", "U2"], [1, 2], [5, 4])) == (0, -1)


def loop_value(c, coeff=None):
    """The value of one sorted component as a one-term expression."""
    return classifier.evaluate([Term(coeff or LaurentPoly.one(), SkeinDiagram((c,), ()))])


def test_classify_basis_loops():
    one = LaurentPoly.one()
    assert loop_value(comp(["O1", "U1"], [1, 2], [3, 4])) == SkeinPolynomial({BasisMonomial(x=1): one})
    # both directions of a loop read as the same basis loop
    assert loop_value(comp(["U1", "O1"], [2, 1], [3, 4])) == SkeinPolynomial({BasisMonomial(x=1): one})
    assert loop_value(comp(["O2", "U2"], [1, 2], [4, 5])) == SkeinPolynomial({BasisMonomial(z=1): one})
    assert loop_value(comp(["O2", "U2"], [1, 2], [5, 4])) == SkeinPolynomial({BasisMonomial(z=1): one})
    y = comp(["O1", "O2", "U2", "U1"], [1, 3, 4, 2], [3, 4, 5, 4])
    assert loop_value(y) == SkeinPolynomial({BasisMonomial(y=1): one})
    assert loop_value(reverse_component(y)) == SkeinPolynomial({BasisMonomial(y=1): one})
    # passes in front twice with winding zero: contractible
    unknot = SkeinPolynomial({BasisMonomial(): classifier.DELTA})
    assert loop_value(comp(["O1", "O1"], [1, 2], [3, 4])) == unknot
    assert loop_value(comp([], [], [])) == unknot


def test_classify_rejects_impossible_sorted_curves():
    # both break the region chain, so they are built past parse_diagram
    for e, i, q in (
        (["O1", "O2", "U2", "U1"], (1, 3, 4, 2), [3, 5, 4, 4]),
        (["O1", "O1", "U1", "U1"], (1, 2, 3, 4), [3, 3, 4, 4]),
    ):
        c = Component(tuple(pass_code(t, d) for t, d in zip(e, q)), i)
        with pytest.raises(InternalInvariantError, match="non-classifiable"):
            loop_value(c)


def test_evaluate_refuses_unresolved_terms():
    d = parse_diagram(json.dumps(
        {"components": [{"E": ["X+1", "X-1"], "I": [1, 1], "Q": [0, 0]}], "U": {"1": 1}}
    ))
    with pytest.raises(InternalInvariantError, match="before full resolution"):
        classifier.evaluate([Term(LaurentPoly.one(), d)])


def test_winding_refuses_unresolved_components():
    with pytest.raises(InternalInvariantError):
        classifier.winding(comp(["X+1", "X-1"], [1, 1], [0, 0], {"1": 1}))


def test_evaluate_reads_the_monomial_of_a_term():
    d = diagram((["O1", "U1"], [1, 2], [3, 4]), (["O2", "U2"], [3, 4], [4, 5]))
    value = classifier.evaluate([Term(coeff=LaurentPoly.monomial(-2, -1), diagram=d)])
    assert value == SkeinPolynomial({BasisMonomial(x=1, z=1): LaurentPoly.monomial(-2, -1)})

    empty = diagram(([], [], []))
    value = classifier.evaluate([Term(coeff=LaurentPoly.one(), diagram=empty)])
    assert value == SkeinPolynomial({BasisMonomial(): classifier.DELTA})

    # an x loop beside two trivial loops, one of them passing a strand
    mixed = diagram((["O1", "U1"], [1, 2], [3, 4]), ([], [], []), (["O1", "O1"], [3, 4], [3, 4]))
    value = classifier.evaluate([Term(coeff=LaurentPoly.monomial(1), diagram=mixed)])
    coeff = LaurentPoly.monomial(1) * classifier.DELTA * classifier.DELTA
    assert value == SkeinPolynomial({BasisMonomial(x=1): coeff})


def test_evaluate_folds_unknots_into_delta():
    t = Term(coeff=LaurentPoly.one(), diagram=diagram(([], [], [])))
    assert classifier.evaluate([t]).text() == "(-1*t^-2 + -1*t^2)"
    # k trivial loops fold to DELTA^k in the coefficient of the empty monomial
    power = LaurentPoly.one()
    for k in range(4):
        loops = Term(coeff=LaurentPoly.one(), diagram=diagram(*[([], [], [])] * k))
        assert classifier.evaluate([loops]) == SkeinPolynomial({BasisMonomial(): power})
        power = power * classifier.DELTA


def test_evaluate_empty_expression_is_zero():
    assert classifier.evaluate([]) == SkeinPolynomial()


def test_evaluate_merges_terms():
    x = diagram((["O1", "U1"], [1, 2], [3, 4]))
    e = [
        Term(coeff=LaurentPoly.monomial(-2, -1), diagram=x),
        Term(coeff=LaurentPoly.monomial(-2, 1), diagram=x),
    ]
    assert classifier.evaluate(e) == SkeinPolynomial()
