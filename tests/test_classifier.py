"""Winding numbers, loop classification, and folding trivial loops."""

import json

import pytest

from g2skein import Term, parse_diagram
from g2skein import classifier
from g2skein.diagram import Component, pass_code
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


def test_classify_basis_loops():
    assert classifier.classify_component(comp(["O1", "U1"], [1, 2], [3, 4])) == "x"
    assert classifier.classify_component(comp(["O2", "U2"], [1, 2], [4, 5])) == "z"
    assert classifier.classify_component(comp(["O1", "O2", "U2", "U1"], [1, 3, 4, 2], [3, 4, 5, 4])) == "y"
    # passes in front twice with winding zero: contractible
    assert classifier.classify_component(comp(["O1", "O1"], [1, 2], [3, 4])) == "unknot"
    assert classifier.classify_component(comp([], [], [])) == "unknot"


def test_classify_rejects_impossible_sorted_curves():
    # both break the region chain, so they are built past parse_diagram
    for e, i, q in (
        (["O1", "O2", "U2", "U1"], (1, 3, 4, 2), [3, 5, 4, 4]),
        (["O1", "O1", "U1", "U1"], (1, 2, 3, 4), [3, 3, 4, 4]),
    ):
        c = Component(tuple(pass_code(t, d) for t, d in zip(e, q)), i)
        with pytest.raises(InternalInvariantError, match="non-classifiable"):
            classifier.classify_component(c)


def test_winding_refuses_unresolved_components():
    with pytest.raises(InternalInvariantError):
        classifier.winding(comp(["X+1", "X-1"], [1, 1], [0, 0], {"1": 1}))


def test_term_to_monomial():
    d = diagram((["O1", "U1"], [1, 2], [3, 4]), (["O2", "U2"], [3, 4], [4, 5]))
    mono, co = classifier.term_to_monomial(Term(coeff=LaurentPoly.monomial(-2, -1), diagram=d))
    assert mono == BasisMonomial(x=1, z=1)
    assert co == LaurentPoly.monomial(-2, -1)

    empty = diagram(([], [], []))
    mono2, co2 = classifier.term_to_monomial(Term(coeff=LaurentPoly.one(), diagram=empty))
    assert mono2 == BasisMonomial()
    assert co2 == classifier.DELTA

    # an x loop beside two trivial loops, one of them passing a strand
    mixed = diagram((["O1", "U1"], [1, 2], [3, 4]), ([], [], []), (["O1", "O1"], [3, 4], [3, 4]))
    mono3, co3 = classifier.term_to_monomial(Term(coeff=LaurentPoly.monomial(1), diagram=mixed))
    assert mono3 == BasisMonomial(x=1)
    assert co3 == LaurentPoly.monomial(1) * classifier.DELTA * classifier.DELTA


def test_evaluate_folds_unknots_by_delta_mode():
    t = Term(coeff=LaurentPoly.one(), diagram=diagram(([], [], [])))
    assert classifier.evaluate([t]).text() == "(-1*t^-2 + -1*t^2)"
    # k trivial loops fold to DELTA^k in the coefficient of the empty monomial
    power = LaurentPoly.one()
    for k in range(4):
        loops = Term(coeff=LaurentPoly.one(), diagram=diagram(*[([], [], [])] * k))
        assert classifier.evaluate([loops]) == SkeinPolynomial({BasisMonomial(): power})
        power = power * classifier.DELTA


def test_evaluate_empty_expression_is_zero():
    assert classifier.evaluate([]) == SkeinPolynomial.zero()


def test_evaluate_merges_terms():
    x = diagram((["O1", "U1"], [1, 2], [3, 4]))
    e = [
        Term(coeff=LaurentPoly.monomial(-2, -1), diagram=x),
        Term(coeff=LaurentPoly.monomial(-2, 1), diagram=x),
    ]
    assert classifier.evaluate(e).is_zero()
