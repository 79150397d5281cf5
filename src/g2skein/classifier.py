"""Map sorted crossing-free terms onto the basis and evaluate expressions.

A sorted component winds around each base strand a net number of times
readable straight off the codes of its front passes: each counts +1
going left-to-right and -1 going right-to-left.  Winding (+-1, 0) is
the loop around strand 1 (x), (0, +-1) the loop around strand 2 (z),
equal windings (1,1)/(-1,-1) the loop around both (y), and (0,0) a
trivial loop (unknot).  Anything else cannot come from an embedded
sorted curve, so it is reported as an internal failure rather than
guessed at.

Trivial loops are removed by multiplying the coefficient with the loop
value ``DELTA`` = -t^2 - t^-2 of the Kauffman bracket.  It is the only
loop value: the sorter's twist compensation -t^(+-3) equals the kink
factor t^(+-1)*DELTA + t^(-+1) for this value alone, so with any other
the output would not be a value of the curve.
"""

from __future__ import annotations

from .diagram import Component, Expression, Term
from .errors import InternalInvariantError
from .laurent import BasisMonomial, LaurentPoly, SkeinPolynomial

__all__ = [
    "DELTA",
    "winding",
    "classify_component",
    "term_to_monomial",
    "evaluate",
]

# the trivial loop's value; locked by the twist identity
DELTA = LaurentPoly(((-2, -1), (2, -1)))


def winding(c: Component) -> tuple[int, int]:
    """Net signed front-pass count around each strand."""
    w = [0, 0]
    for k in c.codes:
        if k < 0:
            raise InternalInvariantError("winding on an unresolved component")
        if not k & 4:  # a front pass; bit 1 names the strand, bit 0 the direction
            w[k >> 1] += -1 if k & 1 else 1
    return w[0], w[1]


def classify_component(c: Component) -> str:
    w1, w2 = winding(c)
    if (w1, w2) == (0, 0):
        return "unknot"
    if w2 == 0 and w1 in (1, -1):
        return "x"
    if w1 == 0 and w2 in (1, -1):
        return "z"
    if (w1, w2) in ((1, 1), (-1, -1)):
        return "y"
    raise InternalInvariantError(
        f"non-classifiable sorted curve with winding ({w1}, {w2})"
    )


def term_to_monomial(t: Term) -> tuple[BasisMonomial, LaurentPoly]:
    """Classify every component of a sorted term; each trivial loop is
    folded into the coefficient as a factor ``DELTA``."""
    if t.diagram.sign_pairs:
        raise InternalInvariantError("classification before full resolution")
    counts = {"x": 0, "y": 0, "z": 0, "unknot": 0}
    for c in t.diagram.components:
        counts[classify_component(c)] += 1
    coeff = t.coeff
    for _ in range(counts["unknot"]):
        coeff = coeff * DELTA
    return BasisMonomial(x=counts["x"], y=counts["y"], z=counts["z"]), coeff


def evaluate(e: Expression) -> SkeinPolynomial:
    """Sum an expression of sorted terms into a polynomial."""
    sums: dict = {}
    for t in e:
        mono, coeff = term_to_monomial(t)
        acc = sums.setdefault(mono, {})
        for exp, c in coeff.terms:
            acc[exp] = acc.get(exp, 0) + c
    return SkeinPolynomial.collect(sums)
