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

from .diagram import Component, Term
from .errors import InternalInvariantError
from .laurent import BasisMonomial, LaurentPoly, SkeinPolynomial

__all__ = ["DELTA", "winding", "evaluate"]

# the trivial loop's value; locked by the twist identity
DELTA = LaurentPoly(((-2, -1), (2, -1)))

# the basis loop of each nontrivial winding, as an index into the powers
# of (x, y, z); winding (0, 0) is a trivial loop and folds into DELTA
_BASIS_LOOP = {(1, 0): 0, (-1, 0): 0, (1, 1): 1, (-1, -1): 1, (0, 1): 2, (0, -1): 2}


def winding(c: Component) -> tuple[int, int]:
    """Net signed front-pass count around each strand."""
    w = [0, 0]
    for k in c.codes:
        if k < 0:
            raise InternalInvariantError("winding on an unresolved component")
        if not k & 4:  # a front pass; bit 1 names the strand, bit 0 the direction
            w[k >> 1] += -1 if k & 1 else 1
    return w[0], w[1]


def evaluate(e: list[Term]) -> SkeinPolynomial:
    """Sum an expression of sorted terms into a polynomial: each component
    is a basis loop, or a trivial loop folded into the coefficient as a
    factor ``DELTA``."""
    sums: dict = {}
    for t in e:
        if t.diagram.sign_pairs:
            raise InternalInvariantError("classification before full resolution")
        powers = [0, 0, 0]
        coeff = t.coeff
        for c in t.diagram.components:
            w = winding(c)
            if w == (0, 0):
                coeff = coeff * DELTA
            elif w in _BASIS_LOOP:
                powers[_BASIS_LOOP[w]] += 1
            else:
                raise InternalInvariantError(f"non-classifiable sorted curve with winding {w}")
        acc = sums.setdefault(BasisMonomial(*powers), {})
        for exp, c in coeff.terms:
            acc[exp] = acc.get(exp, 0) + c
    return SkeinPolynomial.collect(sums)
