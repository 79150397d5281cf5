"""Map sorted crossing-free terms onto the basis and evaluate expressions.

A sorted component winds around each base strand a net number of times
readable straight off its front passes: each front pass counts +1 going
left-to-right and -1 going right-to-left.  Winding (+-1, 0) is the loop
around strand 1 (x), (0, +-1) the loop around strand 2 (z), equal
windings (1,1)/(-1,-1) the loop around both (y), and (0,0) a trivial
loop (unknot).  Anything else cannot come from an embedded sorted
curve, so it is reported as an internal failure rather than guessed at.

Trivial loops are removed by multiplying the coefficient with the loop
value delta; two conventions are kept (see ``DELTA_MODES``) plus a
symbolic mode that leaves the unknot power in the monomial.
"""

from __future__ import annotations

from typing import Optional

from .diagram import (
    Component,
    Expression,
    SelfPass,
    SkeinDiagram,
    StrandPass,
    Term,
    canonical_form,
    serialize_diagram,
)
from .errors import InternalInvariantError
from .laurent import BasisMonomial, LaurentPoly, SkeinPolynomial

__all__ = [
    "DELTA_STANDARD",
    "DELTA_POSITIVE",
    "DELTA_MODES",
    "winding",
    "classify_component",
    "term_to_monomial",
    "evaluate",
    "recognize_aux",
    "pluck_aux",
    "substitute_aux",
    "AUX_NEG_EXPANSION",
    "AUX_POS_EXPANSION",
]

# conventional loop value; locked as the default by the twist identity
DELTA_STANDARD = LaurentPoly(((-2, -1), (2, -1)))
# sign-free variant kept selectable for comparison runs
DELTA_POSITIVE = LaurentPoly(((-2, 1), (2, 1)))

DELTA_MODES = {"standard": DELTA_STANDARD, "positive": DELTA_POSITIVE}


def winding(c: Component) -> tuple[int, int]:
    """Net signed front-pass count around each strand."""
    w = {1: 0, 2: 0}
    for e, _h, q in c.triples():
        if isinstance(e, SelfPass):
            raise InternalInvariantError("winding on an unresolved component")
        if e.strand == 1 and q not in (3, 4) or e.strand == 2 and q not in (4, 5):
            raise InternalInvariantError(f"invalid orientation code {q}")
        if e.over:
            if e.strand == 1:
                w[1] += 1 if q == 3 else -1
            else:
                w[2] += 1 if q == 4 else -1
    return w[1], w[2]


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
    """Classify every component of a sorted term."""
    if t.diagram.sign_pairs:
        raise InternalInvariantError("classification before full resolution")
    counts = {"x": 0, "y": 0, "z": 0, "unknot": 0}
    for c in t.diagram.components:
        counts[classify_component(c)] += 1
    mono = BasisMonomial(
        x=counts["x"],
        y=counts["y"],
        z=counts["z"],
        unknot=counts["unknot"],
        aux_neg=t.aux_neg,
        aux_pos=t.aux_pos,
    )
    return mono, t.coeff


def evaluate(e: Expression, delta_mode: str = "standard") -> SkeinPolynomial:
    """Accumulate an expression of sorted terms into a polynomial.

    Non-symbolic modes eliminate every trivial loop by folding delta^d
    into the coefficient.
    """
    if delta_mode != "symbolic" and delta_mode not in DELTA_MODES:
        raise ValueError(f"unknown delta mode {delta_mode!r}")
    acc = SkeinPolynomial.zero()
    for t in e:
        mono, coeff = term_to_monomial(t)
        if delta_mode != "symbolic" and mono.unknot:
            delta = DELTA_MODES[delta_mode]
            for _ in range(mono.unknot):
                coeff = coeff * delta
            mono = BasisMonomial(
                mono.x, mono.y, mono.z, 0, mono.aux_neg, mono.aux_pos
            )
        acc = acc.accumulate(mono, coeff)
    return acc


# ---------------------------------------------------------------------------
# auxiliary curve fast path

def _template(tokens: list[tuple[int, bool]], heights: list[int], orients: list[int]) -> Component:
    ents = [StrandPass(s, o) for s, o in tokens]
    return Component.make(ents, heights, orients)

# the hooked double loop crossing front-then-behind each strand in turn;
# expands with negative twist powers
_AUX_NEG = _template(
    [(1, True), (1, False), (2, True), (2, False)], [2, 1, 3, 4], [4, 3, 4, 5]
)
# its partner threaded the other way; positive twist powers
_AUX_POS = _template(
    [(1, True), (2, False), (2, True), (1, False)], [1, 3, 4, 2], [3, 4, 5, 4]
)


def _component_key(c: Component) -> str:
    return serialize_diagram(canonical_form(SkeinDiagram.make([c], {})))


# the canonical form reads a crossing-free component in either direction,
# so one key per template also matches the template traversed backwards
_AUX_KEYS = {_component_key(_AUX_NEG): "neg", _component_key(_AUX_POS): "pos"}

_XZ = BasisMonomial(x=1, z=1)
_Y = BasisMonomial(y=1)

AUX_NEG_EXPANSION = SkeinPolynomial(
    {_XZ: LaurentPoly.monomial(-2, -1), _Y: LaurentPoly.monomial(-4, -1)}
)
AUX_POS_EXPANSION = SkeinPolynomial(
    {_Y: LaurentPoly.monomial(4, -1), _XZ: LaurentPoly.monomial(2, -1)}
)


def recognize_aux(c: Component) -> Optional[str]:
    """Name the auxiliary curve this component draws, if it is one."""
    if len(c) != 4 or any(isinstance(e, SelfPass) for e in c.entries):
        return None
    return _AUX_KEYS.get(_component_key(c))


def pluck_aux(t: Term) -> Term:
    """Move recognized auxiliary components out of the diagram into counters.

    Sound because a crossing-free diagram draws disjoint curves, so a
    recognized component contributes exactly its known expansion as a
    factor no matter what the rest of the term does.
    """
    if t.diagram.sign_pairs:
        return t
    keep, neg, pos = [], 0, 0
    for c in t.diagram.components:
        kind = recognize_aux(c)
        if kind == "neg":
            neg += 1
        elif kind == "pos":
            pos += 1
        else:
            keep.append(c)
    if not neg and not pos:
        return t
    return Term(
        coeff=t.coeff,
        diagram=SkeinDiagram.make(keep, {}),
        aux_neg=t.aux_neg + neg,
        aux_pos=t.aux_pos + pos,
    )


def substitute_aux(p: SkeinPolynomial) -> SkeinPolynomial:
    """Expand every auxiliary factor; a plain polynomial passes through."""
    out = SkeinPolynomial.zero()
    for mono, coeff in p.items():
        if not mono.aux_neg and not mono.aux_pos:
            out = out.accumulate(mono, coeff)
            continue
        base = SkeinPolynomial(
            {BasisMonomial(mono.x, mono.y, mono.z, mono.unknot): coeff}
        )
        for _ in range(mono.aux_neg):
            base = base * AUX_NEG_EXPANSION
        for _ in range(mono.aux_pos):
            base = base * AUX_POS_EXPANSION
        out = out + base
    return out
