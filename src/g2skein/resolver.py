"""Crossing resolution: replace each term by its two smoothings.

Every self-crossing is smoothed two ways.  When both branches sit on
one component the smoothings are a split into two cycles and a
single-cycle rewiring with a reversed section; when they sit on two
components the smoothings merge them, once direction-preserving and
once with the second cycle reversed.  A positive crossing puts the
coefficient t on the split/forward child and 1/t on the reversed child;
a negative crossing swaps the two.
"""

from __future__ import annotations

from typing import Sequence

from . import arrayops
from .diagram import Expression, SelfPass, SkeinDiagram, Term
from .errors import InternalInvariantError

__all__ = ["locate_crossing", "resolve_crossing", "resolve_all"]


def locate_crossing(d: SkeinDiagram, cid: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Positions of the two branches as ((l1,j1),(l2,j2)), sorted."""
    hits = []
    for li, c in enumerate(d.components):
        for j, e in enumerate(c.entries):
            if isinstance(e, SelfPass) and e.crossing == cid:
                hits.append((li, j))
    if len(hits) != 2:
        raise InternalInvariantError(
            f"crossing {cid} has {len(hits)} branches, expected 2"
        )
    hits.sort()
    return hits[0], hits[1]


def resolve_crossing(t: Term, cid: int) -> tuple[Term, Term]:
    """Smooth one crossing; returns (split-or-forward, reversed) children."""
    signs = t.diagram.signs()
    if cid not in signs:
        raise InternalInvariantError(f"no such crossing {cid}")
    sign = signs.pop(cid)
    (l1, j1), (l2, j2) = locate_crossing(t.diagram, cid)
    comps = t.diagram.components

    if l1 == l2:
        c = comps[l1]
        mid, outside = arrayops.split_component(c, j1, j2)
        first_comps = comps[:l1] + (mid, outside) + comps[l1 + 1 :]
        first_signs = signs

        reversed_c = arrayops.reverse_component_section(c, j1, j2)
        second_comps = comps[:l1] + (reversed_c,) + comps[l1 + 1 :]
        second_signs = arrayops.update_signs_on_reversal(
            signs, c.entries[j1 + 1 : j2]
        )
    else:
        cx, cy = comps[l1], comps[l2]
        before = comps[:l1]
        between = comps[l1 + 1 : l2]
        after = comps[l2 + 1 :]
        merged_fwd = arrayops.merge_components_fwd(cx, cy, j1, j2)
        first_comps = before + (merged_fwd,) + between + after
        first_signs = signs

        merged_back = arrayops.merge_components_back(cx, cy, j1, j2)
        second_comps = before + (merged_back,) + between + after
        second_signs = arrayops.update_signs_on_reversal(
            signs, cy.entries[:j2] + cy.entries[j2 + 1 :]
        )

    first = Term(
        coeff=t.coeff.shift(sign),
        diagram=SkeinDiagram.make(first_comps, first_signs),
    )
    second = Term(
        coeff=t.coeff.shift(-sign),
        diagram=SkeinDiagram.make(second_comps, second_signs),
    )
    return first, second


def _next_crossing(signs: dict[int, int], order: Sequence[int] | None) -> int:
    if order:
        for cid in order:
            if cid in signs:
                return cid
    return min(signs)


def resolve_all(e: Expression, order: Sequence[int] | None = None) -> Expression:
    """Resolve every crossing of every term; no deduplication here.

    A term with r crossings contributes exactly 2**r output terms.  By
    default ids are resolved in ascending order; ``order`` overrides
    that for the ids it lists.
    """
    out: list[Term] = []
    stack = list(e)
    while stack:
        t = stack.pop()
        signs = t.diagram.signs()
        if not signs:
            out.append(t)
            continue
        cid = _next_crossing(signs, order)
        stack.extend(resolve_crossing(t, cid))
    out.reverse()
    return out
