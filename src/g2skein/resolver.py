"""Crossing resolution: replace a term by the two smoothings of one crossing.

With the two branches of the crossing at positions j1 < j2 (both dropped
by every smoothing), the paper's four array operators are slices of the
components (see ``diagram.Component``):

* split:  ``c[j1+1:j2]`` and ``c[:j1] + c[j2+1:]`` - the section between
  the branches becomes a cycle of its own,
* reverse: ``c[:j1] + reverse_component(c[j1+1:j2]) + c[j2+1:]`` - one
  cycle, the section traversed backwards,
* merge forward: ``cx[:j1] + cy[j2+1:] + cy[:j2] + cx[j1+1:]`` - the
  second cycle spliced into the first in its own direction,
* merge back: the same with the second cycle's part reversed as a whole.

When both branches sit on one component the smoothings are the split
and the reverse; when they sit on two components, the two merges.  A
positive crossing puts the coefficient t on the split/forward child and
1/t on the reversed child; a negative crossing swaps the two.  A reversed
section changes the sign of every crossing with exactly one branch in
it; a crossing with both branches or none inside keeps its sign.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .diagram import SkeinDiagram, Term, crossing_code, reverse_component
from .errors import InternalInvariantError

__all__ = ["locate_crossing", "resolve_crossing", "update_signs_on_reversal"]


def locate_crossing(d: SkeinDiagram, cid: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Positions of the two branches as ((l1,j1),(l2,j2)), sorted."""
    branch_codes = (crossing_code(cid, True), crossing_code(cid, False))
    hits = [
        (li, j)
        for li, c in enumerate(d.components)
        for j, k in enumerate(c.codes)
        if k in branch_codes
    ]
    if len(hits) != 2:
        raise InternalInvariantError(
            f"crossing {cid} has {len(hits)} branches, expected 2"
        )
    return hits[0], hits[1]


def update_signs_on_reversal(
    signs: Mapping[int, int], reversed_codes: Iterable[int]
) -> dict[int, int]:
    """Negate the sign of every crossing with exactly one branch reversed."""
    inside: dict[int, int] = {}
    for k in reversed_codes:
        if k < 0:
            inside[-k >> 1] = inside.get(-k >> 1, 0) + 1
    return {
        cid: -s if inside.get(cid, 0) == 1 else s for cid, s in signs.items()
    }


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
        before, after = comps[:l1], comps[l1 + 1 :]
        mid = c[j1 + 1 : j2]
        first_comps = before + (mid, c[:j1] + c[j2 + 1 :]) + after
        second_comps = before + (c[:j1] + reverse_component(mid) + c[j2 + 1 :],) + after
        reversed_codes = mid.codes
    else:
        cx, cy = comps[l1], comps[l2]
        before, after = comps[:l1], comps[l1 + 1 : l2] + comps[l2 + 1 :]
        y_part = cy[j2 + 1 :] + cy[:j2]
        first_comps = before + (cx[:j1] + y_part + cx[j1 + 1 :],) + after
        second_comps = before + (cx[:j1] + reverse_component(y_part) + cx[j1 + 1 :],) + after
        reversed_codes = y_part.codes

    first = Term(
        coeff=t.coeff.shift(sign),
        diagram=SkeinDiagram.make(first_comps, signs),
    )
    second = Term(
        coeff=t.coeff.shift(-sign),
        diagram=SkeinDiagram.make(second_comps, update_signs_on_reversal(signs, reversed_codes)),
    )
    return first, second


def _next_crossing(signs: dict[int, int], order: Sequence[int] | None) -> int:
    """The first id of ``order`` still present, else the lowest id."""
    if order:
        for cid in order:
            if cid in signs:
                return cid
    return min(signs)
