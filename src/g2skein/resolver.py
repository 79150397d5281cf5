"""Crossing resolution: replace a term by the two smoothings of one crossing.

With the two branches of the crossing at positions j1 < j2 (both dropped
by every smoothing), the paper's four array operators are slices of a
component's two parallel tuples, ``codes`` and ``heights``; written for
one array ``c`` they are

* split:  ``c[j1+1:j2]`` and ``c[:j1] + c[j2+1:]`` - the section between
  the branches becomes a cycle of its own,
* reverse: ``c[:j1] + reversed(c[j1+1:j2]) + c[j2+1:]`` - one cycle, the
  section traversed backwards (``diagram.reverse_component``),
* merge forward: ``cx[:j1] + cy[j2+1:] + cy[:j2] + cx[j1+1:]`` - the
  second cycle spliced into the first in its own direction,
* merge back: the same with the second cycle's part reversed as a whole.

When both branches sit on one component the smoothings are the split
and the reverse; when they sit on two components, the two merges.  A
positive crossing puts the coefficient t on the split/forward child and
1/t on the reversed child; a negative crossing swaps the two.  A reversed
section changes the sign of every crossing with exactly one branch in
it; a crossing with both branches or none inside keeps its sign.

``smoothings`` is the one smoothing core: on bare components and a sign
table it returns each child as (components, signs, exponent of t), so
the sorter's slide smooths its crossings in a row and builds a term only
at the end.  ``resolve_crossing`` wraps it for one crossing of a term.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .diagram import Component, SkeinDiagram, Term, crossing_code, reverse_component
from .errors import InternalInvariantError

__all__ = ["locate_crossing", "smoothings", "resolve_crossing", "update_signs_on_reversal"]


def _branch_spots(
    comps: Sequence[Component], cid: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    hits = []
    for li, c in enumerate(comps):
        for k in (crossing_code(cid, True), crossing_code(cid, False)):
            n = c.codes.count(k)
            if n:  # a repeated branch shows as a third hit
                hits += [(li, c.codes.index(k))] * n
    if len(hits) != 2:
        raise InternalInvariantError(
            f"crossing {cid} has {len(hits)} branches, expected 2"
        )
    return min(hits), max(hits)


def locate_crossing(d: SkeinDiagram, cid: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Positions of the two branches as ((l1,j1),(l2,j2)), sorted."""
    return _branch_spots(d.components, cid)


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


def smoothings(
    comps: tuple[Component, ...], signs: Mapping[int, int], cid: int
) -> tuple[tuple[tuple, dict, int], tuple[tuple, dict, int]]:
    """Smooth crossing ``cid``: the (components, signs, exponent) of the
    split-or-forward child, then of the reversed child."""
    (l1, j1), (l2, j2) = _branch_spots(comps, cid)
    k, h = comps[l1].codes, comps[l1].heights
    if l1 == l2:
        before, after, rest = comps[:l1], comps[l1 + 1 :], j2 + 1
        section = Component(k[j1 + 1 : j2], h[j1 + 1 : j2])
    else:
        ky, hy = comps[l2].codes, comps[l2].heights
        before, after, rest = comps[:l1], comps[l1 + 1 : l2] + comps[l2 + 1 :], j1 + 1
        section = Component(ky[j2 + 1 :] + ky[:j2], hy[j2 + 1 :] + hy[:j2])

    def spliced(part: Component) -> Component:
        # c[:j1] + part + c[rest:], built once from the tuples
        return Component(k[:j1] + part.codes + k[rest:], h[:j1] + part.heights + h[rest:])

    if l1 == l2:  # split: the section, and the cycle without it
        first = before + (section, spliced(Component((), ()))) + after
    else:  # merge forward
        first = before + (spliced(section),) + after
    second = before + (spliced(reverse_component(section)),) + after
    rest_signs = dict(signs)
    sign = rest_signs.pop(cid)
    flipped = update_signs_on_reversal(rest_signs, section.codes) if rest_signs else rest_signs
    return (first, rest_signs, sign), (second, flipped, -sign)


def resolve_crossing(t: Term, cid: int) -> tuple[Term, Term]:
    """Smooth one crossing; returns (split-or-forward, reversed) children."""
    signs = t.diagram.signs()
    if cid not in signs:
        raise InternalInvariantError(f"no such crossing {cid}")
    return tuple(
        Term(t.coeff.shift(exp), SkeinDiagram.make(comps, child_signs))
        for comps, child_signs, exp in smoothings(t.diagram.components, signs, cid)
    )

