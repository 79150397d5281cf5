"""Crossing resolution: the two smoothings of one crossing of a diagram.

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

Every entry point acts on the lowest crossing, the first sign pair: the
bracket does not depend on the order of smoothing (Kauffman, Topology
26, 1987), and renumbering (``diagram.renumber_crossings``) picks
another.  ``smoothings`` is the one smoothing core: on bare components
and sorted sign pairs it returns each child as (components, sign pairs,
exponent of t), so the sorter's slide smooths its crossings in a row
and builds a term only at the end.  ``resolve_crossing`` wraps it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .diagram import Component, SkeinDiagram, Term, crossing_code, reverse_component
from .errors import InternalInvariantError
from .laurent import LaurentPoly

__all__ = ["smoothings", "resolve_crossing", "update_signs_on_reversal"]


def update_signs_on_reversal(
    sign_pairs: Sequence[tuple[int, int]], reversed_codes: Iterable[int]
) -> tuple[tuple[int, int], ...]:
    """Negate the sign of every crossing with exactly one branch reversed."""
    inside: dict[int, int] = {}
    for k in reversed_codes:
        if k < 0:
            inside[-k >> 1] = inside.get(-k >> 1, 0) + 1
    return tuple([(cid, -s if inside.get(cid, 0) == 1 else s) for cid, s in sign_pairs])


def smoothings(
    comps: tuple[Component, ...], sign_pairs: tuple[tuple[int, int], ...]
) -> tuple[tuple[tuple, tuple, int], tuple[tuple, tuple, int]]:
    """Smooth the lowest crossing, ``sign_pairs[0]``: the (components, sign
    pairs, exponent) of the split-or-forward child, then of the reversed
    child."""
    if not sign_pairs:
        raise InternalInvariantError("no crossing to smooth")
    (cid, sign), others = sign_pairs[0], sign_pairs[1:]
    hits = []
    for li, c in enumerate(comps):
        for code in (crossing_code(cid, True), crossing_code(cid, False)):
            n = c.codes.count(code)
            if n:  # a repeated branch shows as a third hit
                hits += [(li, c.codes.index(code))] * n
    if len(hits) != 2:
        raise InternalInvariantError(f"crossing {cid} has {len(hits)} branches, expected 2")
    (l1, j1), (l2, j2) = min(hits), max(hits)
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
    flipped = update_signs_on_reversal(others, section.codes) if others else others
    return (first, others, sign), (second, flipped, -sign)


def resolve_crossing(d: SkeinDiagram) -> tuple[Term, Term]:
    """Smooth the lowest crossing; returns (split-or-forward, reversed)
    children, each with its own coefficient t^(+-1)."""
    return tuple(
        Term(LaurentPoly.monomial(exp), SkeinDiagram(comps, pairs))
        for comps, pairs, exp in smoothings(d.components, d.sign_pairs)
    )
