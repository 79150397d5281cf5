"""Strand sorting: drive every term into the basis-readable form.

A crossing-free term is "sorted" on a strand when every front pass
sits below every behind pass there.  Sorting repeatedly picks the
lowest offending (front, behind) height pair, slides the two passes
past each other (swapping their heights), and pays for the slide by
inserting the self-crossings the move creates, which are resolved on
the spot.  Two adjacent passes cost one crossing (a twist); separated
passes cost a pair of opposite crossings.  Each step removes exactly
one height inversion from every child, which is what guarantees
termination and what the progress monitor checks.

Strand passes are read off their codes (see ``diagram``): ``k >> 1`` is
0 or 1 for a pass in front of strand 1 or 2 and 2 or 3 for one behind
it, and ``k & 1`` is set when the pass runs right to left.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from dataclasses import replace
from typing import Iterable, NamedTuple, Optional

from . import resolver
from .diagram import Component, SkeinDiagram, Term, crossing_code, rotate_component
from .errors import InternalInvariantError
from .laurent import LaurentPoly

__all__ = [
    "StrandPartition",
    "SwapChoice",
    "partition",
    "is_sorted",
    "is_fully_sorted",
    "inversion_count",
    "induction_decision",
    "next_decision",
    "induce_crossings",
    "sort_step",
]


class StrandPartition(NamedTuple):
    """Heights of front passes (over) and behind passes (under), ascending."""

    over: tuple
    under: tuple


class SwapChoice(NamedTuple):
    under_height: int
    over_height: int


def partition(d: SkeinDiagram, strand: int) -> StrandPartition:
    """Pool pass heights for one strand across every component."""
    cached = d._memo.get(strand)
    if cached is not None:
        return cached
    pools: tuple[list[int], ...] = ([], [], [], [])
    for c in d.components:
        for k, h in zip(c.codes, c.heights):
            if k >= 0:
                pools[k >> 1].append(h)
    # both strands are pooled in one pass; the other is asked for next
    for s in (1, 2):
        over, under = pools[s - 1], pools[s + 1]
        d._memo[s] = StrandPartition(tuple(sorted(over)), tuple(sorted(under)))
    return d._memo[strand]


def is_sorted(d: SkeinDiagram, strand: int) -> bool:
    p = partition(d, strand)
    if not p.over or not p.under:
        return True
    return p.over[-1] < p.under[0]


def is_fully_sorted(d: SkeinDiagram) -> bool:
    return is_sorted(d, 1) and is_sorted(d, 2)


def inversion_count(d: SkeinDiagram) -> int:
    """Number of (front, behind) height pairs in the wrong order, both strands."""
    cached = d._memo.get("inv")
    if cached is not None:
        return cached
    total = 0
    for strand in (1, 2):
        p = partition(d, strand)
        for h in p.over:
            total += bisect_left(p.under, h)
    d._memo["inv"] = total
    return total


def induction_decision(p: StrandPartition) -> Optional[SwapChoice]:
    """Pick the height pair to swap next, or None when already sorted.

    The first front pass above the lowest behind pass is paired with the
    highest behind pass underneath it.  The two passes are always
    height-adjacent on the strand.
    """
    if not p.over or not p.under:
        return None
    k = bisect(p.over, p.under[0])
    if k == len(p.over):
        return None
    c = p.over[k]
    return SwapChoice(under_height=p.under[bisect(p.under, c) - 1], over_height=c)


def next_decision(d: SkeinDiagram) -> Optional[tuple[int, SwapChoice]]:
    """First strand still unsorted and the swap chosen for it, if any."""
    for strand in (1, 2):
        choice = induction_decision(partition(d, strand))
        if choice is not None:
            return strand, choice
    return None


# ---------------------------------------------------------------------------
# crossing induction

def _locate_pass(d: SkeinDiagram, height: int, over: bool) -> tuple[int, int, int]:
    """(component, position, code) of the strand pass at ``height``."""
    for li, c in enumerate(d.components):
        for j, (k, h) in enumerate(zip(c.codes, c.heights)):
            if k >= 0 and h == height:
                if (not k & 4) != over:
                    kind = "front" if over else "behind"
                    raise InternalInvariantError(
                        f"pass at height {height} is not a {kind} pass"
                    )
                return li, j, k
    raise InternalInvariantError(f"no strand pass at height {height}")


def _with_component(d: SkeinDiagram, li: int, c: Component) -> SkeinDiagram:
    comps = d.components[:li] + (c,) + d.components[li + 1 :]
    return SkeinDiagram(comps, d.sign_pairs)


def _swap_heights(d: SkeinDiagram, spot_a: tuple[int, int], spot_b: tuple[int, int]) -> SkeinDiagram:
    (la, ja), (lb, jb) = spot_a, spot_b
    ha = d.components[la].heights[ja]
    hb = d.components[lb].heights[jb]
    comps = list(d.components)
    for (li, j, h) in ((la, ja, hb), (lb, jb, ha)):
        c = comps[li]
        comps[li] = Component(c.codes, c.heights[:j] + (h,) + c.heights[j + 1 :])
    return SkeinDiagram(tuple(comps), d.sign_pairs)


def _insert_branches(c: Component, inserts: Iterable[tuple[int, int]]) -> Component:
    """Insert branch codes at the given slots (computed pre-insertion)."""
    codes, heights = list(c.codes), list(c.heights)
    for pos, k in sorted(inserts, reverse=True):
        codes.insert(pos, k)
        heights.insert(pos, 0)
    return Component(tuple(codes), tuple(heights))


def induce_crossings(t: Term, a: int, c: int) -> Term:
    """Swap the heights of the behind pass at a and front pass at c, and
    insert the self-crossings that pay for the slide.

    Adjacent passes on one component (including across the traversal
    seam) get a single twist crossing, with the term coefficient scaled
    by the twist compensation -t^(-3 sign); everything else gets a
    cancelling crossing pair on the two sides of the strand.  New
    branches carry placeholder height 0; the sign table of the result
    holds exactly the new crossings.
    """
    if t.diagram.sign_pairs:
        raise InternalInvariantError("crossing induction on an unresolved term")
    if not a < c:
        raise InternalInvariantError(f"swap pair out of order: {a} >= {c}")
    d = t.diagram
    la, ja, ka = _locate_pass(d, a, over=False)
    lc, jc, kc = _locate_pass(d, c, over=True)
    if (ka ^ kc) & 2:
        raise InternalInvariantError("swap pair spans both strands")

    d = _swap_heights(d, (la, ja), (lc, jc))

    same = la == lc
    m = len(d.components[la]) if same else 0
    adjacent = same and (abs(ja - jc) == 1 or (m > 2 and {ja, jc} == {0, m - 1}))

    if adjacent:
        if {ja, jc} == {0, m - 1} and abs(ja - jc) != 1:
            # bring the seam-straddling pair together; the start point of
            # the traversal is arbitrary, so this is the same curve
            d = _with_component(d, la, rotate_component(d.components[la], m - 1))
            ja, jc = (0, 1) if ja == m - 1 else (1, 0)
        first, second = (ja, jc) if ja < jc else (jc, ja)
        comp = d.components[la]
        over_first = first == jc
        eps = 1 if comp.codes[first] & 1 else -1
        comp = _insert_branches(comp, [
            (first, crossing_code(1, over_first)),
            (second + 1, crossing_code(1, not over_first)),
        ])
        d = _with_component(d, la, comp)
        new_signs = {1: eps}
        coeff = t.coeff * LaurentPoly.monomial(-3 * eps, -1)
    else:
        rtl_a, rtl_c = ka & 1, kc & 1
        eps1 = 1 if rtl_a == rtl_c else -1
        new_signs = {1: eps1, 2: -eps1}

        def flank(j: int, rtl: int, over: bool) -> list[tuple[int, int]]:
            before_id, after_id = (2, 1) if rtl else (1, 2)
            return [
                (j, crossing_code(before_id, over)),
                (j + 1, crossing_code(after_id, over)),
            ]

        if same:
            comp = _insert_branches(
                d.components[la],
                flank(ja, rtl_a, False) + flank(jc, rtl_c, True),
            )
            d = _with_component(d, la, comp)
        else:
            d = _with_component(
                d, la, _insert_branches(d.components[la], flank(ja, rtl_a, False))
            )
            d = _with_component(
                d, lc, _insert_branches(d.components[lc], flank(jc, rtl_c, True))
            )
        coeff = t.coeff

    out = SkeinDiagram.make(d.components, new_signs)
    return replace(t, coeff=coeff, diagram=out)


# ---------------------------------------------------------------------------
# the sorting loop

def sort_step(
    t: Term,
    decision: Optional[tuple[int, SwapChoice]] = None,
) -> Optional[list[Term]]:
    """One slide on the first unsorted strand; None when nothing to do.

    Every child must come back with strictly fewer inversions (or
    strictly fewer strand passes) than the parent, otherwise the
    progress monitor aborts.  A caller that already ran
    ``next_decision`` can pass the result along.
    """
    d = t.diagram
    if d.sign_pairs:
        raise InternalInvariantError("sorting requires all crossings resolved")
    if decision is None:
        decision = next_decision(d)
    if decision is None:
        return None
    _strand, choice = decision

    before_inv = inversion_count(d)
    before_passes = d.strand_pass_count()

    staged = induce_crossings(t, choice.under_height, choice.over_height)
    pending = [staged]
    for cid in sorted(staged.diagram.signs()):
        nxt = []
        for term in pending:
            nxt.extend(resolver.resolve_crossing(term, cid))
        pending = nxt

    for child in pending:
        if not (
            inversion_count(child.diagram) < before_inv
            or child.diagram.strand_pass_count() < before_passes
        ):
            raise InternalInvariantError("sorting step made no progress")
    return pending
