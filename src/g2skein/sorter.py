"""Strand sorting: drive every term into the basis-readable form.

A crossing-free term is "sorted" on a strand when every front pass
sits below every behind pass there.  One scan of a diagram,
``sort_state``, cached on it, gives its strand passes, its inversions
and the slide to make next; the walk's leaf test, the sort rule and the
progress monitor all read that one state.  Sorting repeatedly picks the
lowest offending (front, behind) height pair, slides the two passes
past each other (swapping their heights), and pays for the slide by
inserting the self-crossings the move creates, which are resolved on
the spot.  Two adjacent passes cost one crossing (a twist); separated
passes cost a pair of opposite crossings.  A slide is one pass over the
parent's arrays: ``induce_crossings`` finds both passes in one scan and
rebuilds only the touched components, and ``sort_step`` smooths the new
crossings with the resolver's core on bare components
(``resolver.smoothings``), building a term only for each final child.
Each step removes exactly one height inversion from every child, which
is what guarantees termination and what the progress monitor checks.

Strand passes are read off their codes (see ``diagram``): ``k >> 1`` is
0 or 1 for a pass in front of strand 1 or 2 and 2 or 3 for one behind
it, and ``k & 1`` is set when the pass runs right to left.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from typing import Optional

from . import resolver
from .diagram import Component, SkeinDiagram, Term, crossing_code, height_ranks, rotate_component
from .errors import InternalInvariantError
from .laurent import LaurentPoly

__all__ = ["sort_state", "induce_crossings", "sort_step"]


def sort_state(d: SkeinDiagram) -> tuple:
    """``(strand passes, inversions, slide)`` of a diagram, cached on it.

    Inversions are the (front, behind) height pairs in the wrong order,
    both strands pooled across every component.  ``slide`` is ``(strand,
    under height, over height)`` on the first unsorted strand: its first
    front pass above the lowest behind pass, and the highest behind pass
    under that one, which is always its neighbour in height on the strand.
    It is None exactly when there are no inversions.
    """
    state = d._memo.get("sort")
    if state is not None:
        return state
    pools: tuple[list[int], ...] = ([], [], [], [])
    add = [pool.append for pool in pools]
    for c in d.components:
        for k, h in zip(c.codes, c.heights):
            if k >= 0:
                add[k >> 1](h)
    inversions = 0
    slide = None
    for strand in (1, 2):
        over, under = sorted(pools[strand - 1]), sorted(pools[strand + 1])
        for h in over:
            inversions += bisect_left(under, h)
        if slide is None and under:
            k = bisect(over, under[0])
            if k < len(over):
                slide = (strand, under[bisect(under, over[k]) - 1], over[k])
    state = d._memo["sort"] = (sum(map(len, pools)), inversions, slide)
    return state


# ---------------------------------------------------------------------------
# crossing induction

def induce_crossings(t: Term, a: int, c: int) -> Term:
    """Swap the heights of the behind pass at a and front pass at c, and
    insert the self-crossings that pay for the slide.

    Adjacent passes on one component (including across the traversal
    seam) get a single twist crossing, with the term coefficient scaled
    by the twist compensation -t^(-3 sign); everything else gets a
    cancelling crossing pair on the two sides of the strand.  New
    branches carry placeholder height 0; the sign table of the result
    holds exactly the new crossings.  One scan finds both passes, and
    each touched component is rebuilt once per flanked section.
    """
    d = t.diagram
    if d.sign_pairs:
        raise InternalInvariantError("crossing induction on an unresolved term")
    if not a < c:
        raise InternalInvariantError(f"swap pair out of order: {a} >= {c}")
    comps = list(d.components)
    spots = {
        h: (li, x.heights.index(h)) for li, x in enumerate(comps) for h in (a, c) if h in x.heights
    }
    if len(spots) != 2:
        raise InternalInvariantError(f"no strand pass at height {c if a in spots else a}")
    (la, ja), (lc, jc) = spots[a], spots[c]
    ka, kc = comps[la].codes[ja], comps[lc].codes[jc]
    if not ka & 4 or kc & 4:
        raise InternalInvariantError(f"heights {a} and {c} are not a behind and a front pass")
    if (ka ^ kc) & 2:
        raise InternalInvariantError("swap pair spans both strands")

    m = len(comps[la])
    if la == lc and (abs(ja - jc) == 1 or (m > 2 and {ja, jc} == {0, m - 1})):
        if abs(ja - jc) != 1:
            # bring the seam-straddling pair together; the start point of
            # the traversal is arbitrary, so this is the same curve
            comps[la] = rotate_component(comps[la], m - 1)
            ja, jc = (ja + 1) % m, (jc + 1) % m
        first = min(ja, jc)
        eps = 1 if comps[la].codes[first] & 1 else -1
        # (component, start, end, branch before, branch after) of a section
        flanks = [(la, first, first + 2, crossing_code(1, first == jc), crossing_code(1, first != jc))]
        new_pairs = ((1, eps),)
        coeff = t.coeff * LaurentPoly.monomial(-3 * eps, -1)
    else:
        eps1 = 1 if ka & 1 == kc & 1 else -1
        new_pairs = ((1, eps1), (2, -eps1))
        flanks = []
        for li, j, k, over in ((la, ja, ka, False), (lc, jc, kc, True)):
            # going right to left, crossing 2 comes before the pass
            ids = (2, 1) if k & 1 else (1, 2)
            flanks.append((li, j, j + 1, crossing_code(ids[0], over), crossing_code(ids[1], over)))
        coeff = t.coeff

    swap = {a: c, c: a}
    # later sections first, so that earlier positions stay put
    for li, start, end, before, after in sorted(flanks, reverse=True):
        codes, hs = comps[li].codes, comps[li].heights
        comps[li] = Component(
            codes[:start] + (before,) + codes[start:end] + (after,) + codes[end:],
            hs[:start] + (0,) + tuple([swap[h] for h in hs[start:end]]) + (0,) + hs[end:],
        )
    return Term(coeff, SkeinDiagram(tuple(comps), new_pairs))


# ---------------------------------------------------------------------------
# the sorting loop

def sort_step(t: Term) -> Optional[list[Term]]:
    """One slide on the first unsorted strand; None when nothing to do.

    The resolver smooths the induced crossings lowest id first.  A slide
    keeps the set of heights, so the children share the parent's height
    ranks (``diagram.height_ranks``).  The slide swaps two passes that
    are neighbours in height on one strand and smoothing moves no pass,
    so every child must come back with exactly one inversion fewer than
    the parent, otherwise the progress monitor aborts.
    """
    d = t.diagram
    if d.sign_pairs:
        raise InternalInvariantError("sorting requires all crossings resolved")
    inversions, slide = sort_state(d)[1:]
    if slide is None:
        return None

    staged = induce_crossings(t, slide[1], slide[2])
    states = [(staged.diagram.components, staged.diagram.sign_pairs, 0)]
    for _ in staged.diagram.sign_pairs:
        states = [
            (child_comps, child_pairs, exp + shift)
            for comps, pairs, exp in states
            for child_comps, child_pairs, shift in resolver.smoothings(comps, pairs)
        ]
    rank = height_ranks(d)
    children = [
        Term(staged.coeff.shift(exp), SkeinDiagram(comps, (), {"rank": rank}))
        for comps, _pairs, exp in states
    ]

    for child in children:
        found = sort_state(child.diagram)[1]
        if found != inversions - 1:
            raise InternalInvariantError(f"sorting step made no progress: {inversions} -> {found} inversions")
    return children
