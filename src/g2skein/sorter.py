"""Strand sorting: drive every diagram into the basis-readable form.

A crossing-free diagram is "sorted" on a strand when every front pass
sits below every behind pass there.  The sorter reads a diagram's
passes from one table, ``diagram.strand_passes``: each strand's passes
bottom to top.  One sweep of it, ``sort_state``, cached on the diagram,
gives its inversions and the slide to make next; the walk's leaf test,
the sort rule and the progress monitor all read that one state.  A
slide takes the lowest behind pass with a front pass directly above it
on the first unsorted strand, swaps the two passes' heights, and pays
for the move by inserting the self-crossings it creates, which are
resolved on the spot.  Two passes adjacent on one component cost one
crossing (a twist); any other pair costs two opposite crossings.  A
slide is one pass over the parent's arrays: ``induce_crossings`` looks
both passes up in the table and rebuilds only the touched components,
and ``sort_step`` smooths the new crossings with the resolver's core on
bare components (``resolver.smoothings``), building a term only for
each final child.  Each step removes exactly one height inversion from
every child, which is what guarantees termination and what the
progress monitor checks, on a table built from the child's own arrays.

Strand passes are read off their codes (see ``diagram``): ``k & 4`` is
set for a pass behind its strand, ``k & 2`` for one on strand 2, and
``k & 1`` when the pass runs right to left.
"""

from __future__ import annotations

from . import resolver
from .diagram import Component, SkeinDiagram, Term, crossing_code, height_ranks, rotate_component, strand_passes
from .errors import InternalInvariantError
from .laurent import LaurentPoly

__all__ = ["sort_state", "induce_crossings", "sort_step"]


def sort_state(d: SkeinDiagram) -> tuple:
    """``(inversions, slide)`` of a diagram, cached on it, from one
    bottom-up sweep of each strand's passes (``strand_passes``).

    Inversions are the (front, behind) pass pairs on one strand with the
    behind pass lower, both strands counted.  ``slide`` is ``(strand,
    under height, over height)`` on the first unsorted strand: its lowest
    behind pass with a front pass directly above it, and that front
    pass; None exactly when there are no inversions.
    """
    state = d._memo.get("sort")
    if state is not None:
        return state
    inversions = 0
    slide = None
    for strand, passes in enumerate(strand_passes(d), 1):
        behind = 0
        for i, (h, _li, _j, k) in enumerate(passes):
            if k & 4:
                behind += 1
            elif behind:
                inversions += behind
                if slide is None and passes[i - 1][3] & 4:
                    slide = (strand, passes[i - 1][0], h)
    state = d._memo["sort"] = (inversions, slide)
    return state


# ---------------------------------------------------------------------------
# crossing induction

def induce_crossings(d: SkeinDiagram, a: int, c: int) -> Term:
    """Swap the heights of the behind pass at a and front pass at c, and
    insert the self-crossings that pay for the slide.

    Adjacent passes on one component (including across the traversal
    seam) get a single twist crossing, and the term the coefficient
    -t^(-3 sign) that compensates it; everything else gets a cancelling
    crossing pair on the two sides of the strand, and the coefficient 1.
    New branches carry placeholder height 0; the sign table of the result
    holds exactly the new crossings.  Both passes are looked up in the
    pass table, and each touched component is rebuilt once per flanked
    section.
    """
    if d.sign_pairs:
        raise InternalInvariantError("crossing induction on an unresolved diagram")
    if not a < c:
        raise InternalInvariantError(f"swap pair out of order: {a} >= {c}")
    spots = {p[0]: p for passes in strand_passes(d) for p in passes if p[0] in (a, c)}
    if len(spots) != 2:
        raise InternalInvariantError(f"no strand pass at height {c if a in spots else a}")
    (_, la, ja, ka), (_, lc, jc, kc) = spots[a], spots[c]
    if not ka & 4 or kc & 4:
        raise InternalInvariantError(f"heights {a} and {c} are not a behind and a front pass")
    if (ka ^ kc) & 2:
        raise InternalInvariantError("swap pair spans both strands")

    comps = list(d.components)
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
        coeff = LaurentPoly.monomial(-3 * eps, -1)
    else:
        eps1 = 1 if ka & 1 == kc & 1 else -1
        new_pairs = ((1, eps1), (2, -eps1))
        flanks = []
        for li, j, k, over in ((la, ja, ka, False), (lc, jc, kc, True)):
            # going right to left, crossing 2 comes before the pass
            ids = (2, 1) if k & 1 else (1, 2)
            flanks.append((li, j, j + 1, crossing_code(ids[0], over), crossing_code(ids[1], over)))
        coeff = LaurentPoly.one()

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

def sort_step(d: SkeinDiagram) -> list[Term]:
    """One slide on the first unsorted strand of an unsorted diagram.

    The resolver smooths the induced crossings lowest id first.  A slide
    keeps the set of heights, so the children share the parent's height
    ranks (``diagram.height_ranks``).  The slide swaps two passes that
    are neighbours in height on one strand and smoothing moves no pass,
    so every child must come back with exactly one inversion fewer than
    the parent, otherwise the progress monitor aborts.
    """
    if d.sign_pairs:
        raise InternalInvariantError("sorting requires all crossings resolved")
    inversions, slide = sort_state(d)
    if slide is None:
        raise InternalInvariantError("sorting step on a sorted diagram")

    staged = induce_crossings(d, slide[1], slide[2])
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
        found = sort_state(child.diagram)[0]
        if found != inversions - 1:
            raise InternalInvariantError(f"sorting step made no progress: {inversions} -> {found} inversions")
    return children
