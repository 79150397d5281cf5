"""The naive references the memoized walk is checked against.

Every smoothing and every sort step, built on ``resolve_crossing`` and
a slide and a sort state written here entry by entry: no canonical key,
no memo, no layer split, and none of the sorter's own code.  And an
orbit key found by trying every re-encoding, for the canonical key, and
the canonical key built of nested tuples, for the text key's order.
"""

from itertools import permutations, product
from typing import Optional

from g2skein import Term
from g2skein.classifier import evaluate
from g2skein.diagram import Component, SkeinDiagram, crossing_code
from g2skein.laurent import LaurentPoly
from g2skein.resolver import resolve_crossing


def scaled(coeff: LaurentPoly, children) -> list[Term]:
    """The children of a rule, each times the coefficient of its parent."""
    return [Term(coeff * child.coeff, child.diagram) for child in children]


def resolve_all(e: list[Term]) -> list[Term]:
    """Resolve every crossing of every term; no deduplication here.

    A term with r crossings contributes exactly 2**r output terms.
    ``resolve_crossing`` smooths the lowest id first; renumber the
    crossings (``diagram.renumber_crossings``) for another order.
    """
    out: list[Term] = []
    stack = list(e)
    while stack:
        t = stack.pop()
        if not t.diagram.sign_pairs:
            out.append(t)
            continue
        stack.extend(scaled(t.coeff, resolve_crossing(t.diagram)))
    out.reverse()
    return out


def slide(d: SkeinDiagram, a: int, c: int) -> Term:
    """What ``sorter.induce_crossings`` must return: the behind pass at
    height a and the front pass at c trade heights, and branches of new
    crossings (placeholder height 0) are inserted entry by entry.

    Passes next to each other along one component (the last and the
    first entry count as neighbours) get one twist crossing 1, around
    both passes, and the coefficient -t^(-3 eps), eps = +1 when the
    first of the two runs right to left.  Otherwise each pass is
    flanked by branches of crossings 1 and 2 (2 first when it runs right
    to left), over branches around the front pass, with signs eps and
    -eps, eps = +1 when both passes run the same way, and the
    coefficient 1.
    """
    rows = [list(zip(comp.codes, comp.heights)) for comp in d.components]
    spot = {h: (li, j) for li, row in enumerate(rows) for j, (_k, h) in enumerate(row)}
    (la, ja), (lc, jc) = spot[a], spot[c]
    ka, kc = rows[la][ja][0], rows[lc][jc][0]
    rows[la][ja], rows[lc][jc] = (ka, c), (kc, a)
    m = len(rows[la])
    if la == lc and (jc - ja) % m in (1, m - 1):
        row = rows[la]
        if {ja, jc} == {0, m - 1} and m > 2:  # straddles the seam: start one entry earlier
            row.insert(0, row.pop())
            ja, jc = (ja + 1) % m, (jc + 1) % m
        first = min(ja, jc)
        eps = 1 if row[first][0] & 1 else -1
        row.insert(first + 2, (crossing_code(1, first != jc), 0))
        row.insert(first, (crossing_code(1, first == jc), 0))
        return Term(LaurentPoly.monomial(-3 * eps, -1), from_rows(rows, ((1, eps),)))
    eps = 1 if ka & 1 == kc & 1 else -1
    for li, j, k, over in sorted([(la, ja, ka, False), (lc, jc, kc, True)], reverse=True):
        before, after = (2, 1) if k & 1 else (1, 2)
        rows[li][j : j + 1] = [(crossing_code(before, over), 0), rows[li][j], (crossing_code(after, over), 0)]
    return Term(LaurentPoly.one(), from_rows(rows, ((1, eps), (2, -eps))))


def from_rows(rows, sign_pairs) -> SkeinDiagram:
    return SkeinDiagram(
        tuple(Component(tuple(k for k, _ in row), tuple(h for _, h in row)) for row in rows), sign_pairs
    )


def sort_state(d: SkeinDiagram) -> tuple:
    """What ``sorter.sort_state`` must return: the number of (front,
    behind) pairs on one strand with the front pass higher, and the
    slide ``(strand, under, over)`` on the first strand that has such a
    pair: the lowest front pass above the lowest behind pass, and the
    highest behind pass below that front pass; None when there is no
    such pair."""
    passes = [(k >> 1, h) for c in d.components for k, h in zip(c.codes, c.heights) if k >= 0]
    inversions = 0
    chosen = None
    for strand in (1, 2):
        front = [h for side, h in passes if side == strand - 1]
        behind = [h for side, h in passes if side == strand + 1]
        pairs = [(b, f) for f in front for b in behind if b < f]
        inversions += len(pairs)
        if pairs and chosen is None:
            over = min(f for f in front if f > min(behind))
            chosen = (strand, max(b for b in behind if b < over), over)
    return inversions, chosen


def sort_children(t: Term) -> Optional[list[Term]]:
    """The children of one sort step: the slide, then ``resolve_crossing``
    once per induced crossing, lowest id first, each child times the
    coefficient of the term it came from; None when sorted."""
    chosen = sort_state(t.diagram)[1]
    if chosen is None:
        return None
    pending = scaled(t.coeff, [slide(t.diagram, chosen[1], chosen[2])])
    for _ in pending[0].diagram.sign_pairs:
        pending = [child for term in pending for child in scaled(term.coeff, resolve_crossing(term.diagram))]
    return pending


def sort_expression(e: list[Term]) -> list[Term]:
    """Run the naive sort step to a fixed point over the whole expression.

    Between rounds, terms whose diagrams are exactly equal (same
    arrays, heights and crossing ids) merge by adding coefficients.
    """
    done: list[Term] = []
    current = list(e)
    while current:
        frontier: dict[SkeinDiagram, LaurentPoly] = {}
        for term in current:
            children = sort_children(term)
            if children is None:
                done.append(term)
                continue
            for child in children:
                prior = frontier.get(child.diagram)
                frontier[child.diagram] = child.coeff if prior is None else prior + child.coeff
        current = [Term(coeff, d) for d, coeff in frontier.items() if coeff]
    return done


def naive_value(d: SkeinDiagram):
    """The value of ``d`` by every smoothing, then every sort step."""
    return evaluate(sort_expression(resolve_all([Term(LaurentPoly.one(), d)])))


def naive_key(d: SkeinDiagram) -> tuple:
    """The least encoding of ``d`` over every re-encoding, by brute force.

    Heights become ranks.  Every component order, every start point of
    every component and, when ``d`` has no crossings, both directions of
    every component are tried; crossings are numbered by first
    appearance, the least numbering of each such reading.
    """
    rank = {h: i for i, h in enumerate(sorted({h for c in d.components for h in c.heights}))}
    signs = dict(d.sign_pairs)
    readings = []
    for c in d.components:
        seq = [(k, rank[h]) for k, h in zip(c.codes, c.heights)]
        ways = [seq, [(k ^ 1, r) for k, r in reversed(seq)]] if not signs else [seq]
        readings.append({tuple(w[s:] + w[:s]) for w in ways for s in range(len(w))} or {()})
    best = None
    for order in permutations(readings):
        for choice in product(*order):
            renumber: dict[int, int] = {}
            encoding = tuple(
                tuple(
                    (k if k >= 0 else -2 * renumber.setdefault(-k >> 1, len(renumber) + 1) - (k & 1), r)
                    for k, r in reading
                )
                for reading in choice
            )
            candidate = (encoding, tuple((new, signs[old]) for old, new in renumber.items()))
            if best is None or candidate < best:
                best = candidate
    return best


def tuple_key(d: SkeinDiagram) -> tuple:
    """``dedup_key`` as nested tuples: ``((codes, ranks), ...)`` with
    integer codes and ranks, then the renumbered sign pairs.

    The same choices as ``dedup_key``, with integer ranks, so that the
    text key can be checked to split diagrams into the same classes and
    to order siblings the same way, the order in which ``engine.dedup``
    returns terms.
    """
    rank = {h: i for i, h in enumerate(sorted({h for c in d.components for h in c.heights}))}
    reversible = not d.sign_pairs
    comps = []
    for c in d.components:
        codes, ranks, m = c.codes, tuple(map(rank.__getitem__, c.heights)), len(c.codes)
        if m:
            s = ranks.index(min(ranks))
            k = codes[s]
            if k < 0 and k & 1 and k + 1 in codes:
                s = codes.index(k + 1)
            if reversible and (ranks[s - 1] < ranks[(s + 1) % m] if m > 2 else k & 1):
                codes = tuple([x ^ 1 for x in codes[s::-1] + codes[:s:-1]])
                ranks = ranks[s::-1] + ranks[:s:-1]
            else:
                codes, ranks = codes[s:] + codes[:s], ranks[s:] + ranks[:s]
        comps.append((codes, ranks))
    comps.sort(key=lambda item: (item[1], item[0]))
    renumber: dict[int, int] = {}
    if not reversible:
        comps = [(tuple([
            k if k >= 0 else -2 * renumber.setdefault(-k >> 1, len(renumber) + 1) - (k & 1)
            for k in codes
        ]), ranks) for codes, ranks in comps]
    signs = dict(d.sign_pairs)
    return (tuple(comps), tuple((nid, signs[old]) for old, nid in renumber.items()))
