"""The naive references the memoized walk is checked against.

Every smoothing and every sort step, built on ``resolve_crossing`` and
``sort_step`` alone: no canonical key, no memo and no layer split.  And
an orbit key found by trying every re-encoding, for the canonical key.
"""

from itertools import permutations, product
from typing import Sequence

from g2skein import Term
from g2skein.classifier import evaluate
from g2skein.diagram import Expression, SkeinDiagram
from g2skein.laurent import LaurentPoly
from g2skein.resolver import _next_crossing, resolve_crossing
from g2skein.sorter import sort_step


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
        stack.extend(resolve_crossing(t, _next_crossing(signs, order)))
    out.reverse()
    return out


def sort_expression(e: Expression) -> Expression:
    """Run sort_step to a fixed point over the whole expression.

    Between rounds, terms whose diagrams are exactly equal (same
    arrays, heights and crossing ids) merge by adding coefficients.
    """
    done: list[Term] = []
    current = list(e)
    while current:
        frontier: dict[SkeinDiagram, LaurentPoly] = {}
        for term in current:
            children = sort_step(term)
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
    signs = d.signs()
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
