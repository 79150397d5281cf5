"""Pipeline orchestration: one memoized walk from input to polynomial.

A diagram's value is computed by a single depth-first walk over the
diagrams it rewrites into.  A node that still has a crossing expands
into its two smoothings (the crossing rule, ``resolve_stage``); an
unsorted crossing-free node with two or more inversions is split into
height layers when it has more than one (the layer rule,
``split_stage``); otherwise an unsorted crossing-free node expands by
one sorting slide (the sort rule, ``sort_stage``).  A sorted
crossing-free child is a leaf: its parent hands all its leaves to one
classifier call and never keys them, since classifying costs less than
keying.  Every other node, the root included, is valued once per run:
the memo is keyed by ``dedup_key`` and lives for one ``run_pipeline``
call, so diamonds in the rewriting graph and repeated smoothings cost a
lookup, and equal values are one object, so the memo's memory is mostly
its keys.  A pending node is one stack frame holding its key, its
diagram until it expands, and then its expansion until it is valued.
The walk is also the only place that emits trace records, spends the
expansion budget and counts work.

Why the layer rule is sound.  The genus-2 handlebody is P x I, with P
the disk minus the two base strands and I the height axis of the
arrays.  Its skein module is a commutative algebra whose product is
stacking in height (Bullock-Przytycki, Proc. AMS 128, 2000;
Przytycki-Sikora, Topology 39, 2000).  In a crossing-free diagram the
arcs of each region (L, M, R) do not cross, and a crossing-free arc
system in a disk is fixed up to isotopy by the order of its ends along
the boundary.  L borders strand 1, R borders strand 2, and M's boundary
runs up strand 1 and down strand 2, so the order of the passes along
each strand fixes the diagram: moving strand 1's passes up or down past
strand 2's is an isotopy as long as each strand keeps its own order.
Merge two groups of components whenever their height intervals overlap
on strand 1 or on strand 2, until none do.  Then each group's passes
form one run on each strand, and the runs can be stacked into height
bands one per group, unless two groups lie in opposite orders on the
two strands.  That cannot happen: two groups on both strands each have
an arc in M from strand 1 to strand 2, and those arcs would cross.
Level planes then separate the groups, and the value is the product of
the groups' values.  A component without passes is a trivial loop that
shrinks into any band, so it is a group of its own.  The walk tries the
rule only on nodes with at least two inversions: a node with one is one
slide from sorted, all that slide's children are leaves, and a split
would only add a node.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from . import classifier, resolver, sorter
from .diagram import SkeinDiagram, Term, dedup_key, require_valid
from .errors import InternalInvariantError, StepLimitExceeded
from .laurent import LaurentPoly, SkeinPolynomial

__all__ = [
    "dedup",
    "resolve_stage",
    "split_stage",
    "sort_stage",
    "run_pipeline",
]


def dedup(e: list[Term]) -> list[Term]:
    """Merge terms that draw the same skein; drop exact cancellations.

    Two terms merge when their diagrams have equal ``dedup_key``s (sign
    tables included, after id renumbering).  Coefficients add.  Output
    order is by key, making the result independent of input order.  The
    walk does not call it (its memo merges); perfbench wraps it by name.
    """
    buckets: dict[tuple, Term] = {}
    for t in e:
        key = dedup_key(t.diagram)
        prior = buckets.get(key)
        buckets[key] = t if prior is None else Term(prior.coeff + t.coeff, prior.diagram)
    # keys are distinct, so the pairs sort by key alone
    return [t for _k, t in sorted(buckets.items()) if t.coeff]


def resolve_stage(t: Term) -> tuple[list[Term], dict]:
    """Crossing rule: the two smoothings of the lowest crossing id, with
    its trace record.  To expand the crossings in another order,
    renumber them (``diagram.renumber_crossings``)."""
    cid, sign = t.diagram.sign_pairs[0]
    children = list(resolver.resolve_crossing(t))
    # a split leaves one component more, a merge one fewer
    grew = len(children[0].diagram.components) > len(t.diagram.components)
    record = {
        "stage": "resolve",
        "crossing": cid,
        "case": "split" if grew else "merge",
        "shift_first": sign,
        "shift_second": -sign,
    }
    return children, record


def split_stage(t: Term) -> Optional[tuple[list[Term], dict]]:
    """Layer rule: the height-separated layers of a crossing-free term,
    each a factor with coefficient 1, and the trace record; None when
    there is only one layer.

    Two groups of components share a layer when their height intervals
    on strand 1 overlap, or those on strand 2; merging repeats until no
    group's interval on either strand overlaps another's.  Layers come
    in the order of their lowest pass, each with its components in the
    order of theirs.  A component without passes is a layer of its own,
    ahead of the others.
    """
    comps = sorted(t.diagram.components, key=lambda c: min(c.heights, default=0))
    # each component's pass heights on strand 1 and on strand 2
    on_strand = [([h for k, h in zip(c.codes, c.heights) if not k & 2],
                  [h for k, h in zip(c.codes, c.heights) if k & 2]) for c in comps]
    root = list(range(len(comps)))

    def find(i: int) -> int:
        while root[i] != i:
            i = root[i] = root[root[i]]
        return i

    merged = True
    while merged:
        merged = False
        for strand in (0, 1):
            spans: dict[int, tuple[int, int]] = {}
            for i, heights in enumerate(on_strand):
                if heights[strand]:
                    r, low, high = find(i), min(heights[strand]), max(heights[strand])
                    prior = spans.get(r, (low, high))
                    spans[r] = (min(prior[0], low), max(prior[1], high))
            top = 0  # no height is below 1, so the lowest span opens a run
            for low, high, r in sorted((low, high, r) for r, (low, high) in spans.items()):
                if low < top:
                    root[r] = below
                    merged = True
                else:
                    below = r
                top = max(top, high)
    groups: dict[int, list] = {}
    for i, c in enumerate(comps):
        groups.setdefault(find(i), []).append(c)
    if len(groups) < 2:
        return None
    one = LaurentPoly.one()
    factors = [Term(one, SkeinDiagram(tuple(g), ())) for g in groups.values()]
    return factors, {"stage": "split", "groups": len(groups)}


def sort_stage(t: Term) -> tuple[list[Term], dict]:
    """Sort rule: one slide of an unsorted crossing-free term and its
    trace record."""
    strand, under, over = sorter.sort_state(t.diagram)[2]
    return sorter.sort_step(t), {"stage": "sort", "strand": strand, "under": under, "over": over}


def _check_exponents(value: SkeinPolynomial, crossings: int) -> None:
    """Raise ``InternalInvariantError`` unless ``value`` can be the value
    of a diagram with ``crossings`` drawn crossings.

    In Kauffman's state sum on the view down the height axis, a state
    gives t^(a - b) times its loops, and changing one smoothing moves
    a - b by 2 and the number of loops by 1; a trivial loop is
    -t^2 - t^-2 and an essential one x, y or z.  So over all the terms
    t^e x^i y^j z^k of the value, e + 2(i + j + k) lies in one class mod
    4, and e has the parity of ``crossings``.  The check reads only the
    value, so it shares no code with the rules that computed it.  It
    cannot see an error that moves exponents by multiples of 4, such as
    swapped signs on the two crossings of a pair induction.
    """
    classes = {(e + 2 * sum(mono)) % 4 for mono, coeff in value.items() for e, _c in coeff.terms}
    if len(classes) > 1 or any((cls - crossings) % 2 for cls in classes):
        raise InternalInvariantError(
            f"value of a node with {crossings} crossings breaks the exponent congruence:"
            f" e + 2(i + j + k) takes the classes {sorted(classes)} mod 4"
        )


def _basis_value(
    d0: SkeinDiagram,
    max_steps: Optional[int] = None,
    emit: Optional[Callable[[dict], None]] = None,
    stats: Optional[dict] = None,
    memo: Optional[dict] = None,
) -> SkeinPolynomial:
    """Value of a validated diagram in the basis.

    Depth-first over a stack of frames ``[key, diagram, expansion]``,
    one memo entry per distinct diagram (up to encoding orbit) that is
    not a sorted leaf; the root is keyed like every other node.  Edges
    of a crossing or sort expansion, one per inner child in the rule's
    order, carry the smoothing or twist coefficients and the node's
    value is their weighted sum; the edges of a split lead to its layers
    and the node's value is their product; sorted children enter it
    through one ``classifier.evaluate`` call.  The measure (crossings,
    then strand passes, then inversions, then components) strictly
    decreases along every edge, so the walk is finite and the memo
    acyclic.  A frame drops its diagram once the node has expanded, and
    the frame itself once the node is valued.  A key pending twice,
    lower on the stack or in two siblings, has two frames; the upper one
    is valued first, and the lower then finds its key in the memo.
    ``max_steps`` caps the expansions of the run, of all three rules
    together.  ``memo`` maps keys to values already known; it is empty
    unless the caller passes one.  ``stats`` gets ``nodes`` (keyed
    nodes, the root included), ``values`` (distinct values, one object
    each), ``leaves`` (sorted children) and the expansions per rule.
    Each value new to the run passes ``_check_exponents``.
    """

    one = LaurentPoly.one()
    if memo is None:
        memo = {}
    shared: dict[SkeinPolynomial, SkeinPolynomial] = {}
    root = dedup_key(d0)
    # a sorted root is a leaf, and no rule expands a leaf
    if root not in memo and not d0.sign_pairs and not sorter.sort_state(d0)[1]:
        total = classifier.evaluate([Term(one, d0)])
        _check_exponents(total, 0)
        memo[root] = shared.setdefault(total, total)
    counts: dict[str, int] = {}
    n_leaves = 0
    stack = [[root, d0, None]]
    while stack:
        frame = stack[-1]
        key, d, expansion = frame
        if key in memo:
            stack.pop()
            continue
        if expansion is None:
            t = Term(one, d)
            if d.sign_pairs:
                children, record = resolve_stage(t)
            else:
                # one inversion is one slide from sorted: split nothing
                children, record = sorter.sort_state(d)[1] > 1 and split_stage(t) or sort_stage(t)
            counts[record["stage"]] = counts.get(record["stage"], 0) + 1
            if max_steps is not None and sum(counts.values()) > max_steps:
                raise StepLimitExceeded(f"the walk needs more than {max_steps} expansions")
            if emit is not None:
                emit(record)
            product = record["stage"] == "split"
            # sorted children are leaves, valued here without a key
            leaves, inner = [], []
            for ch in children:
                cd = ch.diagram
                (inner if cd.sign_pairs or sorter.sort_state(cd)[1] else leaves).append(ch)
            n_leaves += len(leaves)
            if product:
                # the leaf layers are one term whose value is their product
                leaves = [Term(one, SkeinDiagram(tuple([c for f in leaves for c in f.diagram.components]), ()))]
            edges = [(ch.coeff, dedup_key(ch.diagram)) for ch in inner]
            pending = [[ck, ch.diagram, None] for ch, (_coeff, ck) in zip(inner, edges) if ck not in memo]
            frame[1:] = None, (product, classifier.evaluate(leaves), edges)
            if pending:
                stack.extend(pending)
                continue
        product, total, edges = frame[2]
        if product:
            for _coeff, ck in edges:
                total = total * memo[ck]
        elif edges:
            sums: dict = {}
            total.scale_into(sums, one)
            for coeff, ck in edges:
                memo[ck].scale_into(sums, coeff)
            total = SkeinPolynomial.collect(sums)
        value = memo[key] = shared.setdefault(total, total)
        if value is total:
            _check_exponents(total, len(key[1]))
        stack.pop()
    if stats is not None:
        stats.update(
            nodes=len(memo),
            values=len(shared),
            crossing_expansions=counts.get("resolve", 0),
            sort_expansions=counts.get("sort", 0),
            layer_splits=counts.get("split", 0),
            leaves=n_leaves,
        )
    return memo[root]


def run_pipeline(
    d: SkeinDiagram,
    *,
    max_steps: Optional[int] = None,
    emit: Optional[Callable[[dict], None]] = None,
    stats: Optional[dict] = None,
) -> SkeinPolynomial:
    """Resolve a validated diagram all the way to a basis polynomial.

    ``max_steps`` caps the expansions of the run, crossing, sort and
    layer split alike (None: no cap), ``emit`` is called with one trace
    record per expansion, between a ``start`` and a ``done`` record, and
    ``stats`` is filled with the walk's counters and the run's seconds.
    """
    require_valid(d)
    started = time.perf_counter()
    if emit is not None:
        emit({"stage": "start", "crossings": len(d.sign_pairs)})
    poly = _basis_value(d, max_steps, emit, stats)
    if stats is not None:
        stats["seconds"] = time.perf_counter() - started
    if emit is not None:
        emit({"stage": "done", "polynomial": poly.text()})
    return poly
