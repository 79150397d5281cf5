"""Pipeline orchestration: one memoized walk from input to polynomial.

A diagram's value is computed by a single depth-first walk over the
diagrams it rewrites into.  A node that still has a crossing expands
into its two smoothings (the crossing rule, ``resolve_stage``); an
unsorted crossing-free node is split into height layers when it has
more than one (the layer rule, ``split_stage``) and otherwise expands
by one sorting slide (the sort rule, ``sort_stage``).  A sorted
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
Przytycki-Sikora, Topology 39, 2000).  Give each component of a
crossing-free diagram the interval [min, max] of its pass heights and
merge components whose intervals overlap; the groups so formed span
disjoint height intervals.  In each region (L, M, R) the arcs do not
cross.  Every arc joins two passes of one component, so along each
strand a region touches the endpoints of each group's arcs form a
contiguous run, with the runs of the groups below it on one side and
those above it on the other.  Hence no arc of one group separates two
endpoints of another, and since a crossing-free arc system in a disk is
fixed up to isotopy by its endpoint pairing, each group can be pushed
into its own height band.  Level planes then separate the
groups, and the value is the product of the groups' values.  A
component without passes is a trivial loop that shrinks into any band,
so it is a group of its own.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from . import classifier, resolver, sorter
from .diagram import SkeinDiagram, Term, dedup_key, validate
from .errors import SkeinValidationError, StepLimitExceeded
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
    order is by key, making the result independent of input order.
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

    Components whose height intervals overlap share a layer.  A
    component without passes gets the span (0, 0), below every pass
    height, so it is a layer of its own, ahead of the others.
    """
    spans = [(min(c.heights or (0,)), max(c.heights or (0,)), c) for c in t.diagram.components]
    spans.sort(key=lambda span: span[0])
    groups: list[list] = []
    top = 0  # no span starts below 0, so the first opens a layer
    for low, high, c in spans:
        if low < top:
            groups[-1].append(c)
        else:
            groups.append([c])
        top = max(top, high)
    if len(groups) < 2:
        return None
    one = LaurentPoly.one()
    factors = [Term(one, SkeinDiagram(tuple(g), ())) for g in groups]
    return factors, {"stage": "split", "groups": len(groups)}


def sort_stage(t: Term) -> tuple[list[Term], dict]:
    """Sort rule: one slide of an unsorted crossing-free term and its
    trace record."""
    strand, under, over = sorter.sort_state(t.diagram)[2]
    return sorter.sort_step(t), {"stage": "sort", "strand": strand, "under": under, "over": over}


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
    of a crossing or sort expansion carry the smoothing or twist
    coefficients and the node's value is their weighted sum; the edges
    of a split lead to its layers and the node's value is their
    product; sorted children enter it through one ``classifier.evaluate``
    call.  The measure (crossings, then strand passes, then inversions,
    then components) strictly decreases along every edge, so the walk is
    finite and the memo acyclic.  A frame drops its diagram once the
    node has expanded, and the frame itself once the node is valued.  A
    child already pending lower on the stack is pushed again with the
    diagram in hand and valued first; the lower frame then finds its key
    in the memo.  ``max_steps`` caps the expansions of the run, of all
    three rules together.  ``memo`` maps keys to values already known;
    it is empty unless the caller passes one.  ``stats`` gets ``nodes``
    (keyed nodes, the root included), ``values`` (distinct values, one
    object each), ``leaves`` (sorted children) and the expansions per rule.
    """

    one = LaurentPoly.one()
    if memo is None:
        memo = {}
    shared: dict[SkeinPolynomial, SkeinPolynomial] = {}
    root = dedup_key(d0)
    # a sorted root is a leaf, and no rule expands a leaf
    if root not in memo and not d0.sign_pairs and not sorter.sort_state(d0)[1]:
        total = classifier.evaluate([Term(one, d0)])
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
            children, record = resolve_stage(t) if d.sign_pairs else split_stage(t) or sort_stage(t)
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
                # factors of a product: equal layers are not merged, and
                # the leaf layers are one term whose value is their product
                leaves = [Term(one, SkeinDiagram(tuple([c for f in leaves for c in f.diagram.components]), ()))]
            else:
                inner = dedup(inner)
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
        memo[key] = shared.setdefault(total, total)
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
    violations = validate(d)
    if violations:
        raise SkeinValidationError(violations)

    started = time.perf_counter()
    if emit is not None:
        emit({"stage": "start", "crossings": len(d.sign_pairs)})
    poly = _basis_value(d, max_steps, emit, stats)
    if stats is not None:
        stats["seconds"] = time.perf_counter() - started
    if emit is not None:
        emit({"stage": "done", "polynomial": poly.text()})
    return poly
