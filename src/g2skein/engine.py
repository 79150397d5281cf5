"""Pipeline orchestration: one memoized walk from input to polynomial.

A diagram's value is computed by a single depth-first walk over the
diagrams it rewrites into.  A node that still has a crossing expands
into its two smoothings (the crossing rule, ``resolve_stage``); an
unsorted crossing-free node is split into height layers when it has
more than one (the layer rule, ``split_stage``) and otherwise expands
by one sorting slide (the sort rule, ``sort_stage``).  A sorted
crossing-free child is a leaf: its parent hands all its leaves to one
classifier call and never keys them, since classifying costs less than
keying.  Every other node is valued once per run: the memo is keyed by
``dedup_key`` and lives for one ``run_pipeline`` call, so diamonds in
the rewriting graph and repeated smoothings cost a lookup.  The walk is
also the only place that writes trace records, spends the expansion
budget and counts work.

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

import json
import time
from typing import Callable, Optional

from . import classifier, resolver, sorter
from .diagram import Expression, SkeinDiagram, Term, dedup_key, validate
from .errors import SkeinValidationError, StepLimitExceeded
from .laurent import LaurentPoly, SkeinPolynomial

__all__ = [
    "dedup",
    "resolve_stage",
    "split_stage",
    "sort_stage",
    "run_pipeline",
]


def dedup(e: Expression) -> Expression:
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
    (l1, j1), (l2, j2) = resolver.locate_crossing(t.diagram, cid)
    record = {
        "stage": "resolve",
        "crossing": cid,
        "case": "split" if l1 == l2 else "merge",
        "positions": [[l1, j1], [l2, j2]],
        "shift_first": sign,
        "shift_second": -sign,
    }
    return list(resolver.resolve_crossing(t, cid)), record


def split_stage(t: Term) -> Optional[tuple[list[Term], dict]]:
    """Layer rule: the height-separated layers of a crossing-free term,
    each a factor with coefficient 1, and the trace record; None when
    there is only one layer.

    Components whose height intervals overlap share a layer; each
    component without passes is a layer of its own.
    """
    spans = []
    loops = []
    for c in t.diagram.components:
        if c.heights:
            spans.append((min(c.heights), max(c.heights), c))
        else:
            loops.append([c])
    spans.sort(key=lambda span: span[0])
    groups: list[list] = []
    top = 0
    for low, high, c in spans:
        if groups and low < top:
            groups[-1].append(c)
            top = max(top, high)
        else:
            groups.append([c])
            top = high
    groups += loops
    if len(groups) < 2:
        return None
    one = LaurentPoly.one()
    factors = [Term(one, SkeinDiagram.make(g)) for g in groups]
    return factors, {"stage": "split", "groups": len(groups)}


def sort_stage(t: Term) -> Optional[tuple[list[Term], dict]]:
    """Sort rule: one slide of a crossing-free term and its trace record,
    or None when the term is sorted."""
    slide = sorter.sort_state(t.diagram)[2]
    if slide is None:
        return None
    record = {"stage": "sort", "strand": slide[0], "under": slide[1], "over": slide[2]}
    return sorter.sort_step(t), record


def _basis_value(
    d0: SkeinDiagram,
    max_steps: Optional[int] = None,
    emit: Optional[Callable[[dict], None]] = None,
    stats: Optional[dict] = None,
    memo: Optional[dict] = None,
) -> SkeinPolynomial:
    """Value of a validated diagram in the basis.

    Depth-first with an explicit stack and one memo entry per distinct
    diagram (up to encoding orbit) that is not a sorted leaf.  Edges of
    a crossing or sort expansion carry the smoothing or twist
    coefficients and the node's value is their weighted sum; the edges
    of a split lead to its layers and the node's value is their
    product; sorted children enter it through one ``classifier.evaluate``
    call.  The measure
    (crossings, then strand passes, then inversions, then components)
    strictly decreases along every edge, so the walk is finite and the
    memo acyclic.  A node's diagram and edges are dropped as soon as it
    is valued.  ``max_steps`` caps the expansions of the run, of all
    three rules together.
    ``memo`` maps keys to values already known; it is empty unless the
    caller passes one.  ``stats`` gets ``nodes`` (keyed nodes and the
    root), ``leaves`` (sorted children) and the expansions per rule.
    """

    one = LaurentPoly.one()
    if memo is None:
        memo = {}
    # every other node has a smaller measure, so the root needs no key
    reprs: dict[Optional[tuple], SkeinDiagram] = {None: d0}
    expansions: dict[Optional[tuple], tuple[bool, SkeinPolynomial, list]] = {}
    crossings = sorts = splits = n_leaves = 0
    stack: list[Optional[tuple]] = [None]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        expansion = expansions.get(key)
        if expansion is None:
            d = reprs[key]
            t = Term(one, d)
            product = False
            if d.sign_pairs:
                children, record = resolve_stage(t)
                crossings += 1
            elif not sorter.sort_state(d)[1]:  # a sorted root
                memo[key] = classifier.evaluate([t])
                del reprs[key]
                stack.pop()
                continue
            else:
                split = split_stage(t)
                if split is not None:
                    # factors of a product: equal layers are not merged
                    children, record = split
                    product = True
                    splits += 1
                else:
                    sorts += 1
                    children, record = sort_stage(t)
            if max_steps is not None and crossings + sorts + splits > max_steps:
                raise StepLimitExceeded(f"the walk needs more than {max_steps} expansions")
            # sorted children are leaves, valued here without a key
            leaves, inner = [], []
            for ch in children:
                cd = ch.diagram
                (inner if cd.sign_pairs or sorter.sort_state(cd)[1] else leaves).append(ch)
            n_leaves += len(leaves)
            if product:
                # the leaf layers as one term: its value is their product (1 if none)
                leaves = [Term(one, SkeinDiagram.make([c for f in leaves for c in f.diagram.components]))]
            else:
                inner = dedup(inner)
            if emit is not None:
                emit(record)
            edges = []
            pending = []
            for ch in inner:
                ck = dedup_key(ch.diagram)
                edges.append((ch.coeff, ck))
                if ck not in memo:
                    # a child seen but not yet valued sits lower on the
                    # stack; pushing it again values it first
                    reprs.setdefault(ck, ch.diagram)
                    pending.append(ck)
            expansion = expansions[key] = (product, classifier.evaluate(leaves), edges)
            if pending:
                stack.extend(pending)
                continue
        product, total, edges = expansion
        if product:
            for _coeff, ck in edges:
                total = total * memo[ck]
        elif edges:
            sums: dict = {}
            total.scale_into(sums, one)
            for coeff, ck in edges:
                memo[ck].scale_into(sums, coeff)
            total = SkeinPolynomial.collect(sums)
        memo[key] = total
        del reprs[key], expansions[key]
        stack.pop()
    value = memo.pop(None)
    if stats is not None:
        stats.update(
            nodes=len(memo) + 1,
            crossing_expansions=crossings,
            sort_expansions=sorts,
            layer_splits=splits,
            leaves=n_leaves,
        )
    return value


def run_pipeline(
    d: SkeinDiagram,
    *,
    max_steps: Optional[int] = None,
    trace_path: Optional[str] = None,
    stats: Optional[dict] = None,
) -> SkeinPolynomial:
    """Resolve a validated diagram all the way to a basis polynomial.

    ``max_steps`` caps the expansions of the run, crossing, sort and
    layer split alike (None: no cap), ``trace_path`` receives
    one JSON record per expansion, and ``stats`` is filled with the
    walk's counters and the run's seconds.
    """
    violations = validate(d)
    if violations:
        raise SkeinValidationError(violations)

    started = time.perf_counter()
    trace_fh = open(trace_path, "w", encoding="utf-8") if trace_path else None
    emit = (lambda record: trace_fh.write(json.dumps(record) + "\n")) if trace_fh else None
    try:
        if emit:
            emit({"stage": "start", "crossings": len(d.sign_pairs)})
        poly = _basis_value(d, max_steps, emit, stats)
        if stats is not None:
            stats["seconds"] = time.perf_counter() - started
        if emit:
            emit({"stage": "done", "polynomial": poly.text()})
        return poly
    finally:
        if trace_fh:
            trace_fh.close()
