"""Pipeline orchestration: one memoized walk from input to polynomial.

A diagram's value is computed by a single depth-first walk over the
diagrams it rewrites into.  A node that still has a crossing expands
into its two smoothings (the crossing rule, ``resolve_stage``); a
crossing-free node expands by one sorting slide (the sort rule,
``sort_stage``); a sorted node is a leaf whose value the classifier
reads off.  Every node is valued once per run: the memo is keyed by
``dedup_key`` and lives for one ``run_pipeline`` call, so diamonds in
the rewriting graph and repeated smoothings cost a lookup.  The walk is
also the only place that writes trace records, spends the sort budget
and counts work.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import Callable, Optional, Sequence

from . import classifier, resolver, sorter
from .diagram import Expression, SkeinDiagram, Term, dedup_key, validate
from .errors import SkeinValidationError, StepLimitExceeded
from .laurent import LaurentPoly, SkeinPolynomial

__all__ = [
    "dedup",
    "resolve_stage",
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
        buckets[key] = t if prior is None else replace(prior, coeff=prior.coeff + t.coeff)
    return [t for _k, t in sorted(buckets.items(), key=lambda kv: kv[0]) if t.coeff]


def resolve_stage(t: Term, order: Optional[Sequence[int]]) -> tuple[list[Term], dict]:
    """Crossing rule: the two smoothings of the crossing ``order`` picks
    (the lowest id when ``order`` names none left), with its trace record."""
    signs = t.diagram.signs()
    cid = resolver._next_crossing(signs, order)
    (l1, j1), (l2, j2) = resolver.locate_crossing(t.diagram, cid)
    record = {
        "stage": "resolve",
        "crossing": cid,
        "case": "split" if l1 == l2 else "merge",
        "positions": [[l1, j1], [l2, j2]],
        "shift_first": signs[cid],
        "shift_second": -signs[cid],
    }
    return list(resolver.resolve_crossing(t, cid)), record


def sort_stage(t: Term) -> Optional[tuple[list[Term], dict]]:
    """Sort rule: one slide of a crossing-free term and its trace record,
    or None when the term is sorted."""
    decision = sorter.next_decision(t.diagram)
    if decision is None:
        return None
    strand, choice = decision
    record = {
        "stage": "sort",
        "strand": strand,
        "under": choice.under_height,
        "over": choice.over_height,
    }
    return sorter.sort_step(t, decision=decision), record


def _basis_value(
    d0: SkeinDiagram,
    order: Optional[Sequence[int]] = None,
    max_steps: Optional[int] = None,
    emit: Optional[Callable[[dict], None]] = None,
    stats: Optional[dict] = None,
    memo: Optional[dict] = None,
) -> SkeinPolynomial:
    """Value of a validated diagram in the basis.

    Depth-first with an explicit stack and one memo entry per distinct
    diagram (up to encoding orbit).  Edges carry the smoothing or twist
    coefficients.  The measure (crossings, then strand passes, then
    inversions) strictly decreases along every edge, so the walk is
    finite and the memo acyclic.  A node's diagram and edges are dropped
    as soon as it is valued.  ``max_steps`` caps the sort expansions of
    the run.  ``memo`` maps keys to values already known; it is empty
    unless the caller passes one.
    """

    one = LaurentPoly.one()
    if memo is None:
        memo = {}
    # every other node has a smaller measure, so the root needs no key
    reprs: dict[Optional[tuple], SkeinDiagram] = {None: d0}
    expansions: dict[Optional[tuple], list] = {}
    crossings = sorts = 0
    stack: list[Optional[tuple]] = [None]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        edges = expansions.get(key)
        if edges is None:
            t = Term(one, reprs[key])
            if t.diagram.sign_pairs:
                children, record = resolve_stage(t, order)
                crossings += 1
            else:
                step = sort_stage(t)
                if step is None:
                    memo[key] = classifier.evaluate([t])
                    del reprs[key]
                    stack.pop()
                    continue
                sorts += 1
                if max_steps is not None and sorts > max_steps:
                    raise StepLimitExceeded(f"sorting exceeded {max_steps} steps")
                children, record = step
            if emit is not None:
                emit(record)
            edges = []
            pending = []
            for ch in dedup(children):
                ck = dedup_key(ch.diagram)
                edges.append((ch.coeff, ck))
                if ck not in memo:
                    # a child seen but not yet valued sits lower on the
                    # stack; pushing it again values it first
                    reprs.setdefault(ck, ch.diagram)
                    pending.append(ck)
            expansions[key] = edges
            if pending:
                stack.extend(pending)
                continue
        total = SkeinPolynomial.zero()
        for coeff, ck in edges:
            total = total + memo[ck].scaled(coeff)
        memo[key] = total
        del reprs[key], expansions[key]
        stack.pop()
    value = memo.pop(None)
    if stats is not None:
        stats.update(
            nodes=len(memo) + 1,
            crossing_expansions=crossings,
            sort_expansions=sorts,
        )
    return value


def run_pipeline(
    d: SkeinDiagram,
    *,
    order: Optional[Sequence[int]] = None,
    max_steps: Optional[int] = None,
    trace_path: Optional[str] = None,
    stats: Optional[dict] = None,
) -> SkeinPolynomial:
    """Resolve a validated diagram all the way to a basis polynomial.

    ``order`` lists crossing ids to expand first, ``max_steps`` caps the
    sort expansions of the run (None: no cap), ``trace_path`` receives
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
        poly = _basis_value(d, order, max_steps, emit, stats)
        if stats is not None:
            stats["seconds"] = time.perf_counter() - started
        if emit:
            emit({"stage": "done", "polynomial": poly.text()})
        return poly
    finally:
        if trace_fh:
            trace_fh.close()
