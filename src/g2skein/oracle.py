"""Verification harness: seeded diagram generation and metamorphic checks.

``random_diagram`` draws actual closed curves rather than sampling raw
arrays.  Each component is a random closed walk over the three regions
cut out by the two base strands; the walk's strand crossings become the
passes, and the connecting arcs are embedded as chords of a disk per
region so that arc intersections, and with them the self-crossings and
their signs, come from honest geometry.  Every generated encoding is
therefore realizable by a real curve system, which the classifier
relies on.

The check functions re-run the whole pipeline under transformations
that must not change the result: crossing renumberings, which choose
the order of resolution, and the encoding symmetries (rotation,
reversal, height relabeling, component order).  The framing check adds
a kink, which must multiply the value by -t^(3 sign) for every t, not
only at t = -1.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, permutations
from math import cos, pi, sin
from typing import Optional

from .diagram import (
    Component,
    SkeinDiagram,
    crossing_code,
    pass_code,
    relabel_heights,
    renumber_crossings,
    reverse_component,
    rotate_component,
    serialize_diagram,
    validate,
)
from .errors import InternalInvariantError
from .laurent import LaurentPoly
from .resolver import update_signs_on_reversal
from . import engine

__all__ = [
    "random_diagram",
    "random_diagram_with_crossings",
    "check_confluence",
    "check_encoding_invariance",
    "check_framing",
    "write_repro",
]

_NEXT_REGION = {"L": ["M"], "R": ["M"], "M": ["L", "R"]}

# (strand, direction code) for a region transition
_TRANSITION = {
    ("L", "M"): (1, 3),
    ("M", "L"): (1, 4),
    ("M", "R"): (2, 4),
    ("R", "M"): (2, 5),
}


def _random_walk(rng: random.Random) -> Optional[list[str]]:
    """Closed region walk; returns the region sequence r_0..r_m (r_m=r_0)."""
    start = rng.choice(["L", "M", "R"])
    length = rng.choice([2, 2, 4, 4, 6, 6, 8])
    for _ in range(60):
        seq = [start]
        for _ in range(length):
            seq.append(rng.choice(_NEXT_REGION[seq[-1]]))
        if seq[-1] == start:
            return seq
    return None


def _segment_cross(p1, p2, p3, p4) -> Optional[tuple[Fraction, Fraction]]:
    """Parameters (t, u) of a proper crossing of p1p2 with p3p4, if any.

    Exact over rational coordinates, so the parameter order of several
    crossings along one segment is always the true geometric order.
    """
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return None
    w = (p3[0] - p1[0], p3[1] - p1[1])
    t = (w[0] * d2[1] - w[1] * d2[0]) / den
    u = (w[0] * d1[1] - w[1] * d1[0]) / den
    if 0 < t < 1 and 0 < u < 1:
        return t, u
    return None


def _build_attempt(rng: random.Random, max_components: int) -> Optional[SkeinDiagram]:
    n_components = rng.randint(1, max_components)
    walks: list[list[str]] = []
    for _ in range(n_components):
        if rng.random() < 0.12:
            walks.append([])  # a free trivial loop
            continue
        w = _random_walk(rng)
        if w is None:
            w = ["L", "M", "L"]
        walks.append(w)

    # passes[(ci, k)] -> (strand, orient, over, height)
    passes: dict[tuple[int, int], tuple[int, int, bool, int]] = {}
    order: list[tuple[int, int]] = []
    for ci, walk in enumerate(walks):
        for k in range(max(0, len(walk) - 1)):
            strand, q = _TRANSITION[(walk[k], walk[k + 1])]
            passes[(ci, k)] = (strand, q, rng.random() < 0.5, 0)
            order.append((ci, k))
    # sorting cost grows steeply with the number of height inversions, so
    # resample the height shuffle a few times and keep the mildest draw;
    # this shapes only the height pattern, never the curves themselves
    pool = list(range(1, len(order) + 1))
    best_pool: list[int] = list(pool)
    best_inv: Optional[int] = None
    for _ in range(30):
        rng.shuffle(pool)
        inv = 0
        for s in (1, 2):
            overs, unders = [], []
            for key, h in zip(order, pool):
                strand, _q, over, _h = passes[key]
                if strand == s:
                    (overs if over else unders).append(h)
            unders.sort()
            for h in overs:
                inv += bisect_left(unders, h)
        if best_inv is None or inv < best_inv:
            best_inv, best_pool = inv, list(pool)
        if best_inv <= 10:
            break
    for key, h in zip(order, best_pool):
        strand, q, over, _ = passes[key]
        passes[key] = (strand, q, over, h)

    # arcs[(ci, k)] connects pass k to pass k+1 (mod m) inside walk[k+1]
    region_arcs: dict[str, list[tuple[int, int]]] = {"L": [], "M": [], "R": []}
    for ci, walk in enumerate(walks):
        m = len(walk) - 1
        for k in range(max(0, m)):
            region_arcs[walk[k + 1]].append((ci, k))

    # place every region's arc endpoints on a circle, in the cyclic order
    # the region boundary really has, so chord crossings and their signs
    # match a true drawing
    pts: dict[str, dict[tuple[int, int], tuple[float, float]]] = {}
    for region, arcs in region_arcs.items():
        eps_keys: set[tuple[int, int]] = set()
        for ci, k in arcs:
            m = len(walks[ci]) - 1
            eps_keys.add((ci, k))
            eps_keys.add((ci, (k + 1) % m))
        if region == "L":
            ring = sorted(eps_keys, key=lambda p: passes[p][3])
        elif region == "R":
            ring = sorted(eps_keys, key=lambda p: -passes[p][3])
        else:
            ones = sorted(
                (p for p in eps_keys if passes[p][0] == 1),
                key=lambda p: -passes[p][3],
            )
            twos = sorted(
                (p for p in eps_keys if passes[p][0] == 2),
                key=lambda p: passes[p][3],
            )
            ring = ones + twos
        count = max(1, len(ring))
        # jitter each endpoint inside its slot: an evenly spaced ring makes
        # symmetric chord triples exactly concurrent, and a triple point
        # records crossing orders along the arcs that no drawing has
        pts[region] = {}
        for i, p in enumerate(ring):
            ang = 2 * pi * (i + 0.15 + 0.7 * rng.random()) / count
            pts[region][p] = (Fraction(cos(ang)), Fraction(sin(ang)))

    # intersect arcs region by region
    arc_hits: dict[tuple[int, int], list[tuple[float, int, bool]]] = {}
    signs: dict[int, int] = {}
    next_id = 1
    for region, arcs in region_arcs.items():
        table = pts[region]
        ends = {}
        for a in arcs:
            ci, k = a
            m = len(walks[ci]) - 1
            ends[a] = (table[(ci, k)], table[(ci, (k + 1) % m)])
        for a, b in combinations(arcs, 2):
            hit = _segment_cross(*ends[a], *ends[b])
            if hit is None:
                continue
            t, u = hit
            cid = next_id
            next_id += 1
            a_over = rng.random() < 0.5
            da = (
                ends[a][1][0] - ends[a][0][0],
                ends[a][1][1] - ends[a][0][1],
            )
            db = (
                ends[b][1][0] - ends[b][0][0],
                ends[b][1][1] - ends[b][0][1],
            )
            over_d, under_d = (da, db) if a_over else (db, da)
            signs[cid] = 1 if over_d[0] * under_d[1] - over_d[1] * under_d[0] > 0 else -1
            arc_hits.setdefault(a, []).append((t, cid, a_over))
            arc_hits.setdefault(b, []).append((u, cid, not a_over))

    # a parameter tie would leave the crossing order along an arc up to the
    # sort's whim; only true concurrency can produce one now, so resample
    for hits in arc_hits.values():
        params = [t for t, _cid, _o in hits]
        if len(params) != len(set(params)):
            return None

    base = len(order)
    components = []
    for ci, walk in enumerate(walks):
        m = len(walk) - 1
        codes: list[int] = []
        heights: list[int] = []
        for k in range(max(0, m)):
            strand, q, over, h = passes[(ci, k)]
            codes.append(pass_code(f"{'O' if over else 'U'}{strand}", q))
            heights.append(h)
            for _t, cid, over_here in sorted(arc_hits.get((ci, k), [])):
                codes.append(crossing_code(cid, over_here))
                heights.append(base + cid)
        components.append(Component(tuple(codes), tuple(heights)))

    d = SkeinDiagram.make(components, signs)
    problems = validate(d)
    if problems:
        raise InternalInvariantError(
            "generator produced an invalid diagram: " + "; ".join(problems)
        )
    return d


def random_diagram(
    seed: int, max_components: int = 2, max_self_crossings: int = 3
) -> SkeinDiagram:
    """Deterministic valid diagram with at most the requested sizes."""
    if max_components <= 0:
        return SkeinDiagram.make([], {})
    rng = random.Random(seed)
    for _ in range(400):
        d = _build_attempt(rng, max_components)
        if d is not None and len(d.sign_pairs) <= max_self_crossings:
            return d
    # overwhelmingly unlikely; keep the contract deterministic anyway
    loop = Component((pass_code("O1", 3), pass_code("U1", 4)), (1, 2))
    return SkeinDiagram.make([loop], {})


def random_diagram_with_crossings(
    seed: int, low: int, high: int, max_components: int = 2
) -> SkeinDiagram:
    """Search sub-seeds for a diagram whose crossing count lands in range;
    ValueError when none of them does."""
    for k in range(5000):
        d = random_diagram(seed * 10007 + k, max_components, high)
        if low <= len(d.sign_pairs) <= high:
            return d
    raise ValueError(f"no diagram with {low}..{high} crossings found for seed {seed}")


# ---------------------------------------------------------------------------
# metamorphic checks

def check_confluence(d: SkeinDiagram) -> Optional[dict]:
    """Pipeline output must not depend on the crossing resolution order.

    The walk smooths the lowest id first, so each permutation of the ids
    is run by renumbering its crossings 1..r in that order.  The orders
    share one memo for the values of crossing-free diagrams, which no
    order can change; entries keyed with a sign table are dropped after
    each order, so every order expands its crossings anew.
    """
    ids = d.crossing_ids()
    if len(ids) > 5:
        raise ValueError("too many crossings for exhaustive order checking")
    memo: dict = {}
    baseline = None
    baseline_order = None
    for perm in permutations(ids):
        renumbered = renumber_crossings(d, {cid: i for i, cid in enumerate(perm, 1)})
        poly = engine._basis_value(renumbered, memo=memo)
        for key in [k for k in memo if k[1]]:
            del memo[key]
        if baseline is None:
            baseline, baseline_order = poly, perm
        elif poly != baseline:
            return {
                "property": "confluence",
                "order_a": list(baseline_order),
                "order_b": list(perm),
                "value_a": baseline.text(),
                "value_b": poly.text(),
            }
    return None


def _variants(d: SkeinDiagram):
    for li, c in enumerate(d.components):
        if len(c) > 1:
            comps = list(d.components)
            comps[li] = rotate_component(c, 1)
            yield "rotate+1", SkeinDiagram.make(comps, d.signs())
            comps = list(d.components)
            comps[li] = rotate_component(c, len(c) // 2)
            yield "rotate+half", SkeinDiagram.make(comps, d.signs())
            # reversing a component's traversal flips the signs of the
            # crossings it shares with other components
            comps = list(d.components)
            comps[li] = reverse_component(c)
            signs = update_signs_on_reversal(d.signs(), c.codes)
            yield "reverse", SkeinDiagram.make(comps, signs)
    used = {h for c in d.components for h in c.heights if h > 0}
    if used:
        yield "heights*2", relabel_heights(d, {h: 2 * h for h in used})
        yield "heights+7", relabel_heights(d, {h: h + 7 for h in used})
    if len(d.components) > 1:
        yield "components-reversed", SkeinDiagram.make(
            list(d.components)[::-1], d.signs()
        )


def check_encoding_invariance(d: SkeinDiagram) -> Optional[dict]:
    """Rotations, reversals, relabelings, reorderings must leave the value alone."""
    base = engine.run_pipeline(d)
    for name, variant in _variants(d):
        poly = engine.run_pipeline(variant)
        if poly != base:
            return {
                "property": "encoding-invariance",
                "transform": name,
                "value_base": base.text(),
                "value_variant": poly.text(),
            }
    return None


def _with_kink(d: SkeinDiagram, sign: int, over_first: bool) -> SkeinDiagram:
    """``d`` with a kink of the given sign just before entry 0 of its
    first component: the two branches of a new crossing, adjacent, at
    a new height above every other."""
    cid = max(d.crossing_ids(), default=0) + 1
    top = max((h for c in d.components for h in c.heights), default=0) + 1
    c = d.components[0]
    kinked = Component(
        (crossing_code(cid, over_first), crossing_code(cid, not over_first)) + c.codes,
        (top, top) + c.heights,
    )
    signs = d.signs()
    signs[cid] = sign
    return SkeinDiagram.make((kinked,) + d.components[1:], signs)


def check_framing(d: SkeinDiagram) -> Optional[dict]:
    """A kink of sign s must multiply the value by -t^(3 s), whichever of
    its branches comes first."""
    base = engine.run_pipeline(d)
    for sign in (1, -1):
        expected = base.scaled(LaurentPoly.monomial(3 * sign, -1))
        for over_first in (True, False):
            poly = engine.run_pipeline(_with_kink(d, sign, over_first))
            if poly != expected:
                return {
                    "property": "framing",
                    "sign": sign,
                    "over_first": over_first,
                    "value_expected": expected.text(),
                    "value_kinked": poly.text(),
                }
    return None


def write_repro(path: str, d: SkeinDiagram, info: dict) -> None:
    """Persist a failing case as a parseable document with a comment header."""
    lines = [f"# failed property: {info.get('property', 'unknown')}"]
    for key in sorted(info):
        if key != "property":
            lines.append(f"# {key}: {info[key]}")
    lines.append(serialize_diagram(d))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
