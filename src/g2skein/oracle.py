"""Verification harness: seeded diagram generation and metamorphic checks.

``random_diagram`` draws actual closed curves rather than sampling raw
arrays.  Each component is a random closed walk over the three regions
cut out by the two base strands; the walk's strand crossings become the
passes, and the connecting arcs are embedded as chords of a disk per
region so that arc intersections, and with them the self-crossings and
their signs, come from honest geometry.  Every generated encoding is
therefore realizable by a real curve system, which the classifier
relies on.

Of the height shuffles, the generator keeps the draw with the fewest
inversions as the sorter counts them (``sorter.sort_state``).  The
benchmark's inputs and the golden values are built from these diagrams,
so a test pins a digest of the generator's output.

The check functions re-run the whole pipeline under transformations
that must not change the result: crossing renumberings, which choose
the order of resolution, and the encoding symmetries (rotation,
reversal, height relabeling, component order).  The framing check adds
a kink, which must multiply the value by -t^(3 sign) for every t, not
only at t = -1.  Each check is a list of cases, (label, diagram,
expected value), run by one loop that reports the first failure as
``{"property", "case", "value_expected", "value_found"}``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import cos, pi, sin
from typing import Optional

from .diagram import (
    _REGIONS,
    Component,
    SkeinDiagram,
    crossing_code,
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
from .sorter import sort_state
from . import engine

__all__ = [
    "random_diagram",
    "random_diagram_with_crossings",
    "check_confluence",
    "check_encoding_invariance",
    "check_framing",
    "repro_text",
]

# ``check_confluence`` runs every resolution order, r! of them, only up
# to this many crossings
CONFLUENCE_MAX_CROSSINGS = 5

_NEXT_REGION = {"L": ["M"], "R": ["M"], "M": ["L", "R"]}

# the order of the strand passes around each region's boundary: strand 1
# upward in L and downward in M, then strand 2 upward in M and downward
# in R; keyed by (region, strand index), index 0 for strand 1
_RING_DIRECTION = {("L", 0): 1, ("M", 0): -1, ("M", 1): 1, ("R", 1): -1}


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


def _segment_cross(p1, p2, p3, p4) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """Parameters (t, u) of a proper crossing of p1p2 with p3p4, if any,
    and the determinant of their directions (positive when p3p4 runs to
    the left of p1p2).

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
        return t, u, den
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

    # codes[(ci, k)]: pass k of component ci, from walk[k] into walk[k+1]
    codes: dict[tuple[int, int], int] = {}
    for ci, walk in enumerate(walks):
        for k in range(len(walk) - 1):
            front = _REGIONS.index(walk[k] + walk[k + 1])
            codes[(ci, k)] = front if rng.random() < 0.5 else front | 4
    order = list(codes)
    # sorting cost grows steeply with the number of height inversions, so
    # resample the height shuffle a few times and keep the mildest draw,
    # counted by the sorter itself on the bare strand passes; this shapes
    # only the height pattern, never the curves themselves
    passes = tuple(codes.values())
    pool = list(range(1, len(order) + 1))
    best_pool: list[int] = list(pool)
    best_inv: Optional[int] = None
    for _ in range(30):
        rng.shuffle(pool)
        inv = sort_state(SkeinDiagram((Component(passes, tuple(pool)),), ()))[0]
        if best_inv is None or inv < best_inv:
            best_inv, best_pool = inv, list(pool)
        if best_inv <= 10:
            break
    height = dict(zip(order, best_pool))

    def after(p: tuple[int, int]) -> tuple[int, int]:
        return p[0], (p[1] + 1) % (len(walks[p[0]]) - 1)

    # arc (ci, k) connects pass k to pass k+1 (mod m) inside walk[k+1]
    region_arcs: dict[str, list[tuple[int, int]]] = {"L": [], "M": [], "R": []}
    for ci, k in order:
        region_arcs[walks[ci][k + 1]].append((ci, k))

    # place every region's arc endpoints on a circle, in the cyclic order
    # the region boundary really has, so chord crossings and their signs
    # match a true drawing
    pts: dict[str, dict[tuple[int, int], tuple[Fraction, Fraction]]] = {}
    for region, arcs in region_arcs.items():
        ring = sorted({p for a in arcs for p in (a, after(a))}, key=lambda p: (
            codes[p] >> 1 & 1, _RING_DIRECTION[region, codes[p] >> 1 & 1] * height[p]))
        count = max(1, len(ring))
        # jitter each endpoint inside its slot: an evenly spaced ring makes
        # symmetric chord triples exactly concurrent, and a triple point
        # records crossing orders along the arcs that no drawing has
        angles = [2 * pi * (i + 0.15 + 0.7 * rng.random()) / count for i in range(len(ring))]
        pts[region] = {p: (Fraction(cos(a)), Fraction(sin(a))) for p, a in zip(ring, angles)}

    # intersect arcs region by region; a crossing is positive when its
    # under arc runs to the left of its over arc
    arc_hits: dict[tuple[int, int], list[tuple[Fraction, int, bool]]] = {}
    signs: list[tuple[int, int]] = []  # (id, sign), ids ascending
    for region, arcs in region_arcs.items():
        table = pts[region]
        for a, b in combinations(arcs, 2):
            hit = _segment_cross(table[a], table[after(a)], table[b], table[after(b)])
            if hit is None:
                continue
            t, u, det = hit
            cid = len(signs) + 1
            a_over = rng.random() < 0.5
            signs.append((cid, 1 if (det > 0) == a_over else -1))
            arc_hits.setdefault(a, []).append((t, cid, a_over))
            arc_hits.setdefault(b, []).append((u, cid, not a_over))

    # a parameter tie would leave the crossing order along an arc up to the
    # sort's whim; only true concurrency can produce one now, so resample
    if any(len(hits) != len({t for t, _c, _o in hits}) for hits in arc_hits.values()):
        return None

    base = len(order)
    components = []
    for ci, walk in enumerate(walks):
        entries: list[tuple[int, int]] = []
        for k in range(len(walk) - 1):
            entries.append((codes[ci, k], height[ci, k]))
            for _t, cid, over_here in sorted(arc_hits.get((ci, k), [])):
                entries.append((crossing_code(cid, over_here), base + cid))
        components.append(Component(tuple(k for k, _ in entries), tuple(h for _, h in entries)))

    d = SkeinDiagram(tuple(components), tuple(signs))
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
        return SkeinDiagram((), ())
    rng = random.Random(seed)
    for _ in range(400):
        d = _build_attempt(rng, max_components)
        if d is not None and len(d.sign_pairs) <= max_self_crossings:
            return d
    # overwhelmingly unlikely; keep the contract deterministic anyway
    loop = Component((0, 5), (1, 2))  # in front of strand 1, back behind it
    return SkeinDiagram((loop,), ())


def random_diagram_with_crossings(seed: int, low: int, high: int) -> SkeinDiagram:
    """Search sub-seeds for a diagram of at most two components whose
    crossing count lands in range; ValueError when none of them does."""
    for k in range(5000):
        d = random_diagram(seed * 10007 + k, 2, high)
        if low <= len(d.sign_pairs) <= high:
            return d
    raise ValueError(f"no diagram with {low}..{high} crossings found for seed {seed}")


# ---------------------------------------------------------------------------
# metamorphic checks

def _first_failure(prop: str, value, cases) -> Optional[dict]:
    """The first of ``cases``, (label, diagram, expected value) triples,
    whose ``value`` differs from the expected one, as a failure record;
    None when every case holds."""
    for case, d, expected in cases:
        found = value(d)
        if found != expected:
            return {
                "property": prop,
                "case": case,
                "value_expected": expected.text(),
                "value_found": found.text(),
            }
    return None


def check_confluence(d: SkeinDiagram) -> Optional[dict]:
    """Pipeline output must not depend on the crossing resolution order.

    The walk smooths the lowest id first, so each permutation of the ids
    is run by renumbering its crossings 1..r in that order, and checked
    against the order by ascending id.  The orders share one memo for the
    values of crossing-free diagrams, which no order can change; entries
    keyed with a sign table are dropped after each order, so every order
    expands its crossings anew.
    """
    ids = [cid for cid, _ in d.sign_pairs]
    if len(ids) > CONFLUENCE_MAX_CROSSINGS:
        raise ValueError("too many crossings for exhaustive order checking")
    memo: dict = {}

    def value(x: SkeinDiagram):
        poly = engine._basis_value(x, memo=memo)
        for key in [k for k in memo if k[1]]:
            del memo[key]
        return poly

    orders = (
        (f"order {list(perm)}", renumber_crossings(d, {cid: i for i, cid in enumerate(perm, 1)}))
        for perm in permutations(ids)
    )
    expected = value(next(orders)[1])
    return _first_failure("confluence", value, ((case, x, expected) for case, x in orders))


def _variants(d: SkeinDiagram):
    pairs = d.sign_pairs
    for li, c in enumerate(d.components):
        if len(c) > 1:
            # reversing a component's traversal flips the signs of the
            # crossings it shares with other components
            for name, new, new_pairs in (
                ("rotate+1", rotate_component(c, 1), pairs),
                ("rotate+half", rotate_component(c, len(c) // 2), pairs),
                ("reverse", reverse_component(c), update_signs_on_reversal(pairs, c.codes)),
            ):
                comps = d.components[:li] + (new,) + d.components[li + 1:]
                yield name, SkeinDiagram(comps, new_pairs)
    used = {h for c in d.components for h in c.heights if h > 0}
    if used:
        yield "heights*2", relabel_heights(d, {h: 2 * h for h in used})
        yield "heights+7", relabel_heights(d, {h: h + 7 for h in used})
    if len(d.components) > 1:
        yield "components-reversed", SkeinDiagram(d.components[::-1], pairs)


def check_encoding_invariance(d: SkeinDiagram) -> Optional[dict]:
    """Rotations, reversals, relabelings, reorderings must leave the value alone."""
    base = engine.run_pipeline(d)
    cases = ((name, variant, base) for name, variant in _variants(d))
    return _first_failure("encoding-invariance", engine.run_pipeline, cases)


def _with_kink(d: SkeinDiagram, sign: int, over_first: bool) -> SkeinDiagram:
    """``d`` with a kink of the given sign just before entry 0 of its
    first component: the two branches of a new crossing, adjacent, at
    a new height above every other."""
    cid = d.sign_pairs[-1][0] + 1 if d.sign_pairs else 1
    top = max((h for c in d.components for h in c.heights), default=0) + 1
    c = d.components[0]
    kinked = Component(
        (crossing_code(cid, over_first), crossing_code(cid, not over_first)) + c.codes,
        (top, top) + c.heights,
    )
    return SkeinDiagram((kinked,) + d.components[1:], d.sign_pairs + ((cid, sign),))


def check_framing(d: SkeinDiagram) -> Optional[dict]:
    """A kink of sign s must multiply the value by -t^(3 s), whichever of
    its branches comes first; None when there is no curve to kink."""
    if not d.components:
        return None
    base = engine.run_pipeline(d)
    cases = (
        (
            f"kink {sign:+d}, {'over' if over_first else 'under'} branch first",
            _with_kink(d, sign, over_first),
            base.scaled(LaurentPoly.monomial(3 * sign, -1)),
        )
        for sign in (1, -1)
        for over_first in (True, False)
    )
    return _first_failure("framing", engine.run_pipeline, cases)


def repro_text(d: SkeinDiagram, info: dict) -> str:
    """A failing case as a parseable document with a comment header."""
    lines = [f"# failed property: {info.get('property', 'unknown')}"]
    lines += [f"# {key}: {info[key]}" for key in sorted(info) if key != "property"]
    return "\n".join(lines + [serialize_diagram(d)]) + "\n"
