"""Skein data model: packed pass codes, validation, serialization, canonical key.

A diagram lives in a genus-2 handlebody pictured as a thickened disk with
two vertical base strands (strand 1 on the left, strand 2 on the right)
that cut the disk into the regions L, M and R.  Each link component is
traversed, and the points of interest met on the way are listed: passes
across a base strand (in front of it or behind it) and branches of
self-crossings.  The document form records a component as three
parallel arrays:

* ``E`` - the pass tokens: ``O1``/``U1`` in front of / behind strand 1,
  ``O2``/``U2`` the same for strand 2, ``X+n``/``X-n`` the over/under
  branch of self-crossing n,
* ``I`` - the height of each point, measured bottom-to-top; both branches
  of a self-crossing share one height, every other height is unique,
* ``Q`` - direction codes for strand passes (strand 1: 3 = L to M,
  4 = M to L; strand 2: 4 = M to R, 5 = R to M) and 0 on self-crossing
  branches.

In memory a ``Component`` holds two tuples, ``codes`` and ``heights``:
each (E, Q) pair is packed into one integer code.  A strand pass has a
code 0..7 whose bit 0 is its direction (set for right to left), bit 1
is set on strand 2 and bit 2 for a pass behind the strand; the two
branches of crossing n have codes -2n (over) and -2n-1 (under).
Traversing a section backwards flips bit 0 of its strand codes.

Taken cyclically, the strand passes of a component chain through the
regions: each pass starts in the region the previous one entered.  A
crossing branch lies in the region its component's previous strand
pass entered, and both branches of a crossing lie in one region.

``dedup_key`` names a diagram up to re-encoding, starting each
component at its lowest entry, so no rotation is searched for.  Its
text is, per component, codes k as chr(k + 2R + 3) (R crossings) and
ranks i as chr(i), each run ended by "\0", so ``engine.dedup`` orders
texts of one R and height set as (codes, ranks) tuples.  Past 0x10FFFF
values take two digits each, after a "\1" no one-digit text starts with.

The table ``U`` maps each self-crossing id to its sign.  An id is
written in decimal with no sign, space or leading zero, in ``X`` tokens
and ``U`` keys alike.  Text form is a small JSON document; see
``parse_diagram``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import SkeinFormatError, SkeinValidationError
from .laurent import LaurentPoly

__all__ = [
    "Component",
    "SkeinDiagram",
    "Term",
    "crossing_code",
    "pass_code",
    "pass_token",
    "parse_diagram",
    "serialize_diagram",
    "validate",
    "require_valid",
    "rotate_component",
    "reverse_component",
    "relabel_heights",
    "renumber_crossings",
    "strand_passes",
    "height_ranks",
    "dedup_key",
]

# the (E token, Q value) pair of each strand code 0..7
_STRAND_PASSES = (
    ("O1", 3), ("O1", 4), ("O2", 4), ("O2", 5),
    ("U1", 3), ("U1", 4), ("U2", 4), ("U2", 5),
)
_STRAND_CODES = {pair: k for k, pair in enumerate(_STRAND_PASSES)}
# the region each strand code leaves and the one it enters
_REGIONS = ("LM", "ML", "MR", "RM", "LM", "ML", "MR", "RM")
# the one spelling of a crossing id, in X tokens and U keys alike; at most
# 18 digits, well inside the length ``int`` converts from a string
_CROSSING_ID = re.compile(r"[1-9][0-9]{0,17}")


def crossing_code(cid: int, over: bool) -> int:
    """The code of the over or under branch of crossing ``cid``."""
    return -2 * cid - (not over)


def pass_code(token: str, q: int) -> Optional[int]:
    """Pack an ``E`` token and its ``Q`` value into one code; None when
    ``q`` is not a direction code of that token."""
    if token[:2] in ("X+", "X-") and _CROSSING_ID.fullmatch(token, 2):
        return crossing_code(int(token[2:]), token[1] == "+") if q == 0 else None
    if token not in ("O1", "U1", "O2", "U2"):
        raise SkeinFormatError(f"bad pass token {token!r}")
    return _STRAND_CODES.get((token, q))


def pass_token(k: int) -> tuple[str, int]:
    """The ``E`` token and ``Q`` value that code ``k`` packs."""
    if k >= 0:
        return _STRAND_PASSES[k]
    return f"X{'-' if k & 1 else '+'}{-k >> 1}", 0


@dataclass(frozen=True)
class Component:
    """One closed component: parallel tuples of pass codes and heights."""

    codes: tuple[int, ...]
    heights: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class SkeinDiagram:
    """A full multi-component diagram plus the sign table for crossings.

    Both fields are tuples, so the whole value stays hashable; the sign
    table is its (id, sign) pairs in strictly ascending id order, which
    ``validate`` checks.
    """

    components: tuple[Component, ...]
    sign_pairs: tuple[tuple[int, int], ...]
    # per-object scratch cache for derived data (strand passes, height
    # ranks, sort state, clean validation verdict); excluded from equality
    # and hashing, mutated in place
    _memo: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class Term:
    """One summand of the evolving expression."""

    coeff: LaurentPoly
    diagram: SkeinDiagram


# ---------------------------------------------------------------------------
# parsing / serialization

def _component_from_obj(obj: object, index: int) -> Component:
    if not isinstance(obj, dict):
        raise SkeinFormatError(f"component {index} is not an object")
    for key in ("E", "I", "Q"):
        if key not in obj:
            raise SkeinFormatError(f"component {index} lacks array {key}")
        if not isinstance(obj[key], list):
            raise SkeinFormatError(f"component {index} field {key} is not an array")
    tokens, heights, dirs = obj["E"], obj["I"], obj["Q"]
    for tok in tokens:
        if not isinstance(tok, str):
            raise SkeinFormatError(f"component {index}: E tokens must be strings")
    for arr, name in ((heights, "I"), (dirs, "Q")):
        for v in arr:
            if not isinstance(v, int) or isinstance(v, bool):
                raise SkeinFormatError(f"component {index}: {name} values must be integers")
    if not len(tokens) == len(heights) == len(dirs):
        raise SkeinValidationError([f"length mismatch in component {index}"])
    codes = [pass_code(tok, q) for tok, q in zip(tokens, dirs)]
    bad = [j for j, k in enumerate(codes) if k is None]
    if bad:
        raise SkeinValidationError(
            [f"bad orientation code at component {index} entry {j}" for j in bad]
        )
    return Component(tuple(codes), tuple(heights))


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise SkeinFormatError(f"key {key!r} repeated in one object")
        obj[key] = val
    return obj


def parse_diagram(text: str) -> SkeinDiagram:
    """Parse the JSON document form and validate it.

    Lines starting with ``#`` are skipped, so reproduction files with a
    header comment parse directly.  A key repeated in one object is
    unreadable: no value of it is silently kept.  Raises ``SkeinFormatError`` for
    unreadable input and ``SkeinValidationError`` when the parsed
    diagram breaks a structural rule.
    """
    body = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    try:
        obj = json.loads(body, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too long a number, too deep
        raise SkeinFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SkeinFormatError("top level must be an object")
    comps_obj = obj.get("components")
    if not isinstance(comps_obj, list):
        raise SkeinFormatError('missing or invalid "components" array')
    components = tuple(_component_from_obj(c, i) for i, c in enumerate(comps_obj))
    u_obj = obj.get("U", {})
    if not isinstance(u_obj, dict):
        raise SkeinFormatError('"U" must be an object')
    pairs = []
    for key, val in u_obj.items():
        if not _CROSSING_ID.fullmatch(key):
            raise SkeinFormatError(f"bad crossing id {key!r} in U")
        if not isinstance(val, int) or isinstance(val, bool):
            raise SkeinFormatError(f"sign for crossing {key} must be an integer")
        pairs.append((int(key), val))
    return require_valid(SkeinDiagram(components, tuple(sorted(pairs))))


def serialize_diagram(d: SkeinDiagram) -> str:
    """Canonical one-line JSON form; parse_diagram round-trips it exactly."""
    comps = []
    for c in d.components:
        pairs = [pass_token(k) for k in c.codes]
        comps.append({
            "E": [tok for tok, _q in pairs],
            "I": list(c.heights),
            "Q": [q for _tok, q in pairs],
        })
    obj = {"components": comps, "U": {str(cid): sign for cid, sign in d.sign_pairs}}
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# validation

def validate(d: SkeinDiagram) -> list[str]:
    """Check every structural rule; the returned list is empty when valid."""
    out: list[str] = []
    branches: dict[int, list[tuple]] = {}  # id -> (under bit, height, region)
    owners: dict[int, list[int]] = {}  # height -> crossing id, 0 for a strand pass
    for li, c in enumerate(d.components):
        if len(c.codes) != len(c.heights):
            out.append(f"length mismatch in component {li}")
            continue
        # where the last strand pass went; None (no strand pass) fits any
        region = next((_REGIONS[k][1] for k in reversed(c.codes) if 0 <= k <= 7), None)
        passes = []
        for j, (k, h) in enumerate(zip(c.codes, c.heights)):
            if k > 7 or k == -1:
                out.append(f"bad pass code at component {li} entry {j}")
                continue
            if h < 0:
                out.append(f"negative height at component {li} entry {j}")
            elif h == 0:
                out.append(f"zero height at component {li} entry {j}")
            else:
                owners.setdefault(h, []).append(-k >> 1 if k < 0 else 0)
            if k < 0:
                branches.setdefault(-k >> 1, []).append((k & 1, h, region))
            else:
                passes.append((j, k))
                region = _REGIONS[k][1]
        for (_, prev), (j, k) in zip(passes[-1:] + passes[:-1], passes):
            if _REGIONS[prev][1] != _REGIONS[k][0]:
                out.append(f"region break at component {li} entry {j}")

    for cid, pair in sorted(branches.items()):
        if len(pair) != 2 or pair[0][0] == pair[1][0]:
            out.append(f"unpaired self-crossing {cid}")
        elif pair[0][1] != pair[1][1]:
            out.append(f"self-crossing {cid} height mismatch")
        elif pair[0][2] and pair[1][2] and pair[0][2] != pair[1][2]:
            out.append(f"self-crossing {cid} branches lie in regions {pair[0][2]} and {pair[1][2]}")

    # every nonzero height belongs to one strand pass or to the two
    # branches of one crossing
    for h, ids in sorted(owners.items()):
        if len(ids) == 1 or len(ids) == 2 and ids[0] == ids[1] != 0:
            continue
        if 0 in ids:
            out.append(f"strand height collision at height {h}")
        else:
            out.append(f"height collision at height {h}")

    ids = [cid for cid, _ in d.sign_pairs]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        out.append("sign table ids not strictly ascending")
    if set(branches) != set(ids):
        out.append("sign table key mismatch")
    for cid, sign in d.sign_pairs:
        if sign not in (1, -1):
            out.append(f"bad sign value for crossing {cid}")
    return out


def require_valid(d: SkeinDiagram) -> SkeinDiagram:
    """``d`` itself, once ``validate`` finds it clean; otherwise raise
    ``SkeinValidationError``.  The clean verdict is cached on ``d``, so a
    parsed diagram is not scanned again when it is valued."""
    if "valid" not in d._memo:
        violations = validate(d)
        if violations:
            raise SkeinValidationError(violations)
        d._memo["valid"] = True
    return d


# ---------------------------------------------------------------------------
# symmetries of the encoding

def rotate_component(c: Component, offset: int) -> Component:
    """Start the traversal ``offset`` entries later; same closed curve."""
    if not c.codes:
        return c
    k = offset % len(c)
    return Component(c.codes[k:] + c.codes[:k], c.heights[k:] + c.heights[:k])


def reverse_component(c: Component) -> Component:
    """Traverse the same curve backwards: arrays reversed, directions flipped."""
    codes = tuple([k ^ 1 if k >= 0 else k for k in reversed(c.codes)])
    return Component(codes, c.heights[::-1])


def relabel_heights(d: SkeinDiagram, mapping: Mapping[int, int]) -> SkeinDiagram:
    """Apply an order-preserving relabeling to every nonzero height."""
    used = sorted({h for c in d.components for h in c.heights if h > 0})
    imgs = []
    for h in used:
        if h not in mapping:
            raise SkeinValidationError([f"height {h} missing from relabel mapping"])
        imgs.append(mapping[h])
    if any(b <= a for a, b in zip(imgs, imgs[1:])) or any(v < 1 for v in imgs):
        raise SkeinValidationError(["relabel mapping is not strictly increasing"])
    comps = tuple(
        Component(c.codes, tuple(mapping[h] if h > 0 else 0 for h in c.heights))
        for c in d.components
    )
    return SkeinDiagram(comps, d.sign_pairs)


def renumber_crossings(d: SkeinDiagram, mapping: Mapping[int, int]) -> SkeinDiagram:
    """Give crossing ``cid`` the id ``mapping[cid]``; the curves and the
    signs stay.  The walk smooths the lowest id first, so this is how an
    order of resolution is chosen."""
    imgs = [mapping.get(cid, 0) for cid, _ in d.sign_pairs]
    if len(set(imgs)) != len(imgs) or min(imgs, default=1) < 1:
        raise SkeinValidationError(["renumbering does not map the crossings one-to-one to positive ids"])
    comps = tuple(
        Component(tuple([k if k >= 0 else -2 * mapping[-k >> 1] - (k & 1) for k in c.codes]), c.heights)
        for c in d.components
    )
    return SkeinDiagram(comps, tuple(sorted((mapping[cid], sign) for cid, sign in d.sign_pairs)))


# ---------------------------------------------------------------------------
# canonical key

_BASE = 0x10FFFF  # the largest code point, and the base of two-digit values


def _digits(d: SkeinDiagram, n_heights: int):
    """``chr``, or two digits a value once a rank or code (2R + 10) passes _BASE."""
    if max(n_heights, 2 * len(d.sign_pairs) + 10) <= _BASE:
        return chr
    return lambda v: chr(v // _BASE + 1) + chr(v % _BASE + 1)


def strand_passes(d: SkeinDiagram) -> tuple[list[tuple[int, int, int, int]], ...]:
    """Strand 1's passes and strand 2's, each bottom to top as ``(height,
    component, entry, code)``, crossing branches left out; cached on ``d``."""
    table = d._memo.get("passes")
    if table is None:
        rows: tuple[list, list] = ([], [])
        for li, c in enumerate(d.components):
            for j, (k, h) in enumerate(zip(c.codes, c.heights)):
                if k >= 0:
                    rows[k >> 1 & 1].append((h, li, j, k))
        table = d._memo["passes"] = (sorted(rows[0]), sorted(rows[1]))
    return table


def height_ranks(d: SkeinDiagram) -> dict[int, str]:
    """Each height's rank, 1 for the lowest, as the key writes it; cached on ``d``."""
    rank = d._memo.get("rank")
    if rank is None:
        heights = sorted({h for c in d.components for h in c.heights})
        rank = d._memo["rank"] = dict(zip(heights, map(_digits(d, len(heights)), range(1, len(heights) + 1))))
    return rank


def dedup_key(d: SkeinDiagram) -> tuple:
    """Totally ordered value ``(text, signs)`` naming the diagram's encoding orbit.

    Two diagrams get equal keys exactly when one re-encodes the other:
    heights relabeled order-preservingly, components rotated or
    reordered, crossing ids renumbered, and in a crossing-free diagram
    components traversed backwards (the curves are unoriented; only
    crossing signs depend on the direction).  Keys of any two diagrams
    compare: the walk's memo buckets by key, ``engine.dedup`` orders by it.

    Why it is canonical: each choice reads height ranks and over/under
    only.  Only the two branches of a crossing share a height, so a
    component starts at its one lowest entry, or at the over branch if
    both branches are lowest.  A crossing-free component runs on toward
    its start's lower neighbour (with at most two entries, the lesser
    codes win).  Two components have equal rank runs only when every
    entry is a branch of a crossing they share; their first codes are
    then its under and over branch, so sorting by (ranks, codes) reads
    no crossing id.  Crossings are then numbered by first appearance.
    """
    rank = height_ranks(d)
    digits = _digits(d, len(rank))
    run = "".join if digits is chr else tuple
    comps = []
    for c in d.components:
        codes, ranks, m = c.codes, run(map(rank.__getitem__, c.heights)), len(c.codes)
        if m:
            s = ranks.index(min(ranks))
            k = codes[s]
            if k < 0 and k & 1 and k + 1 in codes:
                s = codes.index(k + 1)
            if not d.sign_pairs and (ranks[s - 1] < ranks[(s + 1) % m] if m > 2 else k & 1):
                codes = tuple([x ^ 1 for x in codes[s::-1] + codes[:s:-1]])
                ranks = ranks[s::-1] + ranks[:s:-1]
            else:
                codes, ranks = codes[s:] + codes[:s], ranks[s:] + ranks[:s]
        comps.append((ranks, codes))
    comps.sort()
    renumber: dict[int, int] = {}
    off = 2 * len(d.sign_pairs) + 3
    text = "".join(["".join([
        digits(off + (k if k >= 0 else -2 * renumber.setdefault(-k >> 1, len(renumber) + 1) - (k & 1)))
        for k in codes
    ]) + "\0" + (ranks if digits is chr else "".join(ranks)) + "\0" for ranks, codes in comps])
    signs = dict(d.sign_pairs)
    return text if digits is chr else "\1" + text, tuple([(nid, signs[old]) for old, nid in renumber.items()])
