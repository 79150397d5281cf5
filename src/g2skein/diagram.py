"""Skein data model: pass arrays, validation, serialization, canonical key.

A diagram lives in a genus-2 handlebody pictured as a thickened disk with
two vertical base strands (strand 1 on the left, strand 2 on the right).
Each link component is recorded as three parallel arrays:

* ``E`` - the points of interest met while traversing the component: a
  pass across a base strand (in front of it or behind it) or one branch
  of a self-crossing,
* ``I`` - the height of each point, measured bottom-to-top; both branches
  of a self-crossing share one height, every other height is unique,
* ``Q`` - direction codes for strand passes (strand 1: 3 = left-to-right,
  4 = right-to-left; strand 2: 4 = left-to-right, 5 = right-to-left) and
  0 on self-crossing branches.

The table ``U`` maps each self-crossing id to its sign.  Text form is a
small JSON document; see ``parse_diagram``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import SkeinFormatError, SkeinValidationError
from .laurent import LaurentPoly

__all__ = [
    "StrandPass",
    "SelfPass",
    "PassEntry",
    "Component",
    "SkeinDiagram",
    "Term",
    "Expression",
    "parse_token",
    "format_token",
    "parse_diagram",
    "serialize_diagram",
    "validate",
    "rotate_component",
    "reverse_component",
    "relabel_heights",
    "dedup_key",
]


@dataclass(frozen=True)
class StrandPass:
    """One pass across a base strand.  ``over`` means in front of it."""

    strand: int
    over: bool


@dataclass(frozen=True)
class SelfPass:
    """One branch of a self-crossing.  ``over`` marks the front branch."""

    crossing: int
    over: bool


PassEntry = Union[StrandPass, SelfPass]

_TOKEN_RE = re.compile(r"^(?:([OU])([12])|X([+-])([1-9][0-9]*))$")


def parse_token(tok: str) -> PassEntry:
    m = _TOKEN_RE.match(tok)
    if not m:
        raise SkeinFormatError(f"bad pass token {tok!r}")
    if m.group(1):
        return StrandPass(strand=int(m.group(2)), over=m.group(1) == "O")
    return SelfPass(crossing=int(m.group(4)), over=m.group(3) == "+")


def format_token(entry: PassEntry) -> str:
    if isinstance(entry, StrandPass):
        return f"{'O' if entry.over else 'U'}{entry.strand}"
    return f"X{'+' if entry.over else '-'}{entry.crossing}"


@dataclass(frozen=True)
class Component:
    """One closed component: parallel tuples of entries, heights, codes."""

    entries: tuple[PassEntry, ...]
    heights: tuple[int, ...]
    orients: tuple[int, ...]

    @staticmethod
    def make(
        entries: Sequence[PassEntry],
        heights: Sequence[int],
        orients: Sequence[int],
    ) -> "Component":
        return Component(tuple(entries), tuple(heights), tuple(orients))

    def __len__(self) -> int:
        return len(self.entries)

    def triples(self) -> Iterator[tuple[PassEntry, int, int]]:
        return zip(self.entries, self.heights, self.orients)

    def tokens(self) -> tuple[str, ...]:
        return tuple(format_token(e) for e in self.entries)

    def strand_pass_count(self) -> int:
        return sum(1 for e in self.entries if isinstance(e, StrandPass))


@dataclass(frozen=True)
class SkeinDiagram:
    """A full multi-component diagram plus the sign table for crossings.

    Signs are stored as a sorted tuple of (id, sign) pairs so the whole
    value stays hashable; ``signs()`` gives the mapping view.
    """

    components: tuple[Component, ...]
    sign_pairs: tuple[tuple[int, int], ...]
    # per-object scratch cache for derived data (canonical key, pooled
    # heights); excluded from equality and hashing, mutated in place
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def make(
        components: Sequence[Component],
        signs: Mapping[int, int] | None = None,
    ) -> "SkeinDiagram":
        pairs = tuple(sorted((signs or {}).items()))
        return SkeinDiagram(tuple(components), pairs)

    def signs(self) -> dict[int, int]:
        return dict(self.sign_pairs)

    def crossing_ids(self) -> list[int]:
        return [cid for cid, _ in self.sign_pairs]

    def strand_pass_count(self) -> int:
        return sum(c.strand_pass_count() for c in self.components)


@dataclass(frozen=True)
class Term:
    """One summand of the evolving expression."""

    coeff: LaurentPoly
    diagram: SkeinDiagram


Expression = list


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
    entries = []
    for tok in obj["E"]:
        if not isinstance(tok, str):
            raise SkeinFormatError(f"component {index}: E tokens must be strings")
        entries.append(parse_token(tok))
    for arr, name in ((obj["I"], "I"), (obj["Q"], "Q")):
        for v in arr:
            if not isinstance(v, int) or isinstance(v, bool):
                raise SkeinFormatError(f"component {index}: {name} values must be integers")
    return Component.make(entries, obj["I"], obj["Q"])


def parse_diagram(text: str) -> SkeinDiagram:
    """Parse the JSON document form and validate it.

    Lines starting with ``#`` are skipped, so reproduction files with a
    header comment parse directly.  Raises ``SkeinFormatError`` for
    unreadable input and ``SkeinValidationError`` when the parsed
    diagram breaks a structural rule.
    """
    body = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    try:
        obj = json.loads(body)
    except json.JSONDecodeError as exc:
        raise SkeinFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SkeinFormatError("top level must be an object")
    comps_obj = obj.get("components")
    if not isinstance(comps_obj, list):
        raise SkeinFormatError('missing or invalid "components" array')
    components = [_component_from_obj(c, i) for i, c in enumerate(comps_obj)]
    u_obj = obj.get("U", {})
    if not isinstance(u_obj, dict):
        raise SkeinFormatError('"U" must be an object')
    signs: dict[int, int] = {}
    for key, val in u_obj.items():
        try:
            cid = int(key)
        except ValueError:
            raise SkeinFormatError(f"bad crossing id {key!r} in U") from None
        if not isinstance(val, int) or isinstance(val, bool):
            raise SkeinFormatError(f"sign for crossing {key} must be an integer")
        signs[cid] = val
    diagram = SkeinDiagram.make(components, signs)
    violations = validate(diagram)
    if violations:
        raise SkeinValidationError(violations)
    return diagram


def serialize_diagram(d: SkeinDiagram) -> str:
    """Canonical one-line JSON form; parse_diagram round-trips it exactly."""
    obj = {
        "components": [
            {"E": list(c.tokens()), "I": list(c.heights), "Q": list(c.orients)}
            for c in d.components
        ],
        "U": {str(cid): sign for cid, sign in d.sign_pairs},
    }
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# validation

def _entry_orient_ok(entry: PassEntry, q: int) -> bool:
    if isinstance(entry, SelfPass):
        return q == 0
    if entry.strand == 1:
        return q in (3, 4)
    return q in (4, 5)


def validate(d: SkeinDiagram) -> list[str]:
    """Check every structural rule; the returned list is empty when valid."""
    out: list[str] = []
    for li, c in enumerate(d.components):
        if not (len(c.entries) == len(c.heights) == len(c.orients)):
            out.append(f"length mismatch in component {li}")
            continue
        for j, (entry, h, q) in enumerate(c.triples()):
            if isinstance(entry, StrandPass) and entry.strand not in (1, 2):
                out.append(f"bad strand at component {li} entry {j}")
            if isinstance(entry, SelfPass) and entry.crossing < 1:
                out.append(f"bad crossing id at component {li} entry {j}")
            if not _entry_orient_ok(entry, q):
                out.append(f"bad orientation code at component {li} entry {j}")
            if h < 0:
                out.append(f"negative height at component {li} entry {j}")
            elif h == 0:
                out.append(f"zero height at component {li} entry {j}")

    # pair up self-crossing branches
    by_id: dict[int, list[tuple[bool, int]]] = {}
    for c in d.components:
        if not (len(c.entries) == len(c.heights) == len(c.orients)):
            continue
        for entry, h, _q in c.triples():
            if isinstance(entry, SelfPass):
                by_id.setdefault(entry.crossing, []).append((entry.over, h))
    for cid, branches in sorted(by_id.items()):
        if len(branches) != 2 or {b[0] for b in branches} != {True, False}:
            out.append(f"unpaired self-crossing {cid}")
        elif branches[0][1] != branches[1][1]:
            out.append(f"self-crossing {cid} height mismatch")

    # height uniqueness: every nonzero height belongs to one strand pass
    # or to the two branches of one crossing
    owners: dict[int, list[tuple]] = {}
    for c in d.components:
        if not (len(c.entries) == len(c.heights) == len(c.orients)):
            continue
        for entry, h, _q in c.triples():
            if h > 0:
                key = ("x", entry.crossing) if isinstance(entry, SelfPass) else ("s",)
                owners.setdefault(h, []).append(key)
    for h, ks in sorted(owners.items()):
        if len(ks) == 1:
            continue
        crossings = {k[1] for k in ks if k[0] == "x"}
        if len(ks) == 2 and len(crossings) == 1 and all(k[0] == "x" for k in ks):
            continue
        if any(k[0] == "s" for k in ks):
            out.append(f"strand height collision at height {h}")
        else:
            out.append(f"height collision at height {h}")

    ids_present = set(by_id)
    ids_signed = {cid for cid, _ in d.sign_pairs}
    if ids_present != ids_signed:
        out.append("sign table key mismatch")
    for cid, sign in d.sign_pairs:
        if sign not in (1, -1):
            out.append(f"bad sign value for crossing {cid}")
    return out


# ---------------------------------------------------------------------------
# symmetries of the encoding

def rotate_component(c: Component, offset: int) -> Component:
    """Start the traversal ``offset`` entries later; same closed curve."""
    m = len(c)
    if m == 0:
        return c
    k = offset % m
    return Component(
        c.entries[k:] + c.entries[:k],
        c.heights[k:] + c.heights[:k],
        c.orients[k:] + c.orients[:k],
    )


def _flip_orient(entry: PassEntry, q: int) -> int:
    if isinstance(entry, SelfPass):
        return 0
    if entry.strand == 1:
        return 7 - q  # 3 <-> 4
    return 9 - q  # 4 <-> 5


def reverse_component(c: Component) -> Component:
    """Traverse the same curve backwards: arrays reversed, directions flipped."""
    ents = c.entries[::-1]
    orients = tuple(_flip_orient(e, q) for e, q in zip(ents, c.orients[::-1]))
    return Component(ents, c.heights[::-1], orients)


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
    comps = [
        Component(c.entries, tuple(mapping[h] if h > 0 else 0 for h in c.heights), c.orients)
        for c in d.components
    ]
    return SkeinDiagram.make(comps, d.signs())


# ---------------------------------------------------------------------------
# canonical key

def _blind_code(entry: PassEntry) -> int:
    # crossing ids are erased here; the shared height in I keeps branch
    # pairs identifiable, so the comparison stays id-renumbering-proof
    if isinstance(entry, StrandPass):
        return (0 if entry.over else 2) + (entry.strand - 1)
    return 4 if entry.over else 5


def _least_rotation(codes: tuple, rh: tuple, q: tuple, ents: tuple) -> tuple:
    """The four parallel sequences of a component at its least rotation."""
    # the least rotation starts at the least code; only those compete
    low = min(codes, default=None)
    starts = [k for k in range(len(codes)) if codes[k] == low]
    best = starts[0] if len(starts) == 1 else min(
        starts,
        key=lambda k: (codes[k:] + codes[:k], rh[k:] + rh[:k], q[k:] + q[:k]),
        default=0,
    )
    return (
        codes[best:] + codes[:best],
        rh[best:] + rh[:best],
        q[best:] + q[:best],
        ents[best:] + ents[:best],
    )


def dedup_key(d: SkeinDiagram) -> tuple:
    """Totally ordered value naming the diagram's encoding orbit.

    Two diagrams get equal keys exactly when one re-encodes the other:
    heights relabeled order-preservingly, components rotated or
    reordered, crossing ids renumbered, and in a crossing-free diagram
    components traversed backwards (the curves are unoriented; only
    crossing signs depend on the direction).  Keys of any two diagrams
    compare without type errors, so the key serves both for bucketing
    and for deterministic ordering.
    """
    cached = d._memo.get("key")
    if cached is not None:
        return cached
    used = sorted({h for c in d.components for h in c.heights if h > 0})
    rank = {h: i + 1 for i, h in enumerate(used)}
    comps = []
    for c in d.components:
        codes = tuple(_blind_code(e) for e in c.entries)
        rh = tuple(rank[h] if h > 0 else 0 for h in c.heights)
        item = _least_rotation(codes, rh, c.orients, c.entries)
        if not d.sign_pairs:
            back = reverse_component(c)
            item = min(
                item,
                _least_rotation(codes[::-1], rh[::-1], back.orients, back.entries),
                key=lambda it: it[:3],
            )
        comps.append(item)
    comps.sort(key=lambda item: item[:3])
    renumber: dict[int, int] = {}
    keyed = []
    for codes, rh, q, ents in comps:
        full = []
        for e in ents:
            if isinstance(e, SelfPass):
                nid = renumber.setdefault(e.crossing, len(renumber) + 1)
                full.append((1, nid, 1 if e.over else 0))
            else:
                full.append((0, e.strand, 1 if e.over else 0))
        keyed.append((tuple(full), rh, q))
    signs = d.signs()
    new_signs = tuple(sorted((nid, signs[old]) for old, nid in renumber.items()))
    key = (tuple(keyed), new_signs)
    d._memo["key"] = key
    return key
