"""Array surgery used by crossing resolution.

Four primitive operators act on the pass arrays when a crossing is
smoothed.  With the two branches of the crossing sitting at positions
j1 < j2 (both removed by every operator):

* ``op_split``      - cut out the section strictly between j1 and j2 as
                      its own cycle, keep the outside as another cycle,
* ``op_reverse``    - keep one cycle but traverse the middle section
                      backwards,
* ``op_merge_fwd``  - splice a second cycle into the first, preserving
                      its traversal direction,
* ``op_merge_back`` - splice it in traversed backwards.

The generic functions below work on bare sequences and are applied to
E, I and Q in lockstep by the component-level helpers.  Reversed
sections additionally need their direction codes flipped and the sign
table updated: a crossing with exactly one branch inside a reversed
section changes sign, one with zero or both branches does not.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, TypeVar

from .diagram import Component, PassEntry, SelfPass, _flip_orient
from .errors import InternalInvariantError

T = TypeVar("T")

__all__ = [
    "op_split",
    "op_reverse",
    "op_merge_fwd",
    "op_merge_back",
    "flip_q_codes",
    "update_signs_on_reversal",
    "split_component",
    "reverse_component_section",
    "merge_components_fwd",
    "merge_components_back",
]


def _check_two(x: Sequence, j1: int, j2: int) -> None:
    if not (0 <= j1 < j2 < len(x)):
        raise InternalInvariantError(f"bad section indices {j1},{j2} for length {len(x)}")


def op_split(x: Sequence[T], j1: int, j2: int) -> tuple[list[T], list[T]]:
    """Middle section and outside remainder, entries at j1/j2 dropped."""
    _check_two(x, j1, j2)
    return list(x[j1 + 1 : j2]), list(x[:j1]) + list(x[j2 + 1 :])


def op_reverse(x: Sequence[T], j1: int, j2: int) -> list[T]:
    _check_two(x, j1, j2)
    return list(x[:j1]) + list(x[j1 + 1 : j2])[::-1] + list(x[j2 + 1 :])


def _check_one(x: Sequence, j: int, name: str) -> None:
    if not (0 <= j < len(x)):
        raise InternalInvariantError(f"bad {name} index {j} for length {len(x)}")


def op_merge_fwd(x: Sequence[T], y: Sequence[T], j1: int, j2: int) -> list[T]:
    _check_one(x, j1, "first")
    _check_one(y, j2, "second")
    return list(x[:j1]) + list(y[j2 + 1 :]) + list(y[:j2]) + list(x[j1 + 1 :])


def op_merge_back(x: Sequence[T], y: Sequence[T], j1: int, j2: int) -> list[T]:
    _check_one(x, j1, "first")
    _check_one(y, j2, "second")
    return (
        list(x[:j1])
        + list(y[:j2])[::-1]
        + list(y[j2 + 1 :])[::-1]
        + list(x[j1 + 1 :])
    )


def flip_q_codes(codes: Sequence[int], entries: Sequence[PassEntry]) -> list[int]:
    """Direction-flip a Q section; the E section disambiguates code 4."""
    if len(codes) != len(entries):
        raise InternalInvariantError("Q/E section length mismatch")
    return [_flip_orient(e, q) for e, q in zip(entries, codes)]


def update_signs_on_reversal(
    signs: Mapping[int, int], reversed_section: Iterable[PassEntry]
) -> dict[int, int]:
    """Negate the sign of every crossing with exactly one branch reversed."""
    inside: dict[int, int] = {}
    for e in reversed_section:
        if isinstance(e, SelfPass):
            inside[e.crossing] = inside.get(e.crossing, 0) + 1
    return {
        cid: -s if inside.get(cid, 0) == 1 else s for cid, s in signs.items()
    }


# ---------------------------------------------------------------------------
# component-level wrappers (E/I/Q in lockstep)

def split_component(c: Component, j1: int, j2: int) -> tuple[Component, Component]:
    e_mid, e_out = op_split(c.entries, j1, j2)
    i_mid, i_out = op_split(c.heights, j1, j2)
    q_mid, q_out = op_split(c.orients, j1, j2)
    return Component.make(e_mid, i_mid, q_mid), Component.make(e_out, i_out, q_out)


def reverse_component_section(c: Component, j1: int, j2: int) -> Component:
    """One-cycle smoothing: reversed middle, direction codes flipped there."""
    ents = op_reverse(c.entries, j1, j2)
    heights = op_reverse(c.heights, j1, j2)
    mid_ents = list(c.entries[j1 + 1 : j2])[::-1]
    mid_q = flip_q_codes(list(c.orients[j1 + 1 : j2])[::-1], mid_ents)
    orients = list(c.orients[:j1]) + mid_q + list(c.orients[j2 + 1 :])
    return Component.make(ents, heights, orients)


def merge_components_fwd(cx: Component, cy: Component, j1: int, j2: int) -> Component:
    return Component.make(
        op_merge_fwd(cx.entries, cy.entries, j1, j2),
        op_merge_fwd(cx.heights, cy.heights, j1, j2),
        op_merge_fwd(cx.orients, cy.orients, j1, j2),
    )


def merge_components_back(cx: Component, cy: Component, j1: int, j2: int) -> Component:
    """Two-cycle smoothing that reverses the whole second cycle."""
    ents = op_merge_back(cx.entries, cy.entries, j1, j2)
    heights = op_merge_back(cx.heights, cy.heights, j1, j2)
    y_pre = list(cy.entries[:j2])[::-1]
    y_post = list(cy.entries[j2 + 1 :])[::-1]
    q_pre = flip_q_codes(list(cy.orients[:j2])[::-1], y_pre)
    q_post = flip_q_codes(list(cy.orients[j2 + 1 :])[::-1], y_post)
    orients = list(cx.orients[:j1]) + q_pre + q_post + list(cx.orients[j1 + 1 :])
    return Component.make(ents, heights, orients)
