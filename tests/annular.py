"""An annular oracle at generic t: closed braids wound once around strand 1.

``annular_document`` encodes the closure of an n-braid word as a curve
system in the handlebody.  The crossings sit in a box in region M, the
threads running left to right; the thread at level p (1 at the bottom)
enters M in front of strand 1 (``O1``, Q 3) at height K + p, K being the
number of letters, and the thread leaving the box at level q returns
over it and passes behind strand 1 (``U1``, Q 4) at height K + 2n + 1 - q,
so the top level is innermost, and closes in L.  Every front pass lies
below every behind pass, so every smoothing is already sorted; the
mirror image (every over and under flipped) has n^2 inversions and
drives the sorter.

``annular_bracket`` is the annular Temperley-Lieb state sum (Kauffman,
Topology 26, 1987): for a letter (i, e) the through smoothing gets t^e
and the cup-cap t^-e, a loop that winds around the annulus is x and any
other loop is delta = -t^2 - t^-2.  The skein module of the solid torus
is Z[t, 1/t][x] (Przytycki, Bull. Polish Acad. Sci. Math. 39, 1991).  It
shares no code with g2skein; the value of the mirror image is the same
sum with t -> 1/t.

``swap_strands`` turns the handlebody half a turn about the height axis:
strands 1 and 2 trade places, front and back swap, so every over branch
becomes an under branch, heights and signs stay, and a loop around
strand 1 becomes one around strand 2.  The value of the image is the
same sum with x -> z.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from oracles import delta_power, lp_add, lp_mul, poly_terms


def annular_document(word: list[tuple[int, int]], n: int) -> dict:
    """The closure of ``word`` around strand 1: letters (i, e) cross the
    threads at levels i and i + 1 with sign e, letter k at height k + 1."""
    k_letters = len(word)
    at = list(range(n))  # thread at each level, 0-based
    threads: list[list[tuple[str, int, int]]] = [[("O1", k_letters + p + 1, 3)] for p in range(n)]
    for k, (i, eps) in enumerate(word):
        upward, downward = at[i - 1], at[i]
        front = upward if eps > 0 else downward
        for thread in (upward, downward):
            threads[thread].append((f"X{'+' if thread == front else '-'}{k + 1}", k + 1, 0))
        at[i - 1], at[i] = downward, upward
    for q, thread in enumerate(at):
        threads[thread].append(("U1", k_letters + 2 * n - q, 4))
    components, done = [], set()
    for first in range(n):
        if first in done:
            continue
        entries, thread = [], first
        while thread not in done:  # the thread leaving at level q goes on at level q
            done.add(thread)
            entries += threads[thread]
            thread = at.index(thread)
        components.append({key: [e[ix] for e in entries] for ix, key in enumerate("EIQ")})
    return {"components": components, "U": {str(k + 1): eps for k, (_i, eps) in enumerate(word)}}


def annular_bracket(word: list[tuple[int, int]], n: int) -> dict:
    """{power of x: {exponent of t: coefficient}} of the closure of ``word``."""
    k_letters = len(word)
    total: dict = {}
    for state in product((False, True), repeat=k_letters):  # True: the cup-cap
        # each point (b, p) of the boundary b between letters has an edge on
        # side 0 (towards letter b - 1) and side 1; link maps an end of an
        # edge to its other end
        link: dict = {}
        for b, ((i, _eps), cup) in enumerate(zip(word, state)):
            for p in range(n):
                if not (cup and p in (i - 1, i)):
                    link[b, p, 1], link[b + 1, p, 0] = (b + 1, p, 0), (b, p, 1)
            if cup:
                for end in ((b, 1), (b + 1, 0)):
                    link[end[0], i - 1, end[1]] = (end[0], i, end[1])
                    link[end[0], i, end[1]] = (end[0], i - 1, end[1])
        for p in range(n):  # the closure runs from the last boundary to the first
            link[k_letters, p, 1], link[0, p, 0] = (0, p, 0), (k_letters, p, 1)
        seen: set = set()
        around = trivial = 0
        for b, p in product(range(k_letters + 1), range(n)):
            if (b, p) in seen:
                continue
            winding, end = 0, (b, p, 1)
            while True:
                seen.add(end[:2])
                winding += (end[0] == k_letters and end[2] == 1) - (end[0] == 0 and end[2] == 0)
                far = link[end]
                end = (far[0], far[1], 1 - far[2])
                if end == (b, p, 1):
                    break
            if winding:
                around += 1
            else:
                trivial += 1
        exp = sum(-eps if cup else eps for (_i, eps), cup in zip(word, state))
        lp_add(total.setdefault(around, {}), lp_mul({exp: 1}, delta_power(trivial)))
    return {power: coeff for power, coeff in total.items() if coeff}


# (token, Q) of each strand pass under the half turn; it is an involution
_SWAP = {("O1", 3): ("U2", 5), ("O1", 4): ("U2", 4), ("U1", 3): ("O2", 5), ("U1", 4): ("O2", 4)}
_SWAP.update({image: pas for pas, image in _SWAP.items()})


def swap_strands(doc: dict) -> dict:
    """The image of ``doc`` under the half turn that swaps the strands."""
    comps = []
    for c in doc["components"]:
        pairs = [
            (("X-" if tok[1] == "+" else "X+") + tok[2:], q) if tok.startswith("X") else _SWAP[tok, q]
            for tok, q in zip(c["E"], c["Q"])
        ]
        comps.append({"E": [tok for tok, _q in pairs], "I": list(c["I"]), "Q": [q for _tok, q in pairs]})
    return {"components": comps, "U": dict(doc["U"])}


def annular_failure(poly_obj: dict, expected: dict, around: str = "x") -> Optional[str]:
    """None when the pipeline's JSON value is ``expected``, read as powers
    of the loop ``around`` ("x", or "z" for a swapped closure)."""
    got = poly_terms(poly_obj)
    slot = "xz".index(around) * 2
    want = {tuple(power if i == slot else 0 for i in range(4)): coeff for power, coeff in expected.items()}
    if got != want:
        return f"value {sorted(got.items())} != state sum {sorted(want.items())}"
    return None
