"""A filled-ball oracle at generic t: the drawing with both strands deleted.

The genus-2 handlebody sits in a ball, and filling the two base strands
back in maps its skein module to the ball's, which is Z[t, 1/t]
(Przytycki, Bull. Polish Acad. Sci. Math. 39, 1991).  Every basis loop
becomes a trivial one, so a diagram's value at x = y = z = delta =
-t^2 - t^-2 must equal the Kauffman state sum (Topology 26, 1987) of
its drawing with the strands deleted.  A pass in front of or behind a
deleted strand crosses nothing, so the sum runs over the drawn
crossings only: a state gives t^(sum of +-sign) delta^(loops), the
oriented smoothing of a crossing of sign e taking t^e and the other one
t^-e.

Loops are counted on a port graph.  A component's crossing branches cut
it into segments, one from each branch to the next along the
traversal; a smoothing joins the ends of the four segments that meet at
its crossing in two pairs, and a component without branches is one loop
of its own.  The oracle reads only the JSON document and the
pipeline's JSON output, does its own arithmetic with the Laurent
helpers of ``perfbench/oracles.py``, and shares no code with g2skein.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Optional

from oracles import delta_power, lp_add, lp_mul, poly_terms

# 2^12 states; diagrams with more crossings are left to the other checks
MAX_CROSSINGS = 12


def filled_ball_bracket(doc: dict) -> dict:
    """{exponent of t: coefficient} of the state sum of ``doc``'s drawing
    without its strands."""
    # (crossing id, over) -> (segment arriving at the branch, segment leaving it)
    ports: dict = {}
    segments = loose = 0
    for comp in doc["components"]:
        branches = [tok for tok in comp["E"] if tok.startswith("X")]
        if not branches:
            loose += 1
        for i, tok in enumerate(branches):
            ports[int(tok[2:]), tok[1] == "+"] = (segments + (i - 1) % len(branches), segments + i)
        segments += len(branches)
    signs = sorted((int(cid), sign) for cid, sign in doc["U"].items())
    states: Counter = Counter()  # (exponent of t, loops) -> states
    root = list(range(segments))  # union-find over the segments of one state

    def find(s: int) -> int:
        while root[s] != s:
            root[s] = root[root[s]]
            s = root[s]
        return s

    for state in product((True, False), repeat=len(signs)):
        root[:] = range(segments)
        exponent = 0
        for (cid, sign), oriented in zip(signs, state):
            (in_over, out_over), (in_under, out_under) = ports[cid, True], ports[cid, False]
            if oriented:  # each incoming end goes on along the other branch
                joins, exponent = ((in_over, out_under), (in_under, out_over)), exponent + sign
            else:
                joins, exponent = ((in_over, in_under), (out_over, out_under)), exponent - sign
            for a, b in joins:
                root[find(a)] = find(b)
        states[exponent, loose + sum(find(s) == s for s in range(segments))] += 1
    total: dict = {}
    for (exponent, loops), n in states.items():
        lp_add(total, {e + exponent: c * n for e, c in delta_power(loops).items()})
    return total


def filled_ball_failure(doc: dict, poly_obj: dict) -> Optional[str]:
    """None when the pipeline's value of ``doc`` at x = y = z = delta is
    the state sum of its drawing without the strands; else what differs."""
    got: dict = {}
    for (x, y, z, unknot), coeff in poly_terms(poly_obj).items():
        lp_add(got, lp_mul(coeff, delta_power(x + y + z + unknot)))
    expected = filled_ball_bracket(doc)
    if got != expected:
        return f"value at x = y = z = delta {sorted(got.items())} != state sum {sorted(expected.items())}"
    return None
