"""Value checks that share no code with g2skein.

Every check reads the diagram as its JSON document and the pipeline's
answer in its JSON output form (``SkeinPolynomial.to_json_obj``), and
does its own arithmetic on plain ints and dicts.

* ``braid_bracket`` - Kauffman's state sum (Topology 26, 1987) for the
  closure of a braid, as a Temperley-Lieb transfer over the braid word.
  At a crossing of sign e the oriented smoothing (the identity in TL_n)
  gets t^e and the other one (the cup-cap e_i) gets t^-e; every closed
  loop is worth delta = -t^2 - t^-2.
* ``trace_identity_failure`` - at t = -1 the skein algebra of the
  handlebody is the SL2 character ring (Bullock, Comment. Math. Helv. 72,
  1997): with x = -tr A, z = -tr B, y = -tr AB the value must equal the
  product over components of -tr W_c(A, B), W_c read from the front
  passes.
* ``mirror_failure`` - flipping every over/under and every sign must
  map the value under t -> 1/t.
"""

from __future__ import annotations

import json
import random
import re
from typing import Optional

# ---------------------------------------------------------------------------
# integer Laurent polynomials as {exponent: coefficient}, zeros dropped

DELTA = {2: -1, -2: -1}


def lp_add(acc: dict, other: dict) -> dict:
    """acc += other, in place; returns acc."""
    for e, c in other.items():
        v = acc.get(e, 0) + c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)
    return acc


def lp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            v = out.get(e1 + e2, 0) + c1 * c2
            if v:
                out[e1 + e2] = v
            else:
                out.pop(e1 + e2, None)
    return out


def lp_shift(a: dict, k: int) -> dict:
    return {e + k: c for e, c in a.items()}


def delta_power(k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = lp_mul(out, DELTA)
    return out


# ---------------------------------------------------------------------------
# Temperley-Lieb transfer for closed braids

def _compose(lower: tuple, upper: tuple, n: int) -> tuple[tuple, int]:
    """Stack ``upper`` on ``lower``; returns the matching and closed loops.

    A TL_n diagram is a perfect matching of 2n points: 0..n-1 along the
    bottom, n..2n-1 along the top, ``m[p]`` the partner of point p.
    """
    out = [-1] * (2 * n)
    seen_mid = [False] * n
    for start in list(range(n)) + list(range(n, 2 * n)):
        if out[start] >= 0:
            continue
        in_lower, p = start < n, start
        while True:
            q = (lower if in_lower else upper)[p]
            if in_lower and q < n:
                end = q
                break
            if not in_lower and q >= n:
                end = q
                break
            mid = q - n if in_lower else q
            seen_mid[mid] = True
            in_lower, p = not in_lower, (mid if in_lower else mid + n)
        out[start], out[end] = end, start
    loops = 0
    for m0 in range(n):
        if seen_mid[m0]:
            continue
        loops += 1
        m = m0
        while not seen_mid[m]:
            seen_mid[m] = True
            m = upper[m]  # a middle point's partner in upper is also middle
            seen_mid[m] = True
            m = lower[m + n] - n
    return tuple(out), loops


def _closure_loops(m: tuple, n: int) -> int:
    seen = [False] * (2 * n)
    loops = 0
    for p0 in range(2 * n):
        if seen[p0]:
            continue
        loops += 1
        p = p0
        while not seen[p]:
            seen[p] = True
            q = m[p]
            seen[q] = True
            p = q - n if q >= n else q + n  # closure arc to the other side
    return loops


def braid_bracket(word: list[tuple[int, int]], n: int) -> dict:
    """State sum of the closure of ``word``: letters (i, e) mean sigma_i^e,
    strands i-1 and i (0-based) crossing with sign e.  Every loop of the
    closure, the last one included, is worth delta."""
    ident = tuple(list(range(n, 2 * n)) + list(range(n)))
    elem = {ident: {0: 1}}
    for i, eps in word:
        cup = list(ident)
        a, b = i - 1, i
        cup[a], cup[b], cup[n + a], cup[n + b] = b, a, n + b, n + a
        cup = tuple(cup)
        nxt: dict = {}
        for m, coeff in elem.items():
            lp_add(nxt.setdefault(m, {}), lp_shift(coeff, eps))
            prod, loops = _compose(m, cup, n)
            lp_add(nxt.setdefault(prod, {}), lp_mul(lp_shift(coeff, -eps), delta_power(loops)))
        elem = {m: c for m, c in nxt.items() if c}
    total: dict = {}
    for m, coeff in elem.items():
        lp_add(total, lp_mul(coeff, delta_power(_closure_loops(m, n))))
    return total


def braid_document(word: list[tuple[int, int]], n: int) -> dict:
    """Array encoding of the closure of ``word``: no strand passes, one
    self-crossing per letter with id and height k+1.  In sigma_i^+1 the
    strand moving left to right passes in front (sign +1, both strands
    running upwards); in sigma_i^-1 the other one does."""
    at = list(range(n))  # thread occupying each position
    threads: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    for k, (i, eps) in enumerate(word):
        rightward, leftward = at[i - 1], at[i]
        front = rightward if eps > 0 else leftward
        for thread in (rightward, leftward):
            mark = "+" if thread == front else "-"
            threads[thread].append((f"X{mark}{k + 1}", k + 1))
        at[i - 1], at[i] = leftward, rightward
    ends_at = {thread: pos for pos, thread in enumerate(at)}
    components, done = [], set()
    for first in range(n):
        if first in done:
            continue
        tokens: list[tuple[str, int]] = []
        thread = first
        while thread not in done:  # threads ending where the next one starts
            done.add(thread)
            tokens.extend(threads[thread])
            thread = ends_at[thread]
        components.append(
            {"E": [t for t, _ in tokens], "I": [h for _, h in tokens], "Q": [0] * len(tokens)}
        )
    signs = {str(k + 1): eps for k, (_i, eps) in enumerate(word)}
    return {"components": components, "U": signs}


# ---------------------------------------------------------------------------
# reading pipeline output

def poly_terms(poly_obj: dict) -> dict:
    """{(x, y, z, unknot): {exp: coeff}} from the pipeline's JSON output."""
    out: dict = {}
    for entry in poly_obj["polynomial"]:
        m = entry["monomial"]
        key = (m["x"], m["y"], m["z"], m["unknot"])
        if key in out:
            raise ValueError(f"monomial {key} listed twice")
        out[key] = {int(e): int(c) for e, c in entry["coeff"] if c}
    return out


def bracket_failure(poly_obj: dict, expected: dict) -> Optional[str]:
    """The closed-braid value must be ``expected`` times the empty monomial."""
    terms = poly_terms(poly_obj)
    got = terms.pop((0, 0, 0, 0), {})
    if terms:
        return f"unexpected monomials {sorted(terms)}"
    if got != expected:
        return f"coefficient {sorted(got.items())} != state sum {sorted(expected.items())}"
    return None


# ---------------------------------------------------------------------------
# t = -1 trace identity

def _mat_mul(a: tuple, b: tuple) -> tuple:
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _mat_inv(a: tuple) -> tuple:
    return (a[3], -a[1], -a[2], a[0])


def _trace(a: tuple) -> int:
    return a[0] + a[3]


def random_sl2_pairs(seed: int, count: int = 2) -> list[tuple[tuple, tuple]]:
    """Pairs (A, B) in SL2(Z) with |tr A|, |tr B|, |tr AB| >= 3, tr A != tr B,
    so that no basis curve evaluates to 0 and swapping x with z shows."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        mats = []
        for _ in range(2):
            m = (1, 0, 0, 1)
            for _ in range(4):
                k = rng.choice((-2, -1, 1, 2))
                m = _mat_mul(m, (1, k, 0, 1) if rng.random() < 0.5 else (1, 0, k, 1))
            mats.append(m)
        a, b = mats
        traces = (_trace(a), _trace(b), _trace(_mat_mul(a, b)))
        if min(abs(v) for v in traces) >= 3 and traces[0] != traces[1]:
            pairs.append((a, b))
    return pairs


def front_words(doc: dict) -> list[list[tuple[str, int]]]:
    """Each component's word in F2 = <a, b>, read from its front passes."""
    letters = {("O1", 3): ("a", 1), ("O1", 4): ("a", -1), ("O2", 4): ("b", 1), ("O2", 5): ("b", -1)}
    words = []
    for comp in doc["components"]:
        word = []
        for tok, q in zip(comp["E"], comp["Q"]):
            if tok.startswith("O"):
                word.append(letters[(tok, q)])
        words.append(word)
    return words


def _value_at_minus_one(terms: dict, x: int, y: int, z: int, unknot: int) -> int:
    total = 0
    for (px, py, pz, pu), coeff in terms.items():
        c = sum(v if e % 2 == 0 else -v for e, v in coeff.items())
        total += c * x**px * y**py * z**pz * unknot**pu
    return total


def trace_identity_failure(doc: dict, poly_obj: dict, pairs: list) -> Optional[str]:
    terms = poly_terms(poly_obj)
    words = front_words(doc)
    for a, b in pairs:
        gens = {("a", 1): a, ("a", -1): _mat_inv(a), ("b", 1): b, ("b", -1): _mat_inv(b)}
        expected = 1
        for word in words:
            w = (1, 0, 0, 1)
            for letter in word:
                w = _mat_mul(w, gens[letter])
            expected *= -_trace(w)
        got = _value_at_minus_one(
            terms, -_trace(a), -_trace(_mat_mul(a, b)), -_trace(b), -2
        )
        if got != expected:
            return f"value at t=-1 is {got}, trace product is {expected} (A={a}, B={b})"
    return None


# ---------------------------------------------------------------------------
# mirror symmetry

_MIRROR_TOKEN = {"O": "U", "U": "O", "X+": "X-", "X-": "X+"}


def mirror_document(doc: dict) -> dict:
    comps = []
    for comp in doc["components"]:
        tokens = []
        for tok in comp["E"]:
            head = tok[:2] if tok.startswith("X") else tok[:1]
            tokens.append(_MIRROR_TOKEN[head] + tok[len(head):])
        comps.append({"E": tokens, "I": list(comp["I"]), "Q": list(comp["Q"])})
    return {"components": comps, "U": {k: -v for k, v in doc.get("U", {}).items()}}


def mirror_failure(poly_obj: dict, mirror_poly_obj: dict) -> Optional[str]:
    flipped = {
        mono: {-e: c for e, c in coeff.items()}
        for mono, coeff in poly_terms(poly_obj).items()
    }
    if flipped != poly_terms(mirror_poly_obj):
        return "mirror value is not the value under t -> 1/t"
    return None


def mirror_inversions(doc: dict) -> int:
    """Height inversions of the mirror image: front passes above behind
    passes on the same strand once every over/under is flipped."""
    total = 0
    for strand in ("1", "2"):
        fronts, behinds = [], []
        for comp in doc["components"]:
            for tok, h in zip(comp["E"], comp["I"]):
                if tok[1:] == strand and tok[0] in "OU":
                    (behinds if tok[0] == "O" else fronts).append(h)
        total += sum(1 for f in fronts for b in behinds if f > b)
    return total



# ---------------------------------------------------------------------------
# the CLI trace's closing record

_PART = re.compile(r"\(([^()]*)\)(?:\*([a-z0-9^*]+))?")
_COEFF = re.compile(r"^(-?\d+)(?:\*t(?:\^(-?\d+))?)?$")
_FACTORS = ("x", "y", "z", "unknot")


def parse_poly_text(text: str) -> dict:
    """{(x, y, z, unknot): {exp: coeff}} from the rendered text form,
    e.g. ``(-1*t^-2 + 3*t)*x*z + (1)``."""
    out: dict = {}
    if text.strip() == "0":
        return out
    for coeff_text, mono_text in _PART.findall(text):
        coeff: dict = {}
        for piece in coeff_text.split(" + "):
            m = _COEFF.match(piece.strip())
            if m is None:
                raise ValueError(f"bad coefficient term {piece!r}")
            exp = 0 if "t" not in piece else int(m.group(2) or 1)
            lp_add(coeff, {exp: int(m.group(1))})
        powers = dict.fromkeys(_FACTORS, 0)
        for factor in filter(None, (mono_text or "").split("*")):
            name, _, power = factor.partition("^")
            powers[name] += int(power or 1)
        out[tuple(powers[f] for f in _FACTORS)] = coeff
    return out


def trace_record_failure(last_line: str, poly_obj: dict) -> Optional[str]:
    """The trace must end with a "done" record holding the same value."""
    record = json.loads(last_line)
    if record.get("stage") != "done":
        return f"trace ends with {record.get('stage')!r}, not 'done'"
    if parse_poly_text(record["polynomial"]) != poly_terms(poly_obj):
        return "trace's final polynomial differs from the JSON output"
    return None
