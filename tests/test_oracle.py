"""The random diagram generator and its self-check properties.

Beyond determinism and validity, the load-bearing test here is
``test_generated_states_stay_drawable``: every crossing-free state the
pipeline produces from a generated diagram must describe arcs that fit
in their regions without forced extra intersections.  A generator bug
that emits a non-drawable encoding shows up as two arcs whose endpoint
pairs alternate around a region boundary.
"""

import hashlib

import pytest

from g2skein import Term, engine, oracle, parse_diagram, serialize_diagram, validate
from g2skein.cli import main
from g2skein.diagram import pass_token
from g2skein.laurent import LaurentPoly
from g2skein.oracle import (
    check_confluence,
    check_encoding_invariance,
    check_framing,
    random_diagram,
    random_diagram_with_crossings,
    repro_text,
)
from g2skein.sorter import sort_state, sort_step

from naive import resolve_all


def test_generator_is_deterministic():
    for seed in range(12):
        a = random_diagram(seed)
        b = random_diagram(seed)
        assert serialize_diagram(a) == serialize_diagram(b)


def test_generator_output_is_pinned():
    # the golden values and the benchmark's inputs are built from these
    # diagrams; a change to the walk, the height draw, the chord geometry
    # or the order of the random calls moves this digest
    diagrams = [random_diagram(s, 2, 3) for s in [*range(150), 172]]
    diagrams += [random_diagram(s, 2, 2) for s in range(60)]
    diagrams.append(random_diagram_with_crossings(11, 10, 10))
    text = "\n".join(serialize_diagram(d) for d in diagrams)
    assert len(diagrams) == 212
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f746682305a60858502ef70c9c47560df504ac7b75002c53ca4da20c2750f2b3"
    )


def test_generated_diagrams_are_valid():
    for seed in range(40):
        d = random_diagram(seed)
        assert validate(d) == []
        assert 1 <= len(d.components) <= 2
        assert len(d.sign_pairs) <= 3


def test_crossing_count_targeting():
    for seed in range(10):
        d = random_diagram_with_crossings(seed, 2, 4)
        assert 2 <= len(d.sign_pairs) <= 4
        assert validate(d) == []


def test_strand_passes_come_in_pairs():
    # every closed walk crosses each separating strand an even number
    # of times
    for seed in range(25):
        d = random_diagram(seed)
        for c in d.components:
            for strand in (1, 2):
                n = sum(1 for s, _h, _q in strand_passes(c) if s == strand)
                assert n % 2 == 0


# ---------------------------------------------------------------------------
# drawability of crossing-free states

_STEP = {(1, 3): ("L", "M"), (1, 4): ("M", "L"), (2, 4): ("M", "R"), (2, 5): ("R", "M")}


def strand_passes(c):
    """(strand, height, Q value) of each strand pass of a component."""
    for k, h in zip(c.codes, c.heights):
        tok, q = pass_token(k)
        if tok[0] != "X":
            yield int(tok[1]), h, q


def _region_arcs(d):
    """Arcs per region as endpoint pairs, or None when the walk breaks."""
    arcs = {"L": [], "M": [], "R": []}
    for c in d.components:
        pts = [((s, h), _STEP[(s, q)]) for s, h, q in strand_passes(c)]
        if not pts:
            continue
        for (p1, step1), (p2, step2) in zip(pts, pts[1:] + pts[:1]):
            if step1[1] != step2[0]:
                return None
            arcs[step1[1]].append((p1, p2))
    return arcs


def _interleaves(ring, arc1, arc2):
    pos = {p: k for k, p in enumerate(ring)}
    i, j = sorted((pos[arc1[0]], pos[arc1[1]]))
    inside = sum(1 for p in arc2 if i < pos[p] < j)
    return inside == 1


def assert_drawable(d):
    arcs = _region_arcs(d)
    assert arcs is not None, f"region walk inconsistent: {serialize_diagram(d)}"
    ones = sorted(h for c in d.components for s, h, _q in strand_passes(c) if s == 1)
    twos = sorted(h for c in d.components for s, h, _q in strand_passes(c) if s == 2)
    rings = {
        "L": [(1, h) for h in ones],
        "R": [(2, h) for h in reversed(twos)],
        "M": [(1, h) for h in reversed(ones)] + [(2, h) for h in twos],
    }
    for region, pairs in arcs.items():
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                assert not _interleaves(rings[region], pairs[a], pairs[b]), (
                    f"arcs {pairs[a]} and {pairs[b]} must cross in {region}: "
                    f"{serialize_diagram(d)}"
                )


def test_generated_states_stay_drawable():
    for seed in range(10):
        d = random_diagram(seed, max_components=2, max_self_crossings=2)
        stack = list(resolve_all([Term(coeff=LaurentPoly.one(), diagram=d)]))
        while stack:
            t = stack.pop()
            assert_drawable(t.diagram)
            if sort_state(t.diagram)[0]:
                stack.extend(sort_step(t.diagram))


def test_confluence_check_passes_on_fixture(two_crossing):
    assert check_confluence(two_crossing) is None


def test_invariance_check_passes_on_fixture(two_crossing, two_component):
    assert check_encoding_invariance(two_crossing) is None
    assert check_encoding_invariance(two_component) is None


def test_framing_check_passes_on_generated_diagrams():
    # a kink multiplies the value by -t^(3 sign) at every t, which pins
    # the exponent conventions that t = -1 checks cannot see
    for seed in range(20):
        d = random_diagram(seed, max_components=2, max_self_crossings=3)
        assert check_framing(d) is None, f"seed {seed}"


def test_checks_pass_on_a_diagram_without_components():
    # there is no crossing to reorder, no curve to re-encode and none to kink
    d = random_diagram(0, 0)
    assert d.components == ()
    for check in (check_confluence, check_encoding_invariance, check_framing):
        assert check(d) is None, check.__name__


def test_repro_text_round_trips(two_crossing):
    text = repro_text(two_crossing, {"property": "confluence", "seed": 7})
    assert text.startswith("# failed property: confluence")
    assert "# seed: 7" in text
    parsed = parse_diagram(text)
    assert serialize_diagram(parsed) == serialize_diagram(two_crossing)


FAILING_SEED = 7  # random_diagram(7): three crossings and a nonzero value


@pytest.mark.parametrize(
    "check, prop, flag, target",
    [
        (check_confluence, "confluence", "confluence", "_basis_value"),
        (check_encoding_invariance, "encoding-invariance", "invariance", "run_pipeline"),
        (check_framing, "framing", "framing", "run_pipeline"),
    ],
    ids=["confluence", "invariance", "framing"],
)
def test_checks_report_a_perturbed_value(check, prop, flag, target, monkeypatch, tmp_path, two_crossing):
    """Each check, and ``fuzz`` on it, rejects a pipeline whose every
    value after the first is scaled by t."""
    original = getattr(engine, target)

    def perturb():
        calls = []

        def value(*args, **kwargs):
            calls.append(None)
            poly = original(*args, **kwargs)
            return poly if len(calls) == 1 else poly.scaled(LaurentPoly.monomial(1))

        monkeypatch.setattr(engine, target, value)

    perturb()
    failure = check(two_crossing)
    assert failure["property"] == prop
    assert failure["case"]
    assert failure["value_expected"] != failure["value_found"]

    perturb()
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--seed", str(FAILING_SEED), "--count", "1", "--check", flag]) == 2
    text = (tmp_path / f"repro-{FAILING_SEED}.json").read_text()
    assert text.startswith(f"# failed property: {prop}")
    for field in ("case", "seed", "value_expected", "value_found"):
        assert f"# {field}: " in text
    parsed = parse_diagram(text)
    assert serialize_diagram(parsed) == serialize_diagram(random_diagram(FAILING_SEED))


def test_fuzz_failure_without_a_repro_file_exits_2(monkeypatch, tmp_path, capsys):
    """A counterexample whose repro file cannot be written still fails the
    run with exit 2; the write error goes to stderr."""
    monkeypatch.setattr(oracle, "check_framing", lambda d: {"property": "framing", "case": "stub"})
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"repro-{FAILING_SEED}.json").mkdir()
    assert main(["fuzz", "--seed", str(FAILING_SEED), "--count", "1", "--check", "framing"]) == 2
    out, err = capsys.readouterr()
    assert out.startswith(f"FAIL seed {FAILING_SEED}: framing")
    assert err.startswith(f"error: cannot write repro-{FAILING_SEED}.json: "), err
