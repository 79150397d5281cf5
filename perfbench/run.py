"""Benchmark of the g2skein pipeline: one workload per run.

    python3 perfbench/run.py --workload batch --seed 3 --seconds 25 --trace 0

Set-up imports ``g2skein`` from ``src/`` of the checkout holding this
file and builds the workload's input documents; it is repeated three
times ahead of every pass and its median reported.  The timed phase runs
whole passes over the documents (JSON text -> ``parse_diagram`` ->
``run_pipeline``, or the CLI for ``traced``) for about ``--seconds``
seconds, each pass from an empty value memo, as a fresh process would
start.  Every output is checked
afterwards against ``oracles``, which share no code with the package.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass (the reference, with the garbage collector timed) and one
pass with spans around every layer, and prints the per-layer metrics and
the tracing overhead; its counts do not depend on the machine.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import typing
from pathlib import Path
from types import SimpleNamespace

import oracles
import workloads
from tracing import GcClock, SpanLog, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUPS_PER_PASS = 3
SL2_PAIRS = 2


def load_package() -> SimpleNamespace:
    """Import g2skein afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "g2skein" or m.startswith("g2skein.")]:
        del sys.modules[name]
    # typing's caches hold annotations such as Union[StrandPass, SelfPass]
    # and with them every earlier copy of the package (about 0.2 MB per
    # import, which would show in peak_rss_mb); a new process has them empty
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"g2skein.{m}")
           for m in ("diagram", "engine", "resolver", "sorter", "classifier", "laurent", "cli", "oracle")}
    )
    where = Path(mods.engine.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"g2skein was imported from {where}, not from {SRC}")
    return mods


def reset_memo(mods) -> None:
    """Empty the engine's value memo, as a new process would have it."""
    memo = getattr(mods.engine, "_VALUE_CACHE", None)
    if memo is not None:
        memo.clear()
    gc.collect()


class Runner:
    """One pass = every document once, timed per document."""

    def __init__(self, name: str, mods, inputs: workloads.Inputs):
        self.name, self.mods, self.inputs = name, mods, inputs
        self.paths = []
        if name == "traced":
            OUT.mkdir(exist_ok=True)
            self.trace_path = OUT / "cli-trace.jsonl"
            for i, text in enumerate(inputs.texts):
                path = OUT / f"input-{i}.json"
                path.write_text(text, encoding="utf-8")
                self.paths.append(str(path))

    def _solve(self, i: int):
        m = self.mods
        if self.name != "traced":
            return m.engine.run_pipeline(m.diagram.parse_diagram(self.inputs.texts[i]))
        out = io.StringIO()
        argv = ["resolve", self.paths[i], "--trace", str(self.trace_path), "--output", "json"]
        with contextlib.redirect_stdout(out):
            code = m.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"g2skein resolve exited {code}")
        return out.getvalue()

    def one_pass(self) -> dict:
        """Returns wall time, per-document seconds and raw outputs; an
        exception is kept as that document's output."""
        clock = time.perf_counter
        times, outputs = [], []
        began = clock()
        for i in range(len(self.inputs.texts)):
            t0 = clock()
            try:
                out = self._solve(i)
            except Exception as exc:  # counted as a failed operation
                out = exc
            times.append(clock() - t0)
            outputs.append(out)
        wall = clock() - began
        trace_tail = None
        if self.name == "traced":
            lines = self.trace_path.read_text(encoding="utf-8").splitlines() if self.trace_path.exists() else []
            trace_tail = lines[-1] if lines else "{}"
        return {"wall": wall, "times": times, "outputs": outputs, "trace_tail": trace_tail}


# ---------------------------------------------------------------------------
# checks

class Checker:
    def __init__(self, name: str, mods, inputs: workloads.Inputs, seed: int):
        self.inputs = inputs
        self.pairs = oracles.random_sl2_pairs(seed, SL2_PAIRS)
        self.bracket = (
            oracles.braid_bracket(workloads.BRAID_WORD, workloads.BRAID_STRANDS)
            if name == "braid" else None
        )
        self.mirror_values: dict[int, dict] = {}
        if inputs.mirror_ix:
            reset_memo(mods)
            for i in inputs.mirror_ix:
                text = json.dumps(oracles.mirror_document(inputs.docs[i]))
                poly = mods.engine.run_pipeline(mods.diagram.parse_diagram(text))
                self.mirror_values[i] = poly.to_json_obj()
            reset_memo(mods)
        self.failures: list[str] = []

    def check(self, i: int, out, trace_tail) -> bool:
        """True when document i's output passes every check that applies."""
        if isinstance(out, Exception):
            self.failures.append(f"document {i} raised {type(out).__name__}: {out}")
            return False
        try:
            poly_obj = json.loads(out) if isinstance(out, str) else out.to_json_obj()
            problems = [oracles.trace_identity_failure(self.inputs.docs[i], poly_obj, self.pairs)]
            if self.bracket is not None:
                problems.append(oracles.bracket_failure(poly_obj, self.bracket))
            if i in self.mirror_values:
                problems.append(oracles.mirror_failure(poly_obj, self.mirror_values[i]))
            if trace_tail is not None:
                problems.append(oracles.trace_record_failure(trace_tail, poly_obj))
        except (ValueError, KeyError, TypeError) as exc:  # output not in the documented form
            problems = [f"unreadable output: {exc!r}"]
        problems = [p for p in problems if p]
        for p in problems:
            self.failures.append(f"document {i}: {p}")
        return not problems

    def tally(self, passes: list[dict]) -> tuple[int, int, bool]:
        """(attempted, failed, correct) over every document of every pass."""
        attempted = failed = 0
        wrong = False
        for p in passes:
            for i, out in enumerate(p["outputs"]):
                attempted += 1
                if not self.check(i, out, p["trace_tail"]):
                    failed += 1
                    wrong = wrong or not isinstance(out, Exception)
        return attempted, failed, not wrong


# ---------------------------------------------------------------------------
# end-to-end run

class SetUp:
    """Import g2skein afresh and build the workload's inputs; each call is
    timed.  Set-ups are spread over the run, ahead of every pass, because
    on a shared host the speed of the machine shifts over tens of seconds,
    and set-ups made back to back would all sample one such stretch."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.seconds: list[float] = []

    def __call__(self) -> Runner:
        t0 = time.perf_counter()
        mods = load_package()
        inputs = workloads.build(self.workload, mods, self.seed)
        self.seconds.append(time.perf_counter() - t0)
        return Runner(self.workload, mods, inputs)


def end_to_end(set_up: SetUp, seconds: float) -> tuple[Runner, list[dict], dict]:
    passes: list[dict] = []
    began = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            runner = set_up()
        reset_memo(runner.mods)
        passes.append(runner.one_pass())
        spent = time.perf_counter() - began
        typical = statistics.median(p["wall"] for p in passes)
        # whole passes only: stop when the next one would end more than
        # half a pass past the time asked for
        if spent + typical / 2 > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_doc = [t for p in passes for t in p["times"]]
    metrics = {
        "solve_s": (statistics.median(p["wall"] for p in passes), "s"),
        "diagram_p50_ms": (statistics.median(per_doc) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(set_up.seconds), "s"),
    }
    return runner, passes, metrics


def tail_ms(per_doc: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ranked = sorted(per_doc)
    n = len(ranked)
    return 100.0 * (n - 10) / n, ranked[n - 11] * 1000


# ---------------------------------------------------------------------------
# traced run

LAURENT_METHODS = {
    "LaurentPoly": ("__add__", "__mul__", "scaled"),
    "SkeinPolynomial": ("__add__", "__mul__", "scaled", "accumulate"),
}


def traced(runner: Runner) -> tuple[list[dict], dict]:
    mods = runner.mods
    gc_clock = GcClock()
    reset_memo(mods)
    with gc_clock.running():
        reference = runner.one_pass()

    log = SpanLog()
    counts = dict.fromkeys(
        ("terms_resolved", "terms_after_dedup", "memo_lookups", "memo_new", "memo_hits",
         "smoothings", "sort_steps", "terminals"), 0)
    memo = getattr(mods.engine, "_VALUE_CACHE", {})

    def add(key, value):
        counts[key] += value

    def on_memo_enter(_args):
        return len(memo)

    def on_memo_exit(size_before, _args, _result, _parent):
        grown = len(memo) - size_before if len(memo) >= size_before else len(memo)
        add("memo_lookups", 1)
        add("memo_new", grown)
        add("memo_hits", grown == 0)

    def on_dedup(_t, _args, result, parent):
        if parent == "engine.run_pipeline":  # the dedup right after resolution
            add("terms_after_dedup", len(result))

    d, e = mods.diagram, mods.engine
    targets = [
        (d, "parse_diagram", log.wrap("diagram.parse_diagram", d.parse_diagram)),
        (d, "validate", log.wrap("diagram.validate", d.validate)),
        (d, "dedup_key", log.wrap("diagram.dedup_key", d.dedup_key)),
        (mods.resolver, "resolve_crossing", log.wrap(
            "resolver.resolve_crossing", mods.resolver.resolve_crossing,
            after=lambda _t, _a, r, _p: add("smoothings", len(r)))),
        (mods.sorter, "sort_step", log.wrap(
            "sorter.sort_step", mods.sorter.sort_step,
            after=lambda _t, _a, r, _p: add("sort_steps", r is not None))),
        (mods.sorter, "induce_crossings", log.wrap("sorter.induce_crossings", mods.sorter.induce_crossings)),
        (mods.classifier, "evaluate", log.wrap(
            "classifier.evaluate", mods.classifier.evaluate,
            after=lambda _t, a, _r, _p: add("terminals", len(a[0])))),
        (e, "run_pipeline", log.wrap("engine.run_pipeline", e.run_pipeline)),
        (e, "resolve_stage", log.wrap(
            "engine.resolve_stage", e.resolve_stage,
            after=lambda _t, _a, r, _p: add("terms_resolved", len(r)))),
        (e, "dedup", log.wrap("engine.dedup", e.dedup, after=on_dedup)),
        (e, "_basis_value", log.wrap(
            "engine._basis_value", e._basis_value, before=on_memo_enter, after=on_memo_exit)),
        (e, "sort_stage", log.wrap("engine.sort_stage", e.sort_stage)),
        (mods.cli, "main", log.wrap("cli.main", mods.cli.main)),
    ]
    for cls_name, methods in LAURENT_METHODS.items():
        cls = getattr(mods.laurent, cls_name)
        for meth in methods:
            targets.append((cls, meth, log.wrap(f"laurent.{cls_name}.{meth}", getattr(cls, meth))))

    reset_memo(mods)
    with patched(targets):
        traced_pass = runner.one_pass()

    OUT.mkdir(exist_ok=True)
    log.write(str(OUT / f"spans-{runner.name}.bin"))
    totals = log.totals()  # a row for every wrapped name, called or not

    def self_s(name):
        return totals[name]["self_s"]

    def total_s(name):
        return totals[name]["total_s"]

    def calls(name):
        return totals[name]["calls"]

    laurent = [n for n in totals if n.startswith("laurent.")]
    trace_bytes = sort_rounds = 0
    if runner.name == "traced":
        trace_bytes = os.path.getsize(runner.trace_path)
        with open(runner.trace_path, encoding="utf-8") as fh:
            sort_rounds = sum(json.loads(line).get("stage") == "sort-round" for line in fh)
    c = counts
    metrics = {
        "diagram.parse_s": (self_s("diagram.parse_diagram"), "s"),
        "diagram.validate_s": (self_s("diagram.validate"), "s"),
        "diagram.dedup_key_s": (self_s("diagram.dedup_key"), "s"),
        "diagram.dedup_key_calls": (calls("diagram.dedup_key"), "count"),
        "resolver.resolve_crossing_s": (self_s("resolver.resolve_crossing"), "s"),
        "resolver.smoothings": (c["smoothings"], "count"),
        "sorter.sort_step_s": (self_s("sorter.sort_step"), "s"),
        "sorter.induce_s": (self_s("sorter.induce_crossings"), "s"),
        "sorter.sort_steps": (c["sort_steps"], "count"),
        "classifier.evaluate_s": (self_s("classifier.evaluate"), "s"),
        "classifier.terminals": (c["terminals"], "count"),
        "laurent.s": (sum(self_s(n) for n in laurent), "s"),
        "laurent.ops": (sum(calls(n) for n in laurent), "count"),
        "engine.resolve_stage_s": (total_s("engine.resolve_stage"), "s"),
        "engine.dedup_s": (total_s("engine.dedup"), "s"),
        "engine.memo_walk_s": (total_s("engine._basis_value"), "s"),
        "engine.sort_stage_s": (total_s("engine.sort_stage"), "s"),
        "engine.terms_resolved": (c["terms_resolved"], "count"),
        "engine.terms_after_dedup": (c["terms_after_dedup"], "count"),
        "engine.dedup_ratio": (c["terms_resolved"] / c["terms_after_dedup"] if c["terms_after_dedup"] else 0.0, "ratio"),
        "engine.memo_lookups": (c["memo_lookups"], "count"),
        "engine.memo_new": (c["memo_new"], "count"),
        "engine.memo_hit_ratio": (c["memo_hits"] / c["memo_lookups"] if c["memo_lookups"] else 0.0, "ratio"),
        "engine.sort_rounds": (sort_rounds, "count"),
        "cli.trace_bytes": (trace_bytes, "bytes"),
        "gc.s": (gc_clock.seconds, "s"),
        "gc.collections": (gc_clock.collections, "count"),
        "trace.spans": (len(log), "count"),
        "trace.reference_s": (reference["wall"], "s"),
        "trace.overhead_ratio": (traced_pass["wall"] / reference["wall"], "ratio"),
    }
    return [reference, traced_pass], metrics


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    set_up = SetUp(args.workload, args.seed)
    try:
        runner = set_up()
    except ImportError as exc:
        print(f"error: cannot import g2skein from {SRC}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        passes, metrics = traced(runner)
    else:
        runner, passes, metrics = end_to_end(set_up, args.seconds)
        per_doc = [t for p in passes for t in p["times"]]
        if len(per_doc) >= 40:
            pct, value = tail_ms(per_doc)
            print(f"info: p{pct:.1f} per-diagram time {value:.3f} ms over {len(per_doc)} diagrams")
            first = sorted(passes[0]["times"], reverse=True)
            print(f"info: heaviest 10 of {len(first)} documents take "
                  f"{100 * sum(first[:10]) / sum(first):.1f}% of the first pass")
    print(f"info: {len(passes)} passes of {len(runner.inputs.texts)} documents, pass walls "
          + ", ".join(f"{p['wall']:.3f}" for p in passes))

    checker = Checker(args.workload, runner.mods, runner.inputs, args.seed)
    attempted, failed, correct = checker.tally(passes)
    for line in checker.failures[:20]:
        print(f"check: {line}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
