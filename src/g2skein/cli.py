"""Command-line interface.

Exit codes: 0 success, 1 unreadable or invalid input, an unwritable
file or a usage error, 2 a bug (any other exception, or a fuzz
counterexample), 3 expansion budget (``--max-steps``, 5,000,000 by
default) exceeded or out of memory, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import traceback
from typing import Optional, Sequence

from . import __version__, engine, oracle
from .diagram import parse_diagram
from .errors import (
    InternalInvariantError,
    SkeinFormatError,
    SkeinValidationError,
    StepLimitExceeded,
)

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SkeinFormatError(f"cannot read {path}: {exc}") from exc


def _cmd_validate(args: argparse.Namespace) -> int:
    parse_diagram(_read(args.file))
    print("ok")
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    d = parse_diagram(_read(args.file))
    with open(args.trace, "w", encoding="utf-8") if args.trace is not None else contextlib.nullcontext() as fh:
        emit = (lambda record: fh.write(json.dumps(record) + "\n")) if fh else None
        poly = engine.run_pipeline(d, max_steps=args.max_steps, emit=emit)
    if args.output == "json":
        print(json.dumps(poly.to_json_obj()))
    else:
        print(poly.text())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    checked = unordered = 0
    for i in range(args.count):
        seed = args.seed + i
        d = oracle.random_diagram(seed, 2, args.max_crossings)
        failure = None
        try:
            if args.check in ("confluence", "all"):
                if len(d.sign_pairs) <= oracle.CONFLUENCE_MAX_CROSSINGS:
                    failure = oracle.check_confluence(d)
                else:
                    unordered += 1
            if failure is None and args.check in ("invariance", "all"):
                failure = oracle.check_encoding_invariance(d)
            if failure is None and args.check in ("framing", "all"):
                failure = oracle.check_framing(d)
        except (InternalInvariantError, StepLimitExceeded) as exc:
            failure = {"property": "pipeline", "error": str(exc)}
        if failure is not None:
            failure["seed"] = seed
            path = f"repro-{seed}.json"
            print(f"FAIL seed {seed}: {failure['property']} (repro file {path})")
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(oracle.repro_text(d, failure))
            except OSError as exc:
                print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return 2
        checked += 1
    note = f"; {unordered} without a confluence check (more than {oracle.CONFLUENCE_MAX_CROSSINGS} crossings)"
    print(f"{checked} diagrams checked, 0 failures" + (note if unordered else ""))
    return 0


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        d = oracle.random_diagram_with_crossings(args.seed, args.crossings, args.crossings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats: dict = {}
    poly = engine.run_pipeline(d, stats=stats)
    print(f"crossings: {args.crossings}")
    print(f"nodes valued: {stats['nodes']}")
    print(f"distinct values: {stats['values']}")
    print(f"crossing expansions: {stats['crossing_expansions']}")
    print(f"sort expansions: {stats['sort_expansions']}")
    print(f"layer splits: {stats['layer_splits']}")
    print(f"leaves valued: {stats['leaves']}")
    print(f"wall time: {stats['seconds']:.3f}s")
    print(f"result: {poly.text()}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2skein",
        description="Resolve array-encoded genus-2 handlebody skeins to basis polynomials.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a diagram file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("resolve", help="run the full pipeline on a diagram file")
    p.add_argument("file")
    p.add_argument("--max-steps", type=_count, default=5_000_000,
                   help="cap on expansions per run, all rules together (default: 5,000,000)")
    p.add_argument("--trace", help="write a line-delimited step trace to this file")
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("fuzz", help="run metamorphic checks on random diagrams")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count, default=50)
    p.add_argument("--max-crossings", type=_count, default=3)
    p.add_argument("--check", choices=["confluence", "invariance", "framing", "all"], default="all")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("bench", help="time the pipeline on one random diagram")
    p.add_argument("--crossings", type=_count, default=6)
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 is kept for internal bugs
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (SkeinFormatError, SkeinValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StepLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # the walk's frames and memo are released by now
        print("error: out of memory", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
