"""Spans around g2skein's layer functions, recorded from outside the package.

``SpanLog.wrap`` returns a stand-in for a function that records one span
per call: its name, start, end and the span that was open when it was
called.  ``patched`` installs stand-ins under every name a g2skein module
looks the function up by (``engine`` imports ``dedup_key`` and
``validate`` by name, for instance) and restores the originals after.
Spans stay in four flat arrays while the run lasts and are written out
once at the end, so the traced run keeps no Python object per span.  Self time (a span's duration minus the time its
child spans cover) is computed from the parent links afterwards.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class SpanLog:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``before(args)`` runs ahead of the call and its result is handed
        to ``after(token, args, result, parent_name)`` once the span closed."""
        ix = self._intern(name)
        name_ix, parent, start, end, stack = (
            self.name_ix, self.parent, self.start, self.end, self.stack,
        )
        names = self.names
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                up = stack[-1]
                after(token, args, result, names[name_ix[up]] if up >= 0 else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_ix[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[i]
        return out

    def write(self, path: str) -> None:
        """One JSON header line (names, count, array typecodes), then the
        raw arrays name_ix, parent, start, end in native byte order."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.start),
                "arrays": [["name_ix", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
                "byteorder": sys.byteorder,
            }
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ix, self.parent, self.start, self.end):
                arr.tofile(fh)


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Replace each ``(owner, attribute, stand_in)``.  A module-level
    function is replaced in every loaded g2skein module that binds it; a
    method is replaced on its class.  Everything is restored on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, stand_in in targets:
            original = getattr(owner, attr)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    mod for name, mod in list(sys.modules.items())
                    if name == "g2skein" or name.startswith("g2skein.")
                ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, value))
                        setattr(holder, key, stand_in)
        yield
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)


class GcClock:
    """Time and count the cyclic collector's runs through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._began = 0.0

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._began
            self.collections += 1

    @contextmanager
    def running(self) -> Iterator["GcClock"]:
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)
