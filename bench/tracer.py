"""Spans recorded from outside the program.

`Tracer.install` replaces chosen public functions of a package by timing
wrappers. Every module of the package that imported the function by name
gets the wrapper too, so calls between modules are seen. A target the
package no longer has is skipped: its span name then reads zero calls.

Spans are kept in memory as [name, start, end, parent index] and written
out once, by `write`, when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    """Single-threaded span recorder; a span's parent is the innermost open
    span when it starts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                open_.pop()

        return traced

    @staticmethod
    def span_cost(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds a wrapper adds to one call: `calls` calls of a wrapped
        no-op minus as many bare calls, the fastest of `repeats` pairs."""

        def noop():
            return None

        wrapped = Tracer().wrap("noop", noop)
        best = {noop: float("inf"), wrapped: float("inf")}
        for _ in range(repeats):
            for fn in best:
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                best[fn] = min(best[fn], time.perf_counter() - start)
        return max(0.0, best[wrapped] - best[noop]) / calls

    def install(self, package: str, targets: list[tuple[str, str, str]]) -> None:
        """Wrap each (module, attribute, span name) target of `package`.

        Every loaded module of the package that holds the same function
        object, under any name, gets the wrapper in its place.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, attr, span_name in targets:
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            wrapped = self.wrap(span_name, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start and end (perf_counter
        seconds), parent index (-1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


class SpanStats:
    """Call counts, inclusive time and self time per (phase, span name) over
    the spans from index `begin` on.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap. A span's
    phase is the path of enclosing spans (itself included) whose names are
    in `phases`, joined by "/", e.g. "trainer.train/trainer.evaluate".
    """

    def __init__(self, spans: list[list], begin: int = 0, phases: tuple[str, ...] = ()) -> None:
        local = spans[begin:]
        child_time = [0.0] * len(local)
        phase = [""] * len(local)
        for i, (name, start, end, parent) in enumerate(local):
            p = parent - begin
            outer = phase[p] if p >= 0 else ""
            phase[i] = (f"{outer}/{name}" if outer else name) if name in phases else outer
            if p >= 0:
                child_time[p] += end - start
        self._rows: dict[tuple[str, str], list] = {}
        for i, (name, start, end, _) in enumerate(local):
            row = self._rows.setdefault((phase[i], name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]

    def _sum(self, column: int, names: tuple[str, ...], phase: str | None, within: str | None):
        total = 0
        for (p, name), row in self._rows.items():
            if name not in names or (phase is not None and p != phase):
                continue
            if within is not None and not (p == within or p.startswith(within + "/")):
                continue
            total += row[column]
        return total

    def calls(self, *names: str, phase: str | None = None, within: str | None = None) -> int:
        """Calls of any of `names`; `phase` matches a phase exactly, `within`
        matches it and every phase nested in it."""
        return self._sum(0, names, phase, within)

    def total_s(self, *names: str, phase: str | None = None, within: str | None = None) -> float:
        return float(self._sum(1, names, phase, within))

    def self_s(self, *names: str, phase: str | None = None, within: str | None = None) -> float:
        return float(self._sum(2, names, phase, within))
