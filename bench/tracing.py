"""In-memory spans and timing shims for the traced benchmark run.

A span records a name, a trace id, its parent span, start and end.
Calls made while a span is open add their time and call count to that
span's counters, so per-family timings become per-job sums instead of
one span per family.  Shims replace a module attribute with a timed
wrapper and put the original back afterwards; ucf itself is not edited.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter


class Tracer:
    def __init__(self, trace: str):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.root = self._open("bench.run", trace)

    def _open(self, name: str, trace: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "trace": trace,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": perf_counter(),
            "end": None,
            "counters": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None):
        span = self._open(name, trace or self._stack[-1]["trace"])
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def add(self, counter: str, seconds: float) -> None:
        """Charge time and one call to the innermost open span."""
        counters = self._stack[-1]["counters"]
        counters[counter + "_s"] = counters.get(counter + "_s", 0.0) + seconds
        counters[counter + ".calls"] = counters.get(counter + ".calls", 0) + 1

    def timed(self, counter: str, fn):
        """fn, with each call's time charged to counter."""

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(counter, perf_counter() - t0)

        return wrapper

    def spanned(self, name: str, fn):
        """fn, with each call recorded as a span."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def totals(self) -> dict:
        """Counters summed over every span; each call counted once."""
        out: dict = {}
        for span in self.spans:
            for key, value in span["counters"].items():
                out[key] = out.get(key, 0) + value
        return out

    def close(self) -> None:
        while self._stack:
            self._stack.pop()["end"] = perf_counter()

    def dump(self, path: str) -> None:
        t0 = self.root["start"]
        rows = [{**s, "start": s["start"] - t0, "end": (s["end"] or t0) - t0} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


@contextlib.contextmanager
def shims(replacements: list[tuple[object, str, object]]):
    """Set each (module, attribute, wrapper) for the block, then restore."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, wrapper in replacements:
            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
