"""Spans for the traced benchmark run, recorded from the benchmark's side.

A span records name, start, end, parent span and the scene, question and
phase it ran under. Spans stay in memory and are written out as JSON lines
when the run ends.

Tracing wraps the engine's public functions at every name their callers
look up: ``apis`` and ``pipeline`` import ``backproject`` and friends by
name, so the wrapper replaces each module-level binding of the function
object, not only the defining module's. Methods are wrapped on their
class. Everything is restored when :func:`patched` exits, so untraced
passes run the engine untouched.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    scene: str | None
    question: int | None
    phase: str | None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Per-pass span recorder plus named counters."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.scene: str | None = None
        self.question: int | None = None
        self.phase: str | None = None
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), 0.0, parent,
                    self.scene, self.question, self.phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def write_jsonl(self, path, **labels) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s) | labels) + "\n")


class NullTracer:
    """Tracer stand-in for untraced passes: records nothing."""

    enabled = False
    scene = question = phase = None

    def span(self, name: str):
        return nullcontext()

    def count(self, key: str, n: float = 1) -> None:
        pass


NULL = NullTracer()


# -- analysis ---------------------------------------------------------------

def covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the children's intervals cover."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s.id: s.duration - covered(s, children[s.id]) for s in spans}


def within(spans: list[Span], ancestor_name: str) -> list[Span]:
    """Spans that have a span named ``ancestor_name`` above them."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        p = s.parent
        while p is not None:
            if by_id[p].name == ancestor_name:
                out.append(s)
                break
            p = by_id[p].parent
    return out


# -- wrapping ---------------------------------------------------------------

def _package_bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) in the scenemem package bound to ``fn``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname == "scenemem" or modname.startswith("scenemem."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    found.append((mod, attr))
    return found


@contextmanager
def patched(replacements):
    """Swap attributes for the duration of the block.

    ``replacements`` holds (owner, attribute, new value) triples for
    methods, or (None, function, new value) to replace every package-level
    binding of a function.
    """
    undo = []
    try:
        for owner, attr, new in replacements:
            if owner is None:
                for mod, name in _package_bindings(attr):
                    undo.append((mod, name, getattr(mod, name)))
                    setattr(mod, name, new)
            else:
                undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def spanned(tracer: Tracer, fn, name, after=None):
    """``fn`` inside a span. ``name`` is a string or a function of the call
    arguments; ``after(tracer, args, result)`` records counters; an
    exception's class name is kept on the span and the exception re-raised."""

    def wrapper(*args, **kwargs):
        label = name(*args) if callable(name) else name
        span = tracer.begin(label)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            tracer.end(span)
            raise
        tracer.end(span)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper
