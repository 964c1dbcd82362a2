"""Spans around the library's layer functions, kept in memory.

``Tracer.wrap`` replaces a function on the module or class that its caller
looks it up from, so the library itself stays unchanged; leaving the
tracer's ``with`` block puts every original back. A span is
``[name, start, end, parent]``. A layer's self time is its spans'
duration less the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


class Tracer:
    """Wraps layer functions and feeds each call's result to an observer;
    only a ``timed`` tracer also records spans."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.timed:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Route calls of ``owner.attr`` through a span named ``name``.

        ``observe(result, *args, **kwargs)`` runs after each call, outside
        the span.
        """
        original = vars(owner)[attr]
        func = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        # A classmethod is reached through the class, so ``func`` is
        # already bound and the wrapper must not bind again.
        setattr(owner, attr, staticmethod(wrapper)
                if isinstance(original, classmethod) else wrapper)
        self._patched.append((owner, attr, original))

    def dump(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        path.write_text(json.dumps([
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent}
            for name, start, end, parent in self.spans]), encoding="utf-8")


@dataclass
class SpanStats:
    durations: list[float] = field(default_factory=list)
    total: float = 0.0
    self_time: float = 0.0


def summarize(spans: list[list], roots: set[str]) -> tuple[
        dict[str, SpanStats], float]:
    """Per-name span statistics, and the summed self time of every span
    nested (at any depth) under a span whose name is in ``roots``."""
    child_time = [0.0] * len(spans)
    root_of = [-1] * len(spans)
    for index, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root_of[index] = root_of[parent]
        elif name in roots:
            root_of[index] = index
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    nested_self = 0.0
    for index, (name, start, end, _) in enumerate(spans):
        entry = stats[name]
        entry.durations.append(end - start)
        entry.total += end - start
        entry.self_time += end - start - child_time[index]
        if root_of[index] not in (-1, index):
            nested_self += end - start - child_time[index]
    return stats, nested_self
