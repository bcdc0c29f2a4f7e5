"""Span recording for the traced benchmark run.

The program carries no tracing of its own, so the traced run wraps public
functions through their module attributes, which is how the callers look
them up (``cli`` calls ``ingest.parse_imu_joint_csv``, ``compare_recordings``
calls its module's ``align_min_rmse``). The untraced run never installs the
wrappers, and ``Tracer.restore`` removes them.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, module, attribute: str, name: str) -> None:
        """Record a span named ``name`` around every call of
        ``module.attribute`` until ``restore``."""
        original = getattr(module, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attribute, traced)
        self._patched.append((module, attribute, original))

    def restore(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span counted without the time its
    child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, covered in zip(spans, child):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - covered)
    return out
