"""In-memory span recording for the traced benchmark runs.

A :class:`Tracer` wraps the public functions each layer exposes, at the
name its caller looks them up under, and records one span per call:
name, start, end, parent span and request id, plus a few attributes
(matrix side, objective, bytes).  Spans stay in memory and are written
out once, when the run ends.  Timed runs never create a tracer, so the
numbers they report carry no wrapper cost.

Self time is a span's duration minus the part of its interval covered
by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One recorded call: ``[start, end)`` on the monotonic clock."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list:
        """Compact JSON form: a list in field order."""
        return [self.id, self.name, self.start, self.end, self.parent,
                self.request, self.attrs]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        return cls(*row)


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: span.duration - _covered(children.get(span.id, []),
                                              span.start, span.end)
            for span in spans}


class Tracer:
    """Records spans around the call sites :func:`layers.install` patches."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id - 1

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the ``with`` body as one span named *name*."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield attrs
        finally:
            end = time.monotonic()
            stack.pop()
            span = Span(span_id, name, start, end, parent,
                        getattr(self._local, "request", None), attrs)
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def request(self, request_id):
        """Stamp spans opened in this thread with *request_id*."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Append a parentless span (for coroutines, which share a thread)."""
        span = Span(self._new_id(), name, start, end, None, None, attrs)
        with self._lock:
            self.spans.append(span)

    # -- patching ----------------------------------------------------------
    def wrap(self, name: str, fn, describe=None):
        """*fn* wrapped to record a span; *describe* adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
                return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def patch(self, target: str, make) -> None:
        """Replace ``module[:Class].attr`` with ``make(original)``."""
        owner, attr = resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ------------------------------------------------------------
    def dump(self) -> list[list]:
        with self._lock:
            return [span.to_row() for span in self.spans]


def resolve(target: str) -> tuple[object, str]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod.attr"`` to ``(owner, attr)``."""
    if ":" in target:
        module_name, dotted = target.split(":", 1)
        owner = importlib.import_module(module_name)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr
    module_name, attr = target.rsplit(".", 1)
    return importlib.import_module(module_name), attr
