"""Lightweight per-request tracing for the generate-then-rank pipeline.

A :class:`Tracer` collects a tree of :class:`Span`\\ s for one unit of
work (one translation).  The pipeline opens a span at every stage
boundary (classify -> generate -> stage-1 -> stage-2) and the candidate
generator opens per-condition and per-candidate sub-spans, so a finished
trace answers "where did this request spend its time" down to a single
candidate's grounding.

Design choices mirror the resilience layer's primitives:

- **Ambient installation.** :func:`trace_scope` installs a tracer in a
  :class:`~contextvars.ContextVar` (the same pattern as the executor's
  ``budget_scope``), so deeply nested components pick it up via
  :func:`current_tracer` without parameter plumbing.  With no tracer
  installed every hook is a single ``is None`` branch.
- **Injectable clock.**  Tests drive span durations deterministically;
  production uses :func:`time.perf_counter`.
- **One JSON form.**  ``Span.as_dict()`` renders the subtree as plain
  dicts (start offsets relative to the tracer origin, durations in
  seconds); the pipeline attaches the root's tree to every
  ``TranslationReport`` as ``report.trace``.

The module imports nothing from :mod:`repro` so every layer — including
:mod:`repro.core.resilience` — may use it without cycles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Callable, Iterator


class Span:
    """One timed operation in a trace tree."""

    __slots__ = (
        "name",
        "start",
        "end",
        "attributes",
        "children",
        "status",
        "error",
        "_origin",
    )

    def __init__(
        self, name: str, start: float, origin: float, attributes: dict
    ) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attributes = attributes
        self.children: list[Span] = []
        self.status = "ok"
        self.error: str | None = None
        self._origin = origin

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds from open to close (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def offset(self) -> float:
        """Seconds from the tracer's origin to this span's open."""
        return self.start - self._origin

    def find(self, name: str) -> "Span | None":
        """First span named *name* in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        """Every span in this subtree, depth-first, self first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict:
        """JSON-ready tree: offsets/durations in seconds, children nested."""
        record: dict = {
            "name": self.name,
            "offset": round(self.offset, 9),
            "duration": round(self.duration, 9),
            "status": self.status,
        }
        if self.error is not None:
            record["error"] = self.error
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.children:
            record["children"] = [child.as_dict() for child in self.children]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Collects one trace tree; open spans nest via a stack.

    A tracer is cheap (two lists and a clock read) and is created per
    translation; it is **not** shared across threads — the serving layer
    gives each request its own.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self.origin = self._clock()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def active(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        """Open a child span of the active span (or a new root)."""
        opened = Span(name, self._clock(), self.origin, attributes)
        parent = self.active
        if parent is not None:
            parent.children.append(opened)
        else:
            self.roots.append(opened)
        self._stack.append(opened)
        try:
            yield opened
        except BaseException as exc:  # repolint: allow[broad-except] — record status, re-raise
            opened.status = "error"
            opened.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            opened.end = self._clock()
            self._stack.pop()


#: Ambient tracer, mirroring the resilience layer's ambient deadline: the
#: pipeline installs one per translation and nested components (candidate
#: generation, grounding) attach sub-spans without plumbing changes.
_TRACER: ContextVar[Tracer | None] = ContextVar("metasql_tracer", default=None)


def current_tracer() -> Tracer | None:
    """The ambient :class:`Tracer` for this context, if any."""
    return _TRACER.get()


@contextmanager
def trace_scope(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Install *tracer* as the ambient tracer for the ``with`` body."""
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


def maybe_span(name: str, **attributes):
    """A span on the ambient tracer, or a no-op when none is installed."""
    tracer = _TRACER.get()
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, **attributes)
