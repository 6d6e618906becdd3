"""Thread-safe metrics registry with Prometheus-style exposition.

Three instrument kinds cover everything the pipeline and the serving
layer need to report:

- :class:`Counter` — monotonically increasing totals (requests,
  rejections, faults by stage/site, breaker trips);
- :class:`Gauge` — point-in-time levels (queue depth, in-flight);
- :class:`Histogram` — distributions over fixed log-scaled buckets
  (stage latency, queue wait, end-to-end latency): a count per bucket
  plus the sum, O(1) memory, no samples retained.

Instruments are created through a :class:`MetricsRegistry` with
get-or-create semantics (the second ``registry.counter("x")`` returns the
first one), optional label dimensions
(``family.labels(stage="stage1").inc()``), and one deterministic
output, the ``render_prometheus()`` text exposition.

Like the ambient deadline/tracer, a process-wide default registry is
reachable via :func:`get_registry`, and :func:`registry_scope` installs a
replacement in a :class:`~contextvars.ContextVar` so tests (and the
serving layer's worker threads) observe an isolated registry.

The module imports only the stdlib and numpy, so any layer of the
codebase can record metrics without import cycles.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

import numpy as np

#: Default histogram buckets: log-scaled, four per decade from 100us to
#: ~31.6s.  Latencies outside the range land in the first/+Inf bucket.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    float(f"{10 ** (exponent / 4):.6g}") for exponent in range(-16, 7)
)


class MetricError(ValueError):
    """Inconsistent re-registration or misuse of a metric family."""


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise MetricError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise MetricError(f"invalid metric name {name!r}")


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Prometheus-style number formatting (ints stay integral)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _label_suffix(labelnames: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + inner + "}"


class _Family:
    """Shared machinery: labelled children, locking, registration info."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> None:
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], "_Family"] = {}
        if not self.labelnames:
            # A label-less family is its own only child.
            self._children[()] = self

    def labels(self, **labels: str) -> "_Family":
        """The child instrument for one combination of label values."""
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _make_child(self) -> "_Family":
        child = type(self)(self.name, self.help)
        child._lock = self._lock  # one lock per family: updates are tiny
        return child

    def _sorted_children(self) -> list[tuple[tuple[str, ...], "_Family"]]:
        with self._lock:
            return sorted(self._children.items())

    # Subclasses implement value access and rendering.
    def _render_lines(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Family):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge")
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _render_lines(self) -> list[str]:
        lines = []
        for key, child in self._sorted_children():
            suffix = _label_suffix(self.labelnames, key)
            lines.append(
                f"{self.name}{suffix} {_format_value(child._value)}"
            )
        return lines


class Gauge(_Family):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _render_lines(self) -> list[str]:
        lines = []
        for key, child in self._sorted_children():
            suffix = _label_suffix(self.labelnames, key)
            lines.append(
                f"{self.name}{suffix} {_format_value(child._value)}"
            )
        return lines


class Histogram(_Family):
    """Fixed-bucket distribution: per-bucket counts, sum and count.

    Buckets follow Prometheus ``le`` semantics: an observation lands in
    the first bucket whose upper bound is **>=** the value; anything
    above the last bound lands in the implicit ``+Inf`` bucket.  The
    per-bucket counts are non-cumulative internally and cumulated at
    render time.
    """

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), buckets=None):
        super().__init__(name, help, labelnames)
        bounds = tuple(
            float(b) for b in (DEFAULT_BUCKETS if buckets is None else buckets)
        )
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram {name!r} buckets must be sorted and unique"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: +Inf
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        child = Histogram(self.name, self.help, buckets=self.bounds)
        child._lock = self._lock
        return child

    def observe(self, value: float) -> None:
        value = float(value)
        # Leftmost bucket with bound >= value (Prometheus `le`).
        index = int(np.searchsorted(self.bounds, value, side="left"))
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _render_lines(self) -> list[str]:
        lines = []
        for key, child in self._sorted_children():
            cumulative = 0
            for bound, count in zip(
                [*child.bounds, math.inf], child._counts
            ):
                cumulative += count
                suffix = _label_suffix(
                    self.labelnames + ("le",),
                    key + (_format_value(bound),),
                )
                lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            suffix = _label_suffix(self.labelnames, key)
            lines.append(
                f"{self.name}_sum{suffix} {_format_value(child._sum)}"
            )
            lines.append(f"{self.name}_count{suffix} {child._count}")
        return lines


class MetricsRegistry:
    """Names instruments, deduplicates them, renders exposition formats."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}, not {cls.kind}"
                    )
                if family.labelnames != labelnames:
                    raise MetricError(
                        f"metric {name!r} already registered with labels "
                        f"{family.labelnames}, not {labelnames}"
                    )
                return family
            family = cls(name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name, help="", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(), buckets=None) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> _Family | None:
        """The registered family called *name*, if any."""
        with self._lock:
            return self._families.get(name)

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        Output is deterministic (families sorted by name, series by
        label values) so it can be golden-file tested and diffed.
        """
        with self._lock:
            families = sorted(self._families.items())
        lines: list[str] = []
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            lines.extend(family._render_lines())
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide default registry (the ambient fallback).
_DEFAULT_REGISTRY = MetricsRegistry()

#: Ambient override, mirroring budget_scope/trace_scope: tests and the
#: serving layer install an isolated registry for a scope.
_REGISTRY: ContextVar[MetricsRegistry | None] = ContextVar(
    "metasql_metrics_registry", default=None
)


def get_registry() -> MetricsRegistry:
    """The ambient :class:`MetricsRegistry` (scoped, else process-wide)."""
    scoped = _REGISTRY.get()
    return scoped if scoped is not None else _DEFAULT_REGISTRY


@contextmanager
def registry_scope(
    registry: MetricsRegistry | None,
) -> Iterator[MetricsRegistry | None]:
    """Install *registry* as the ambient registry for the ``with`` body."""
    token = _REGISTRY.set(registry)
    try:
        yield registry
    finally:
        _REGISTRY.reset(token)
