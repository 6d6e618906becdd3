"""End-to-end observability for the generate-then-rank pipeline.

Three telemetry layers, all dependency-light (stdlib + numpy, nothing
from the rest of :mod:`repro`, so any module can instrument itself
without cycles):

- :mod:`repro.obs.trace` — per-request span trees with an ambient
  tracer (``trace_scope`` / ``current_tracer``), attached to every
  ``TranslationReport`` as a JSON tree;
- :mod:`repro.obs.metrics` — thread-safe counters/gauges/histograms in
  a :class:`MetricsRegistry` with Prometheus text exposition
  (``registry.render_prometheus()``) and an ambient default
  (``get_registry`` / ``registry_scope``);
- :mod:`repro.obs.journal` — crash-safe append-only JSONL event log
  with torn-tail-tolerant replay, aggregated offline by
  :mod:`repro.eval.journal_analysis`.
"""

from repro.obs.journal import Journal, iter_journal, read_journal
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    get_registry,
    registry_scope,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_tracer,
    maybe_span,
    trace_scope,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Journal",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "current_tracer",
    "get_registry",
    "iter_journal",
    "maybe_span",
    "read_journal",
    "registry_scope",
    "trace_scope",
]
