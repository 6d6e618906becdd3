"""Serving + durability layer: the production shell around the pipeline.

- :class:`TranslationService` — bounded work queue, worker pool,
  admission control (typed ``Overloaded`` shedding), per-request
  deadlines and a health/readiness snapshot around the one pipeline it
  holds for its whole life.
- :class:`CheckpointStore` — rotating crash-safe checkpoints with
  last-good recovery, for warm-starting a service after a crash or
  starting one on a new snapshot.
"""

from repro.serve.checkpoint import CheckpointStore
from repro.serve.service import (
    HealthSnapshot,
    ServiceConfig,
    TranslationService,
)

__all__ = [
    "CheckpointStore",
    "HealthSnapshot",
    "ServiceConfig",
    "TranslationService",
]
