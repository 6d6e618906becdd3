"""Serving + durability layer: the production shell around the pipeline.

- :class:`TranslationService` — bounded work queue, worker pool,
  admission control (typed ``Overloaded`` shedding), per-request
  deadlines, a health/readiness snapshot, and tear-free hot swap of
  the one pipeline shard it serves, with automatic rollback.
- :class:`CheckpointStore` — rotating crash-safe checkpoints with
  last-good recovery, for warm-starting a service after a crash or
  swapping in a new snapshot.
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
