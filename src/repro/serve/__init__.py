"""Serving + durability layer: the production shell around the pipeline.

- :class:`TranslationService` — bounded work queue, worker pool,
  admission control (typed ``Overloaded`` shedding), per-request
  deadlines, and a health/readiness snapshot.
- :class:`CheckpointStore` — rotating crash-safe checkpoints with
  last-good recovery, for warm-starting a service after a crash.

Multi-tenant serving (registry, router seam, quotas, hot swap) lives in
:mod:`repro.tenancy`; the service accepts a
:class:`~repro.tenancy.router.Router` wherever it accepts a pipeline.
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
