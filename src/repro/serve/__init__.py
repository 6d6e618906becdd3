"""Serving layer: the production shell around the pipeline.

- :class:`TranslationService` — bounded work queue, worker pool,
  admission control (typed ``Overloaded`` shedding), per-request
  deadlines and a health/readiness snapshot around the one pipeline it
  holds for its whole life.

Serving another model means starting a new service on a newly trained
pipeline.
"""

from repro.serve.service import (
    HealthSnapshot,
    ServiceConfig,
    TranslationService,
)

__all__ = [
    "HealthSnapshot",
    "ServiceConfig",
    "TranslationService",
]
