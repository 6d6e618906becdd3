"""Serving layer: the production shell around the pipeline.

- :class:`TranslationService` — bounded work queue, worker pool,
  admission control (typed ``Overloaded`` shedding), per-request
  deadlines and a health/readiness snapshot around the one pipeline it
  holds for its whole life.

Checkpoints are written and read by :mod:`repro.core.persist`
(``save_pipeline``/``load_pipeline``); a service warm-starts as
``TranslationService(load_pipeline(path), config)``.
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
