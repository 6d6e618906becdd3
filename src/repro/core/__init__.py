"""MetaSQL core: metadata, classifier, conditioned generation, ranking.

Exports resolve lazily (PEP 562) so that dependency-light members — in
particular :mod:`repro.core.resilience`, which low-level modules like
:mod:`repro.schema.executor` import for failpoints — do not drag the full
pipeline (and its imports back into ``repro.schema``) in at import time.
"""

_EXPORTS = {
    "QueryMetadata": ("repro.core.metadata", "QueryMetadata"),
    "extract_metadata": ("repro.core.metadata", "extract_metadata"),
    "MetaSQL": ("repro.core.pipeline", "MetaSQL"),
    "MetaSQLConfig": ("repro.core.pipeline", "MetaSQLConfig"),
    "FaultInjector": ("repro.core.resilience", "FaultInjector"),
    "FAULTS": ("repro.core.resilience", "FAULTS"),
    "FaultRecord": ("repro.core.resilience", "FaultRecord"),
    "TranslationReport": ("repro.core.resilience", "TranslationReport"),
    "Deadline": ("repro.core.resilience", "Deadline"),
    "CircuitBreaker": ("repro.core.resilience", "CircuitBreaker"),
    "BreakerBoard": ("repro.core.resilience", "BreakerBoard"),
    "VerifyConfig": ("repro.core.verify", "VerifyConfig"),
    "VerifyResult": ("repro.core.verify", "VerifyResult"),
    "verify_candidates": ("repro.core.verify", "verify_candidates"),
    "RepairConfig": ("repro.core.repair", "RepairConfig"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
