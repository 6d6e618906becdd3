"""MetaSQL reproduction: a generate-then-rank framework for NL2SQL translation.

The package is organised bottom-up:

- :mod:`repro.sqlkit` -- SQL tokenizer/parser/printer, exact-match comparison,
  hardness rating, unit decomposition and rule-based SQL-to-NL templates.
- :mod:`repro.schema` -- relational schema model, in-memory database and a
  SQL executor used for execution-accuracy evaluation.
- :mod:`repro.nn` -- a from-scratch numpy ML substrate (layers with
  hand-written gradients, Adam, losses, the TF-IDF text featurizer).
- :mod:`repro.data` -- synthetic Spider-like and ScienceBenchmark-like
  benchmark generators.
- :mod:`repro.models` -- simulated base NL2SQL translation models
  (grammar-based Seq2seq parsers with beam search, and a few-shot LLM sim).
- :mod:`repro.core` -- MetaSQL itself: query metadata, the multi-label
  classifier, metadata-conditioned generation and the two-stage ranking
  pipeline.
- :mod:`repro.eval` -- EM/EX/Precision@K/MRR metrics and evaluation harness.
- :mod:`repro.experiments` -- one driver per paper table/figure.
"""

__version__ = "1.0.0"

__all__ = ["MetaSQL", "QueryMetadata", "__version__"]


def __getattr__(name: str):
    """Lazily expose the top-level API without importing heavy submodules."""
    if name == "MetaSQL":
        from repro.core.pipeline import MetaSQL

        return MetaSQL
    if name == "QueryMetadata":
        from repro.core.metadata import QueryMetadata

        return QueryMetadata
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
