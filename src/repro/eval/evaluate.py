"""Dataset-level evaluation of base models and MetaSQL pipelines.

Produces an :class:`EvalResult` holding one :class:`EvalRecord` per example
(ranked exact-match flags, EX flag, hardness level, statement-type tags), so
every paper table's breakdown can be computed from one evaluation pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.resilience import TranslationReport
from repro.data.dataset import Dataset, Example
from repro.eval.metrics import execution_match, mrr, precision_at_k
from repro.models.base import TranslationModel
from repro.sqlkit.ast import Query, SetQuery, iter_selects
from repro.sqlkit.compare import exact_match
from repro.sqlkit.hardness import Hardness


@dataclass
class EvalRecord:
    """Evaluation outcome for one example."""

    example: Example
    predictions: list[Query]
    exact_flags: list[bool]
    execution_hit: bool
    #: Resilience report for the translation (MetaSQL pipelines only).
    report: TranslationReport | None = None

    @property
    def em(self) -> bool:
        return bool(self.exact_flags and self.exact_flags[0])

    @property
    def degraded(self) -> bool:
        return self.report is not None and self.report.degraded

    @property
    def hardness(self) -> Hardness:
        return self.example.hardness


@dataclass
class EvalResult:
    """Aggregated evaluation over a dataset."""

    name: str
    records: list[EvalRecord] = field(default_factory=list)

    @property
    def em(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.em for r in self.records) / len(self.records)

    @property
    def ex(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.execution_hit for r in self.records) / len(self.records)

    def precision_at(self, k: int) -> float:
        return precision_at_k([r.exact_flags for r in self.records], k)

    @property
    def mrr(self) -> float:
        return mrr([r.exact_flags for r in self.records])

    @property
    def degraded_rate(self) -> float:
        """Fraction of examples whose translation degraded a stage."""
        if not self.records:
            return 0.0
        return sum(r.degraded for r in self.records) / len(self.records)

    def fault_counts(self) -> dict[str, int]:
        """Number of fault records per logical stage, across all examples."""
        counts: dict[str, int] = {}
        for record in self.records:
            if record.report is None:
                continue
            for fault in record.report.faults:
                counts[fault.stage] = counts.get(fault.stage, 0) + 1
        return counts

    @property
    def verify_demoted_total(self) -> int:
        """Candidates demoted by the verify stage, across examples."""
        return sum(
            r.report.verify_demoted
            for r in self.records
            if r.report is not None
        )

    @property
    def repair_attempts_total(self) -> int:
        """Metadata-perturbed regeneration attempts, across all examples."""
        return sum(
            r.report.repair_attempts
            for r in self.records
            if r.report is not None
        )

    @property
    def repair_success_rate(self) -> float:
        """Fraction of repair-attempting translations that succeeded."""
        attempted = [
            r
            for r in self.records
            if r.report is not None and r.report.repair_attempts
        ]
        if not attempted:
            return 0.0
        return sum(
            r.report.repair_succeeded for r in attempted
        ) / len(attempted)

    def em_by_hardness(self) -> dict[str, float]:
        buckets: dict[str, list[bool]] = {h.value: [] for h in Hardness}
        for record in self.records:
            buckets[record.hardness.value].append(record.em)
        return {
            level: (sum(flags) / len(flags) if flags else 0.0)
            for level, flags in buckets.items()
        }

    def ex_by_hardness(self) -> dict[str, float]:
        """EX rate per hardness bucket (the axis bench_verify deltas)."""
        buckets: dict[str, list[bool]] = {h.value: [] for h in Hardness}
        for record in self.records:
            buckets[record.hardness.value].append(record.execution_hit)
        return {
            level: (sum(flags) / len(flags) if flags else 0.0)
            for level, flags in buckets.items()
        }

    def em_by_statement_type(self) -> dict[str, float]:
        buckets: dict[str, list[bool]] = {
            t: [] for t in ("orderby", "groupby", "nested", "negation")
        }
        for record in self.records:
            for tag in statement_types(record.example.sql):
                buckets[tag].append(record.em)
        return {
            tag: (sum(flags) / len(flags) if flags else 0.0)
            for tag, flags in buckets.items()
        }

    def counts_by_statement_type(self) -> dict[str, int]:
        counts = {t: 0 for t in ("orderby", "groupby", "nested", "negation")}
        for record in self.records:
            for tag in statement_types(record.example.sql):
                counts[tag] += 1
        return counts


def statement_types(query: Query) -> set[str]:
    """Table 6 statement-type tags for a query."""
    tags: set[str] = set()
    queries = [query]
    if isinstance(query, SetQuery):
        tags.add("nested")
    for select in iter_selects(query):
        if select.order_by:
            tags.add("orderby")
        if select.group_by:
            tags.add("groupby")
        if select.from_.subquery is not None:
            tags.add("nested")
        for condition in (select.where, select.having):
            if condition is None:
                continue
            for predicate in condition.predicates:
                if predicate.has_subquery:
                    tags.add("nested")
                if predicate.negated or predicate.op == "!=":
                    tags.add("negation")
    return tags


def evaluate_model(
    model: TranslationModel,
    dataset: Dataset,
    beam_size: int = 5,
    compute_execution: bool = True,
    limit: int | None = None,
) -> EvalResult:
    """Evaluate a base translation model (standard beam decoding)."""
    result = EvalResult(name=f"{model.name}@{dataset.name}")
    examples = dataset.examples[:limit] if limit else dataset.examples
    for example in examples:
        db = dataset.database(example.db_id)
        candidates = model.translate(example.question, db, beam_size=beam_size)
        predictions = [c.query for c in candidates]
        flags = [exact_match(p, example.sql) for p in predictions[:5]]
        execution_hit = bool(predictions) and compute_execution and (
            execution_match(predictions[0], example.sql, db)
        )
        result.records.append(
            EvalRecord(
                example=example,
                predictions=predictions,
                exact_flags=flags,
                execution_hit=execution_hit,
            )
        )
    return result


def evaluate_metasql(
    pipeline,
    dataset: Dataset,
    compute_execution: bool = True,
    limit: int | None = None,
    journal=None,
) -> EvalResult:
    """Evaluate a trained MetaSQL pipeline (two-stage ranked output).

    *journal* optionally takes a :class:`repro.obs.journal.Journal` (or a
    path, opened for the duration of the call): every scored example is
    appended as one ``{"event": "eval", ...}`` JSONL record carrying the
    hardness level, EM/EX flags and the per-stage latencies from the
    translation's trace — the input
    :mod:`repro.eval.journal_analysis` aggregates offline.
    """
    result = EvalResult(
        name=f"{pipeline.model.name}+metasql@{dataset.name}"
    )
    owns_journal = False
    if journal is not None and not hasattr(journal, "append"):
        from repro.obs.journal import Journal

        journal = Journal(journal)
        owns_journal = True
    examples = dataset.examples[:limit] if limit else dataset.examples
    try:
        for example in examples:
            db = dataset.database(example.db_id)
            outcome = pipeline.translate_ranked_report(example.question, db)
            predictions = [r.query for r in outcome.translations]
            flags = [exact_match(p, example.sql) for p in predictions[:5]]
            execution_hit = False
            if predictions and compute_execution:
                try:
                    execution_hit = execution_match(
                        predictions[0], example.sql, db, report=outcome.report
                    )
                except Exception as exc:  # repolint: allow[broad-except] — eval isolation
                    outcome.report.record_exception(
                        "execute", exc, fallback="no-execution"
                    )
            record = EvalRecord(
                example=example,
                predictions=predictions,
                exact_flags=flags,
                execution_hit=execution_hit,
                report=outcome.report,
            )
            result.records.append(record)
            if journal is not None:
                journal.append(_journal_line(record))
    finally:
        if owns_journal:
            journal.close()
    return result


def _journal_line(record: EvalRecord) -> dict:
    """One eval-journal record (schema documented in DESIGN.md §10)."""
    report = record.report
    return {
        "event": "eval",
        "question": record.example.question,
        "db_id": record.example.db_id,
        "hardness": record.hardness.value,
        "em": record.em,
        "ex": record.execution_hit,
        "ok": bool(record.predictions),
        "latency_s": round((report.trace or {}).get("duration", 0.0), 6),
        **report.journal_fields(),
    }
