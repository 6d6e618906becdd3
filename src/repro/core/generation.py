"""Metadata-conditioned candidate generation (Section III-B2).

For each sampled metadata composition the base translation model decodes a
small beam; the union (deduplicated, value-grounded) is the candidate set
handed to the ranking pipeline.  Conditioning on different compositions is
what produces *structurally* diverse candidates — unlike plain beam search,
whose outputs are near-duplicates (Fig. 1 of the paper).

Before a candidate enters the set it passes the **semantic-lint gate**
(:mod:`repro.sqlkit.analyze`): a candidate that is statically invalid
against the schema — unknown columns, aggregate misuse, arity mismatches
— can never be the correct translation, so spending ranking budget on it
is pure waste.  Error-severity diagnostics prune the candidate (counted
per diagnostic code in the report, from which the pipeline derives the
metric); a candidate with only warnings is kept.  An analyzer crash on
one candidate is isolated: it is
recorded as a :class:`~repro.core.resilience.FaultRecord` and the
candidate is kept (the gate fails open, never killing the set).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metadata import QueryMetadata
from repro.core.resilience import TranslationReport, fire
from repro.obs.trace import maybe_span
from repro.core.values import ground_values, question_values
from repro.models.base import Candidate, TranslationModel
from repro.models.cues import CueEvidence
from repro.schema.database import Database
from repro.sqlkit.analyze import SemanticAnalyzer
from repro.sqlkit.ast import Query
from repro.sqlkit.diagnostics import error_codes
from repro.sqlkit.printer import to_sql


@dataclass(frozen=True)
class GeneratedCandidate:
    """A candidate SQL query and the metadata condition that produced it."""

    query: Query
    score: float
    metadata: QueryMetadata | None
    #: Canonical SQL text, rendered once by the generator's dedupe and
    #: reused by the stage-1 surface rendering instead of printing again.
    sql_text: str = ""


def generation_order(
    generated: list[GeneratedCandidate], top: int
) -> list[tuple[int, float]]:
    """The stage-1 fallback: the *top* candidates by the model's beam score.

    Returns ``(index, beam score)`` pairs best first, in the shape of
    :meth:`DualTowerRanker.rank <repro.core.rank_stage1.DualTowerRanker.rank>`
    so the pruned list feeds stage 2 either way.  Ties keep generation
    order.
    """
    order = sorted(range(len(generated)), key=lambda i: -generated[i].score)
    return [(i, generated[i].score) for i in order[:top]]


#: Candidates decoded under each metadata composition.
BEAM_PER_CONDITION = 2

#: Candidates decoded without metadata, when the set is not yet full.
UNCONDITIONED_BEAM = 3


@dataclass
class GeneratorConfig:
    """Candidate-generation knobs (cap, grounding, lint)."""
    max_candidates: int = 24
    ground_placeholder_values: bool = True
    #: Run the schema-aware semantic analyzer over every candidate and
    #: prune those with error-severity diagnostics.
    lint_candidates: bool = True


class CandidateGenerator:
    """Runs the base model once per metadata composition."""

    def __init__(
        self, model: TranslationModel, config: GeneratorConfig | None = None
    ) -> None:
        self.model = model
        self.config = config or GeneratorConfig()

    def generate(
        self,
        question: str,
        db: Database,
        compositions: list[QueryMetadata],
        report: TranslationReport | None = None,
        cues: CueEvidence | None = None,
    ) -> list[GeneratedCandidate]:
        """Candidate set for *question* under the given compositions.

        Faults are isolated per unit of work: a metadata condition whose
        decode raises is skipped (its beam is lost, the rest survive), and
        a single candidate whose value grounding or rendering raises is
        dropped.  Each isolation is recorded in *report* when one is given.

        The model's question-level work (``model.prepare``) runs once
        and is shared by every decode of this call; *cues*, the question's
        cue evidence when the caller already extracted it, is handed to
        it.  If it raises, the fault is recorded and the call returns no
        candidates.

        When an ambient tracer is installed (the pipeline installs one
        per translation) the question-level work gets a
        ``generate.prepare`` sub-span, each condition decode a
        ``generate.condition`` sub-span and each candidate's grounding a
        ``ground`` sub-span, so a slow condition or a pathological
        candidate is visible in the trace tree.
        """
        fire("generator.generate")
        config = self.config
        collected: list[GeneratedCandidate] = []
        seen: set[str] = set()
        analyzer = (
            SemanticAnalyzer(db.schema) if config.lint_candidates else None
        )
        values = (
            question_values(question)
            if config.ground_placeholder_values
            else None
        )

        def lint(query: Query) -> bool:
            """Gate one candidate: whether to keep it."""
            if analyzer is None:
                return True
            try:
                diagnostics = analyzer.analyze(query)
            except Exception as exc:  # repolint: allow[broad-except] — gate fails open, candidate kept
                if report is not None:
                    report.record_exception(
                        "lint", exc, candidate=len(collected), fallback="keep"
                    )
                return True
            codes = error_codes(diagnostics)
            if codes:
                if report is not None:
                    report.record_lint_rejection(sorted(set(codes)))
                return False
            return True

        def add(candidate: Candidate, metadata: QueryMetadata | None) -> None:
            query = candidate.query
            if values is not None:
                query = ground_values(query, question, db, values)
            key = to_sql(query)
            if key in seen:
                return
            seen.add(key)
            if not lint(query):
                return
            collected.append(
                GeneratedCandidate(
                    query=query,
                    score=candidate.score,
                    metadata=metadata,
                    sql_text=key,
                )
            )

        def add_isolated(
            candidate: Candidate, metadata: QueryMetadata | None
        ) -> None:
            try:
                with maybe_span("ground", candidate=len(collected)):
                    add(candidate, metadata)
            except Exception as exc:  # repolint: allow[broad-except] — candidate isolation
                if report is not None:
                    report.record_exception(
                        "ground",
                        exc,
                        candidate=len(collected),
                        fallback="skip",
                    )

        with maybe_span("generate.prepare"):
            try:
                prepared = self.model.prepare(question, db, cues=cues)
            except Exception as exc:  # repolint: allow[broad-except] — isolation
                if report is not None:
                    report.record_exception(
                        "generate", exc, candidate=None, fallback="skip"
                    )
                return []

        for condition_index, metadata in enumerate(compositions):
            with maybe_span(
                "generate.condition", condition=condition_index
            ) as span:
                try:
                    beam = self.model.translate(
                        question,
                        db,
                        metadata=metadata,
                        beam_size=BEAM_PER_CONDITION,
                        prepared=prepared,
                    )
                except Exception as exc:  # repolint: allow[broad-except] — isolation
                    if report is not None:
                        report.record_exception(
                            "generate",
                            exc,
                            candidate=condition_index,
                            fallback="skip",
                        )
                    continue
                before = len(collected)
                for candidate in beam:
                    add_isolated(candidate, metadata)
                if span is not None:
                    span.attributes["added"] = len(collected) - before
            if len(collected) >= config.max_candidates:
                break

        if len(collected) < config.max_candidates:
            with maybe_span("generate.unconditioned"):
                try:
                    beam = self.model.translate(
                        question,
                        db,
                        beam_size=UNCONDITIONED_BEAM,
                        prepared=prepared,
                    )
                except Exception as exc:  # repolint: allow[broad-except] — isolation
                    beam = []
                    if report is not None:
                        report.record_exception(
                            "generate", exc, candidate=None, fallback="skip"
                        )
                for candidate in beam:
                    add_isolated(candidate, None)

        return collected[: config.max_candidates]
