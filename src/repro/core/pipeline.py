"""The MetaSQL pipeline (Fig. 2): decompose -> generate -> rank.

``MetaSQL`` wraps any :class:`~repro.models.base.TranslationModel`:

1. **train** — metadata-augment and fit the base model (Seq2seq only),
   fit the multi-label metadata classifier and the composition index, then
   generate candidate sets over a training subsample to supervise the
   two ranking stages (clause-similarity targets vs gold).
2. **translate** — classify metadata labels, compose conditions observed in
   training, generate one small beam per condition, ground placeholder
   values, first-stage-prune to 10 candidates, second-stage-rank, then
   execution-verify the top-k (:mod:`repro.core.verify`) and, when the
   best candidate still fails at runtime, run the bounded self-repair
   loop (:mod:`repro.core.repair`) before returning the top query (or
   the full ranked list).

Ablation flags reproduce Table 9: ``use_classifier=False`` conditions on
*all* observed compositions; ``use_stage2=False`` stops after the
first-stage ranker; ``stage2=Stage2Config(phrase_supervision=False)``
removes the fine-grained losses from stage-2 training.

Every inference stage is wrapped by the resilience layer
(:mod:`repro.core.resilience`): a failing candidate is recorded and
skipped, a failing stage degrades on its first fault to the previous
stage's ordering (stage-2 -> stage-1 -> generation order, classifier ->
observed compositions) behind a circuit breaker per stage, and the
:class:`TranslationReport` attached to the output says exactly what was
absorbed.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro.core.classifier import ClassifierConfig, MetadataClassifier
from repro.core.compose import ComposerConfig, MetadataComposer
from repro.core.generation import (
    CandidateGenerator,
    GeneratedCandidate,
    GeneratorConfig,
    generation_order,
)
from repro.core.metadata import QueryMetadata, extract_metadata
from repro.core.rank_stage1 import (
    DualTowerRanker,
    RankingTriple,
    Stage1Config,
    sql_surface,
)
from repro.core.rank_stage2 import (
    ListItem,
    MultiGrainedRanker,
    RankingList,
    Stage2Config,
)
from repro.core.resilience import (
    FAULTS,
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    FaultRecord,
    TranslationReport,
    guarded_call,
)
from repro.core.repair import RepairConfig, run_repair
from repro.core.similarity import similarity_score, similarity_unit
from repro.core.verify import VerifyConfig, verify_candidates
from repro.data.dataset import Dataset
from repro.models import cues as surface_cues
from repro.models.base import TranslationModel
from repro.models.cues import CueEvidence
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Span, Tracer, current_tracer, trace_scope
from repro.schema.database import Database
from repro.sqlkit.ast import Query
from repro.sqlkit.errors import PipelineStateError
from repro.sqlkit.printer import to_sql
from repro.sqlkit.sql2nl import unit_phrases


@dataclass
class MetaSQLConfig:
    """Pipeline configuration (defaults follow Section IV-A2/3)."""

    classification_threshold: float = 0.0  # p in the paper, Fig. 6a sweeps it
    first_stage_top: int = 10  # L = 10
    ranker_train_questions: int = 400  # subsample for ranker supervision
    use_classifier: bool = True  # Table 9 ablation
    use_stage2: bool = True  # Table 9 ablation
    negative_samples: int = 120  # Section III-B1 augmentation for rankers
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    composer: ComposerConfig = field(default_factory=ComposerConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    stage1: Stage1Config = field(default_factory=Stage1Config)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    repair: RepairConfig = field(default_factory=RepairConfig)
    seed: int = 20240501


# ----------------------------------------------------------------------
# Observability wiring (metric names are documented in DESIGN.md §10).
# Breaker transitions and failpoint firings are counted when they happen,
# in the ambient registry (``get_registry()``), so the serving layer's or
# a test's registry scope is honoured.  Every per-request family is
# derived once, from the finished report, by
# ``MetaSQL._flush_report_metrics``.


def _record_breaker_transition(stage: str, old: str, new: str) -> None:
    registry = get_registry()
    registry.counter(
        "metasql_breaker_transitions_total",
        "Circuit-breaker state transitions by stage and target state.",
        labelnames=("stage", "to"),
    ).labels(stage=stage, to=new).inc()


def _record_failpoint_trigger(site: str) -> None:
    get_registry().counter(
        "metasql_failpoint_triggered_total",
        "Armed failpoint firings by injection site.",
        labelnames=("site",),
    ).labels(site=site).inc()


# The process-wide injector reports armed firings to the metrics layer.
FAULTS.on_trigger = _record_failpoint_trigger


@dataclass(frozen=True)
class RankedTranslation:
    """One ranked output of the pipeline."""

    query: Query
    stage1_score: float
    stage2_score: float
    metadata: QueryMetadata | None

    @property
    def sql(self) -> str:
        return to_sql(self.query)


@dataclass
class RankedResult:
    """Ranked translations plus the resilience report for one question."""

    translations: list[RankedTranslation]
    report: TranslationReport

    def __iter__(self):
        return iter(self.translations)

    def __len__(self) -> int:
        return len(self.translations)

    @property
    def degraded(self) -> bool:
        return self.report.degraded


class MetaSQL:
    """Generate-then-rank framework around a base translation model."""

    def __init__(
        self,
        model: TranslationModel,
        config: MetaSQLConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or MetaSQLConfig()
        self.classifier = MetadataClassifier(self.config.classifier)
        self.composer = MetadataComposer(self.config.composer)
        self.generator = CandidateGenerator(model, self.config.generator)
        self.stage1 = DualTowerRanker(self.config.stage1)
        self.stage2 = MultiGrainedRanker(self.config.stage2)
        self._trained = False
        self.breakers = BreakerBoard(on_transition=_record_breaker_transition)
        # "Not known broken": a restored pipeline (persist.load_pipeline)
        # keeps these True; a guarded training failure flips them so
        # inference degrades instead of raising.
        self._classifier_ok = True
        self._stage1_ok = True
        self._stage2_ok = True
        self.training_report = TranslationReport(question="<training>")

    # ------------------------------------------------------------------
    # Training.

    def train(self, train: Dataset, fit_base_model: bool = True) -> "MetaSQL":
        """Train every stage of the pipeline on *train*.

        The base model and the composition index are load-bearing (without
        them there is nothing to rank) so their failures propagate; the
        classifier and both rankers train under :func:`guarded_call` —
        a guarded failure is recorded in ``training_report`` and the
        corresponding stage degrades at inference instead of raising.
        """
        self.training_report = TranslationReport(question="<training>")
        if fit_base_model:
            # Metadata-augmented supervised training (Seq2seq models);
            # LLM sims index demonstrations instead and always honour
            # prompt metadata.
            self.model.fit(train, with_metadata=True)
        self._classifier_ok, __ = guarded_call(
            "train.classify",
            lambda: self.classifier.fit(train),
            self.training_report,
            fallback="all-compositions",
        )
        self.composer.fit(train)
        self._fit_rankers(train)
        self._trained = True
        return self

    def _fit_rankers(self, train: Dataset) -> None:
        report = self.training_report
        rng = np.random.default_rng(self.config.seed)
        count = min(self.config.ranker_train_questions, len(train.examples))
        indices = rng.permutation(len(train.examples))[:count]

        triples: list[RankingTriple] = []
        lists: list[RankingList] = []
        for raw_index in indices:
            example = train.examples[int(raw_index)]
            try:
                example_triples, items = self._ranker_supervision(
                    example, train, report
                )
            except Exception as exc:  # repolint: allow[broad-except] — example isolation
                report.record_exception(
                    "train", exc, candidate=int(raw_index), fallback="skip"
                )
                continue
            triples.extend(example_triples)
            if len(items) >= 2:
                ordered = tuple(
                    sorted(items, key=lambda item: -item.target)[
                        : self.config.stage2.list_size
                    ]
                )
                lists.append(
                    RankingList(question=example.question, items=ordered)
                )
        ok, negatives = guarded_call(
            "train.negatives",
            lambda: self._negative_triples(train),
            report,
            fallback="skip",
        )
        if ok:
            triples.extend(negatives)
        self._stage1_ok, __ = guarded_call(
            "train.stage1",
            lambda: self.stage1.fit(triples),
            report,
            fallback="generation-order",
        )
        if self.config.use_stage2:
            self._stage2_ok, __ = guarded_call(
                "train.stage2",
                lambda: self.stage2.fit(lists),
                report,
                fallback="stage1-order",
            )

    def _ranker_supervision(
        self,
        example,
        train: Dataset,
        report: TranslationReport,
    ) -> tuple[list[RankingTriple], list[ListItem]]:
        """Supervision triples/list items for one training example.

        Candidates whose similarity/surface computation raises are
        recorded and skipped; the example's remaining candidates (plus the
        gold positive) still supervise the rankers.
        """
        db = train.database(example.db_id)
        schema = db.schema
        compositions, cues = self._compositions_for(example.question, db)
        candidates = self.generator.generate(
            example.question, db, compositions, report=report, cues=cues
        )
        triples: list[RankingTriple] = []
        items: list[ListItem] = []
        seen_gold = False
        for index, candidate in enumerate(candidates):
            try:
                unit_target = similarity_unit(candidate.query, example.sql)
                target10 = similarity_score(candidate.query, example.sql)
                surface = sql_surface(
                    candidate.query, schema, sql_text=candidate.sql_text
                )
                phrases = tuple(unit_phrases(candidate.query, schema))
            except Exception as exc:  # repolint: allow[broad-except] — candidate isolation
                report.record_exception(
                    "train", exc, candidate=index, fallback="skip"
                )
                continue
            if target10 >= 9.99:
                seen_gold = True
            triples.append(
                RankingTriple(
                    question=example.question,
                    sql_text=surface,
                    target=unit_target,
                )
            )
            items.append(
                ListItem(surface=surface, phrases=phrases, target=target10)
            )
        if not seen_gold:
            # Positive sample from the benchmark itself (Section III-C1).
            surface = sql_surface(example.sql, schema)
            triples.append(
                RankingTriple(
                    question=example.question,
                    sql_text=surface,
                    target=1.0,
                )
            )
            items.append(
                ListItem(
                    surface=surface,
                    phrases=tuple(unit_phrases(example.sql, schema)),
                    target=10.0,
                )
            )
        return triples, items

    def _negative_triples(self, train: Dataset) -> list[RankingTriple]:
        """Extra stage-1 negatives from incorrect-conditioned decoding.

        Implements the paper's Section III-B1 augmentation: erroneous
        translations collected on the training set supervise the rankers as
        low-similarity pairs.
        """
        if self.config.negative_samples <= 0 or not self.model.metadata_trained:
            return []
        from repro.core.negatives import collect_negative_samples

        triples: list[RankingTriple] = []
        negatives = collect_negative_samples(
            self.model,
            train,
            max_examples=self.config.negative_samples,
            seed=self.config.seed + 1,
        )
        for example, wrong_query in negatives:
            schema = train.schema(example.db_id)
            triples.append(
                RankingTriple(
                    question=example.question,
                    sql_text=sql_surface(wrong_query, schema),
                    target=similarity_unit(wrong_query, example.sql),
                )
            )
        return triples

    # ------------------------------------------------------------------
    # Inference.

    def _breaker(self, stage: str) -> CircuitBreaker:
        return self.breakers[stage]

    @staticmethod
    def _deadline_expired(
        deadline: Deadline | None,
        report: TranslationReport,
        stage: str,
        fallback: str,
    ) -> bool:
        """Cooperative deadline checkpoint at one stage boundary.

        Records the expiry (once — callers return immediately) with the
        *fallback* label describing what the translation degrades to.
        """
        if deadline is None or not deadline.expired():
            return False
        report.record_deadline(deadline, stage, fallback)
        return True

    def _classify(
        self, question: str, db: Database
    ) -> tuple[CueEvidence, tuple[set[str], list[int]]]:
        """The question's cues and the classifier's labels read from them."""
        # Through the module, so a wrapper on extract_cues sees the call.
        cues = surface_cues.extract_cues(question, db)
        return cues, self.classifier.predict(
            question,
            db,
            threshold=self.config.classification_threshold,
            cues=cues,
        )

    def _observed_compositions(self) -> list[QueryMetadata]:
        """The compositions used when the classifier is off or fails."""
        return self.composer.all_compositions(
            limit=self.config.composer.max_compositions * 3
        )

    def _or_most_common(
        self, compositions: list[QueryMetadata]
    ) -> list[QueryMetadata]:
        """*compositions*, or the four most common observed ones if empty."""
        return compositions or self.composer.all_compositions(limit=4)

    def _compositions_for(
        self, question: str, db: Database
    ) -> tuple[list[QueryMetadata], CueEvidence | None]:
        """The compositions for *question*, and the cues the classifier
        read (None without a classifier; generation then extracts its
        own)."""
        if not self.config.use_classifier or not self._classifier_ok:
            return self._observed_compositions(), None
        cues, (tags, ratings) = self._classify(question, db)
        compositions = self.composer.compose(tags, ratings)
        return self._or_most_common(compositions), cues

    def _compositions_guarded(
        self,
        question: str,
        db: Database,
        report: TranslationReport,
    ) -> tuple[list[QueryMetadata], CueEvidence | None]:
        """The degradation-aware composition chain, and the question's cues.

        classifier failure -> observed compositions; composition failure
        -> observed compositions; observed-composition failure -> empty
        (the generator still decodes its unconditioned beam).

        The cue evidence the classifier read comes back for generation to
        reuse; it is None when classification did not get that far, and
        generation then extracts its own.
        """
        cues = None
        if self.config.use_classifier and self._classifier_ok:
            ok, predicted = guarded_call(
                "classify",
                lambda: self._classify(question, db),
                report,
                fallback="all-compositions",
                site="classifier.predict",
                breaker=self._breaker("classify"),
            )
            if ok:
                cues, (tags, ratings) = predicted
                ok, compositions = guarded_call(
                    "compose",
                    lambda: self.composer.compose(tags, ratings),
                    report,
                    fallback="all-compositions",
                    site="compose",
                    breaker=self._breaker("compose"),
                )
                if ok:
                    return self._or_most_common(compositions), cues
        elif self.config.use_classifier and not self._classifier_ok:
            report.record(
                FaultRecord(
                    stage="classify",
                    error_type="StageError",
                    error="classifier unavailable (training failed)",
                    fallback="all-compositions",
                )
            )
        ok, compositions = guarded_call(
            "compose",
            self._observed_compositions,
            report,
            fallback="unconditioned",
            breaker=self._breaker("compose"),
        )
        return (compositions if ok else []), cues

    def candidates(
        self,
        question: str,
        db: Database,
        compositions: list[QueryMetadata] | None = None,
        report: TranslationReport | None = None,
    ) -> list[GeneratedCandidate]:
        """The metadata-conditioned candidate set for *question*."""
        if not self._trained:
            raise PipelineStateError(
                "MetaSQL pipeline is not trained; call train() or "
                "load_pipeline() before requesting candidates"
            )
        cues = None
        if compositions is None:
            compositions, cues = self._compositions_for(question, db)
        return self.generator.generate(
            question, db, compositions, report=report, cues=cues
        )

    def translate_ranked_report(
        self,
        question: str,
        db: Database,
        compositions: list[QueryMetadata] | None = None,
        deadline: Deadline | None = None,
    ) -> RankedResult:
        """Two-stage ranking with fault isolation and a resilience report.

        Never raises for stage or candidate failures: each one is either
        isolated (per candidate) or absorbed by the degradation chain on
        its first occurrence, and shows up as a :class:`FaultRecord` in
        the returned report.  Only lifecycle misuse (untrained pipeline)
        raises.

        A *deadline* is checked cooperatively at every stage
        boundary; once expired the
        translation degrades to the best answer produced so far —
        stage-1 ordering if stage-1 ran, generation order if only the
        generator ran, empty otherwise — with the expiry recorded on the
        report (``deadline_budget`` / ``deadline_stage``).

        Every call is traced: a ``translate`` root span with one child
        per stage (plus the generator's per-condition/per-candidate
        sub-spans) is attached to ``report.trace``.  Once the stages are
        done, whichever return path they took, every per-request metric
        (latencies, candidate counts, faults, degradations) is derived
        from the report and the span tree into the ambient registry.
        """
        if not self._trained:
            raise PipelineStateError(
                "MetaSQL pipeline is not trained; call train() or "
                "load_pipeline() before translating"
            )
        report = TranslationReport(question=question)
        if deadline is not None:
            report.deadline_budget = deadline.budget
        with ExitStack() as stack:
            tracer = current_tracer()
            if tracer is None:
                tracer = Tracer()
                stack.enter_context(trace_scope(tracer))
            with tracer.span("translate") as root:
                translations = self._translate_stages(
                    question, db, compositions, deadline, report, tracer
                )
        report.trace = root.as_dict()
        self._flush_report_metrics(get_registry(), report, root)
        return RankedResult(translations, report)

    def _translate_stages(
        self,
        question: str,
        db: Database,
        compositions: list[QueryMetadata] | None,
        deadline: Deadline | None,
        report: TranslationReport,
        tracer: Tracer,
    ) -> list[RankedTranslation]:
        """The four traced stage blocks behind ``translate_ranked_report``."""
        with tracer.span("classify") as span:
            if self._deadline_expired(deadline, report, "classify", "empty"):
                return []
            cues = None
            if compositions is None:
                compositions, cues = self._compositions_guarded(
                    question, db, report
                )
            span.attributes["compositions"] = len(compositions)

        with tracer.span("generate") as span:
            if self._deadline_expired(deadline, report, "generate", "empty"):
                return []
            ok, generated = guarded_call(
                "generate",
                lambda: self.generator.generate(
                    question, db, compositions, report=report, cues=cues
                ),
                report,
                fallback="empty",
                site="generator.generate",
                breaker=self._breaker("generate"),
            )
            if not ok or not generated:
                span.attributes["candidates"] = 0
                return []

            span.attributes["generated"] = len(generated)
            schema = db.schema
            generated, surfaces = self._render_surfaces(
                schema, generated, report
            )
            span.attributes["candidates"] = len(generated)
            if report.lint_rejected:
                span.attributes["lint_rejected"] = report.lint_rejected
        if not generated:
            return []

        with tracer.span("stage1") as span:
            if self._deadline_expired(
                deadline, report, "stage1", "generation-order"
            ):
                return self._ranked_from_pruned(
                    generated,
                    generation_order(generated, self.config.first_stage_top),
                )
            span.attributes["batch_size"] = len(surfaces)
            pruned = self._stage1_pruned(question, surfaces, report)
            if pruned is None:
                pruned = generation_order(
                    generated, self.config.first_stage_top
                )
            span.attributes["kept"] = len(pruned)

        with tracer.span("stage2") as span:
            if self._deadline_expired(
                deadline, report, "stage2", "stage1-order"
            ):
                return self._ranked_from_pruned(generated, pruned)
            span.attributes["batch_size"] = len(pruned)
            ranked = self._stage2_ranked(
                question, generated, surfaces, pruned, schema, report
            )
            span.attributes["ranked"] = len(ranked)
        return self._verify_and_repair(
            question, db, ranked, deadline, report, tracer
        )

    def _verify_and_repair(
        self,
        question: str,
        db: Database,
        ranked: list[RankedTranslation],
        deadline: Deadline | None,
        report: TranslationReport,
        tracer: Tracer,
    ) -> list[RankedTranslation]:
        """Execution-guided verification plus the bounded repair loop.

        Executes the top-k ranked candidates (``config.verify``) and
        re-emits the order with runtime failures demoted; when the best
        candidate the stage can offer *still* hard-fails,
        metadata-perturbed regeneration (``config.repair``) gets a
        bounded number of attempts to replace it.  With
        ``verify.top_k == 0`` this method is an identity: no spans, no
        metrics, bit-identical ranked output.

        Fail-open contract: a verify-stage crash (injected or organic)
        is absorbed by ``guarded_call`` as ``FaultRecord(stage="verify",
        fallback="keep")`` and the incoming ranked order stands.
        """
        config = self.config.verify
        if not config.enabled or not ranked:
            return ranked
        with tracer.span("verify") as span:
            if self._deadline_expired(deadline, report, "verify", "keep"):
                return ranked
            span.attributes["candidates"] = len(ranked)
            ok, result = guarded_call(
                "verify",
                lambda: verify_candidates(
                    [translation.query for translation in ranked],
                    db,
                    config,
                    deadline=deadline,
                ),
                report,
                fallback="keep",
                site="verify.execute",
                breaker=self._breaker("verify"),
            )
            if not ok:
                return ranked
            report.record_verify(result.outcome_counts(), result.demoted)
            span.attributes["checked"] = result.checked
            span.attributes["demoted"] = result.demoted
            verified = [ranked[index] for index in result.order]
        if not (self.config.repair.enabled and result.top1_failed and verified):
            return verified
        with tracer.span("repair") as span:
            if self._deadline_expired(deadline, report, "repair", "keep"):
                return verified
            tried = {
                (translation.metadata.tags, translation.metadata.rating)
                for translation in ranked
                if translation.metadata is not None
            }
            repaired = run_repair(
                self,
                question,
                db,
                verified,
                result,
                tried,
                report,
                deadline=deadline,
            )
            span.attributes["attempts"] = report.repair_attempts
            span.attributes["succeeded"] = report.repair_succeeded
        return repaired

    @staticmethod
    def _flush_report_metrics(
        registry: MetricsRegistry, report: TranslationReport, root: Span
    ) -> None:
        """Derive every per-request metric family from one translation.

        Durations come from the live spans under *root* (the exported
        ``report.trace`` rounds them to the nanosecond); candidate counts
        from the ``generate`` and ``stage1`` span attributes; the rest
        from *report*.  A family first appears when a request has
        something to count in it.
        """
        registry.histogram(
            "metasql_translate_latency_seconds",
            "End-to-end pipeline translate latency.",
        ).observe(root.duration)
        stage_latency = registry.histogram(
            "metasql_stage_latency_seconds",
            "Wall seconds spent per pipeline stage.",
            labelnames=("stage",),
        )
        attributes: dict[str, dict] = {}
        for stage in root.children:
            stage_latency.labels(stage=stage.name).observe(stage.duration)
            attributes[stage.name] = stage.attributes

        generate = attributes.get("generate", {})
        if "generated" in generate:
            registry.counter(
                "metasql_candidates_generated_total",
                "Candidates surviving generation and surface rendering.",
            ).inc(generate["candidates"])
        kept = attributes.get("stage1", {}).get("kept")
        if kept is not None:
            registry.counter(
                "metasql_candidates_pruned_total",
                "Candidates dropped by first-stage pruning.",
            ).inc(max(0, generate["candidates"] - kept))
        if report.lint_codes:
            lint = registry.counter(
                "metasql_candidates_lint_rejected_total",
                "Candidates pruned by the semantic-lint gate, by "
                "diagnostic code.",
                labelnames=("code",),
            )
            for code, count in report.lint_codes.items():
                lint.labels(code=code).inc(count)

        if report.verify_outcomes:
            outcomes = registry.counter(
                "metasql_verify_candidates_total",
                "Verified candidates by execution outcome.",
                labelnames=("outcome",),
            )
            for outcome, count in report.verify_outcomes.items():
                outcomes.labels(outcome=outcome).inc(count)
        if report.verify_demoted:
            registry.counter(
                "metasql_verify_demoted_total",
                "Candidates demoted by the verify stage.",
            ).inc(report.verify_demoted)
        if report.repair_attempts:
            registry.counter(
                "metasql_repair_attempts_total",
                "Metadata-perturbed regeneration attempts.",
            ).inc(report.repair_attempts)
        if report.repair_succeeded:
            registry.counter(
                "metasql_repair_success_total",
                "Translations whose repaired top-1 passed verification.",
            ).inc()

        if report.faults:
            faults = registry.counter(
                "metasql_faults_total",
                "Fault records by stage, failpoint site and fallback.",
                labelnames=("stage", "site", "fallback"),
            )
            for record in report.faults:
                faults.labels(
                    stage=record.stage,
                    site=record.site or "",
                    fallback=record.fallback or "",
                ).inc()
        if report.degraded:
            registry.counter(
                "metasql_degraded_translations_total",
                "Translations that applied any degradation fallback.",
            ).inc()
        if report.deadline_expired:
            registry.counter(
                "metasql_deadline_expired_total",
                "Deadline expiries by the stage that observed them.",
                labelnames=("stage",),
            ).labels(stage=report.deadline_stage or "").inc()

    @staticmethod
    def _ranked_from_pruned(
        generated: list[GeneratedCandidate],
        pruned: list[tuple[int, float]],
    ) -> list[RankedTranslation]:
        """Degraded output: the pruned ordering stands in for stage 2."""
        return [
            RankedTranslation(
                query=generated[index].query,
                stage1_score=stage1_score,
                stage2_score=stage1_score,
                metadata=generated[index].metadata,
            )
            for index, stage1_score in pruned
        ]

    def _render_surfaces(
        self,
        schema,
        generated: list[GeneratedCandidate],
        report: TranslationReport,
    ) -> tuple[list[GeneratedCandidate], list[str]]:
        """Stage-1 surfaces for a candidate set.

        Per-candidate rendering failures are isolated (recorded and
        skipped).  The set is the generator's, already free of
        byte-identical SQL.  Shared by the main translate path and the
        repair loop's regeneration pass.  Returns ``(kept candidates,
        surfaces)``.
        """
        surfaces: list[str] = []
        kept: list[GeneratedCandidate] = []
        for index, candidate in enumerate(generated):
            try:
                surface = sql_surface(
                    candidate.query, schema, sql_text=candidate.sql_text
                )
            except Exception as exc:  # repolint: allow[broad-except] — isolation
                report.record_exception(
                    "surface", exc, candidate=index, fallback="skip"
                )
                continue
            surfaces.append(surface)
            kept.append(candidate)
        return kept, surfaces

    def _stage1_pruned(
        self,
        question: str,
        surfaces: list[str],
        report: TranslationReport,
    ) -> list[tuple[int, float]] | None:
        """Stage-1 pruning, or None when it failed/was unavailable."""
        if not self._stage1_ok:
            report.record(
                FaultRecord(
                    stage="stage1",
                    error_type="StageError",
                    error="stage-1 ranker unavailable (training failed)",
                    fallback="generation-order",
                )
            )
            return None
        ok, pruned = guarded_call(
            "stage1",
            lambda: self.stage1.rank(
                question, surfaces, top_k=self.config.first_stage_top
            ),
            report,
            fallback="generation-order",
            site="stage1.rank",
            breaker=self._breaker("stage1"),
        )
        return pruned if ok else None

    def _stage2_ranked(
        self,
        question: str,
        generated: list[GeneratedCandidate],
        surfaces: list[str],
        pruned: list[tuple[int, float]],
        schema,
        report: TranslationReport,
    ) -> list[RankedTranslation]:
        """Stage-2 re-ranking with fallback to the stage-1 ordering."""
        if self.config.use_stage2 and self._stage2_ok:
            stage2_input: list[tuple[str, tuple[str, ...]]] = []
            rows: list[tuple[int, float]] = []
            for index, stage1_score in pruned:
                try:
                    phrases = tuple(
                        unit_phrases(generated[index].query, schema)
                    )
                except Exception as exc:  # repolint: allow[broad-except] — isolation
                    report.record_exception(
                        "stage2", exc, candidate=index, fallback="skip"
                    )
                    continue
                stage2_input.append((surfaces[index], phrases))
                rows.append((index, stage1_score))
            if rows:
                ok, stage2_ranked = guarded_call(
                    "stage2",
                    lambda: self.stage2.rank(question, stage2_input),
                    report,
                    fallback="stage1-order",
                    site="stage2.rank",
                    breaker=self._breaker("stage2"),
                )
                if ok:
                    ranked = []
                    for position, score in stage2_ranked:
                        index, stage1_score = rows[position]
                        candidate = generated[index]
                        ranked.append(
                            RankedTranslation(
                                query=candidate.query,
                                stage1_score=stage1_score,
                                stage2_score=score,
                                metadata=candidate.metadata,
                            )
                        )
                    return ranked
        elif self.config.use_stage2 and not self._stage2_ok:
            report.record(
                FaultRecord(
                    stage="stage2",
                    error_type="StageError",
                    error="stage-2 ranker unavailable (training failed)",
                    fallback="stage1-order",
                )
            )
        return self._ranked_from_pruned(generated, pruned)

    def translate_ranked(
        self,
        question: str,
        db: Database,
        compositions: list[QueryMetadata] | None = None,
        deadline: Deadline | None = None,
    ) -> list[RankedTranslation]:
        """Full two-stage ranking; returns translations best-first.

        Use :meth:`translate_ranked_report` to get the resilience report
        alongside the list.
        """
        return self.translate_ranked_report(
            question, db, compositions, deadline=deadline
        ).translations

    def translate(
        self,
        question: str,
        db: Database,
        deadline: Deadline | None = None,
    ) -> Query | None:
        """Best translation for *question*, or None.

        Degrades rather than raises on stage faults; use
        :meth:`translate_ranked_report` to see what was absorbed.
        """
        result = self.translate_ranked_report(question, db, deadline=deadline)
        if not result.translations:
            return None
        return result.translations[0].query
