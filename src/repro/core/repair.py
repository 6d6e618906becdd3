"""Bounded self-repair: feed verification failures back into generation.

When the execution-guided verify stage (:mod:`repro.core.verify`) finds
that even the *best* ranked candidate fails at runtime, the translation
is wrong in a way the rankers cannot see.  Following PURPLE's
failure-feedback loop, this module turns the typed diagnostic — the
executor error class from the verify verdict — into a *perturbation of
the metadata conditions* that produced the failing candidate, re-generates,
re-ranks and re-verifies, hoping a structurally different composition
decodes into a query that actually runs.

The loop is strictly bounded:

- at most :attr:`RepairConfig.max_attempts` attempts per translation,
- each attempt tries compositions never used before (a ``tried`` set
  threads through, so the loop cannot revisit a failing condition),
- every regeneration runs under :func:`~repro.core.resilience.guarded_call`
  with the ``repair.regenerate`` failpoint and the pipeline's dedicated
  ``repair`` circuit breaker — a pathological schema trips the breaker
  and subsequent requests skip repair outright,
- the request :class:`~repro.core.resilience.Deadline` is honoured
  between attempts.

A repair that does not produce a verified-passing top-1 keeps the
original (verified) order — the stage never makes the answer worse than
what ranking produced.

The pipeline imports this module, so this module must not import the
pipeline: it drives the owning ``MetaSQL`` duck-typed and takes the
shared stage-1 fallback from :mod:`repro.core.generation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.generation import generation_order
from repro.core.metadata import CORRECT, QueryMetadata
from repro.core.resilience import (
    Deadline,
    TranslationReport,
    fire,
    guarded_call,
)
from repro.core.verify import VerifyResult, verify_candidates
from repro.schema.database import Database

#: Which operator tags to drop first, per diagnostic class.  A budget
#: blow-up points at join/subquery explosions; execution errors at
#: aggregate/arith misuse.
_DROP_BY_DIAGNOSTIC: dict[str, tuple[str, ...]] = {
    "ExecutionBudgetError": ("join", "subquery"),
    "SqlExecutionError": ("agg", "having", "subquery"),
    "SchemaError": ("join", "subquery"),
}

_CompositionKey = tuple[frozenset, int]

#: Perturbed metadata conditions generated per repair attempt.
COMPOSITIONS_PER_ATTEMPT = 4


@dataclass
class RepairConfig:
    """Knobs for the bounded post-verify repair loop."""

    #: Repair attempts per translation (0 disables the loop entirely).
    max_attempts: int = 1

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 0


def diagnose(result: VerifyResult) -> str:
    """The typed diagnostic for a failing verified top-1.

    The repair loop runs only while the top-1 fails, so its verdict is
    ``error`` or ``budget`` and carries the executor error class
    (``SqlExecutionError`` / ``ExecutionBudgetError`` / ``SchemaError``).
    """
    return result.top1_verdict.detail


def perturb_compositions(
    metadata: QueryMetadata | None,
    diagnostic: str,
    composer,
    tried: set[_CompositionKey],
    limit: int,
) -> list[QueryMetadata]:
    """Metadata conditions to retry under, none of them tried before.

    Perturbs the failing candidate's own condition first — dropping the
    tags the *diagnostic* implicates, then any other non-``project``
    tag, then nudging the hardness rating — and pads with the composer's
    most frequent observed combinations that were not conditioned on in
    the original pass.
    """
    variants: list[QueryMetadata] = []
    seen: set[_CompositionKey] = set(tried)

    def push(meta: QueryMetadata) -> None:
        key = (meta.tags, meta.rating)
        if key in seen or not meta.tags:
            return
        seen.add(key)
        variants.append(meta)

    if metadata is not None:
        prioritized = _DROP_BY_DIAGNOSTIC.get(diagnostic, ())
        ordered_tags = [t for t in prioritized if t in metadata.tags]
        ordered_tags += sorted(metadata.tags - {"project"} - set(prioritized))
        for tag in ordered_tags:
            push(
                QueryMetadata(
                    tags=metadata.tags - {tag},
                    rating=metadata.rating,
                    correctness=CORRECT,
                )
            )
        for delta in (-200, 200):
            push(metadata.with_rating(max(100, metadata.rating + delta)))
    for meta in composer.all_compositions():
        if len(variants) >= limit:
            break
        push(meta)
    return variants[:limit]


def run_repair(
    pipeline,
    question: str,
    db: Database,
    ranked: list,
    verify_result: VerifyResult,
    tried: set[_CompositionKey],
    report: TranslationReport,
    deadline: Deadline | None = None,
) -> list:
    """The bounded repair loop; returns the (possibly repaired) ranking.

    *pipeline* is the owning :class:`~repro.core.pipeline.MetaSQL`
    (duck-typed here to keep the module free of a layering cycle);
    *ranked* is the verified ordering whose top-1 failed.  On success the
    repaired candidates lead and the original ones follow (deduplicated
    by SQL text), ``report.repair_succeeded`` flips, and the loop exits;
    attempts are counted on ``report.repair_attempts`` either way.
    """
    config = pipeline.config.repair
    failing_meta = ranked[0].metadata if ranked else None
    for _attempt in range(config.max_attempts):
        if deadline is not None and deadline.expired():
            break
        diagnostic = diagnose(verify_result)
        variants = perturb_compositions(
            failing_meta,
            diagnostic,
            pipeline.composer,
            tried,
            COMPOSITIONS_PER_ATTEMPT,
        )
        if not variants:
            break
        tried.update((meta.tags, meta.rating) for meta in variants)
        report.repair_attempts += 1
        ok, outcome = guarded_call(
            "repair",
            lambda: _attempt_once(
                pipeline, question, db, variants, report, deadline
            ),
            report,
            fallback="keep",
            site="repair.regenerate",
            breaker=pipeline._breaker("repair"),
        )
        if not ok:
            # Terminal fault or open breaker: keep the original order and
            # stop burning attempts a breaker would refuse anyway.
            break
        repaired, result = outcome
        if repaired and result is not None and not result.top1_failed:
            report.repair_succeeded = True
            return repaired + [
                translation
                for translation in ranked
                if translation.sql
                not in {r.sql for r in repaired}
            ]
        if result is not None:
            verify_result = result  # feed the freshest diagnostic forward
    return ranked


def _attempt_once(
    pipeline,
    question: str,
    db: Database,
    compositions: list[QueryMetadata],
    report: TranslationReport,
    deadline: Deadline | None,
) -> tuple[list, VerifyResult | None]:
    """One regenerate -> re-rank -> re-verify pass under new conditions.

    The regenerated set is the generator's own output, already free of
    byte-identical SQL; rendering its surfaces only isolates faults.
    """
    fire("repair.regenerate")
    generated = pipeline.generator.generate(
        question, db, compositions, report=report
    )
    if not generated:
        return [], None
    schema = db.schema
    generated, surfaces = pipeline._render_surfaces(schema, generated, report)
    if not generated:
        return [], None
    pruned = pipeline._stage1_pruned(question, surfaces, report)
    if pruned is None:
        pruned = generation_order(generated, pipeline.config.first_stage_top)
    ranked = pipeline._stage2_ranked(
        question, generated, surfaces, pruned, schema, report
    )
    if not ranked:
        return [], None
    result = verify_candidates(
        [translation.query for translation in ranked],
        db,
        pipeline.config.verify,
        deadline=deadline,
    )
    return [ranked[index] for index in result.order], result
