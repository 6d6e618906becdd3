"""Execution-guided verification of ranked candidates.

The learned rankers never *run* the SQL they order, so a top-1 query that
references a misjoined table, blows up at runtime, or returns an empty
result ships anyway.  This module is the dynamic half of the candidate
quality story (the static half is the PR-4 semantic-lint gate): after
ranking, the top-k candidates are executed against the request's database
under one small shared :class:`~repro.schema.executor.ExecutionBudget`,
and candidates whose execution fails move behind the rest.

Outcome taxonomy per executed candidate:

- ``ok`` — executed and produced at least one row,
- ``empty`` — executed cleanly but returned no rows; not a failure,
  because a gold query can legitimately return nothing (demoting empty
  results cost ~2 EM points for zero EX gain, DESIGN.md §13),
- ``error`` — raised :class:`~repro.sqlkit.errors.SqlExecutionError` or
  :class:`~repro.sqlkit.errors.SchemaError`,
- ``budget`` — exhausted the verify stage's shared execution budget,
- ``skipped`` — not executed because the stage's time cap (or the
  request deadline) expired, or the shared budget was already gone;
  skipped candidates are presumed innocent and keep their rank.

Failing candidates (``error``/``budget``) move behind every passing and
unverified one, preserving relative order inside each group; nothing is
dropped.  ``top_k=0`` disables the stage, leaving the ranked order
bit-identical.

The stage is wrapped by the pipeline in
:func:`~repro.core.resilience.guarded_call` with a dedicated ``verify``
circuit breaker and the ``verify.execute`` failpoint: a crash (anything
other than a per-candidate execution error) falls open to the original
ranked order with a ``FaultRecord(stage="verify", fallback="keep")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.resilience import Deadline, fire
from repro.schema.database import Database
from repro.schema.executor import ExecutionBudget, budget_scope, execute
from repro.sqlkit.ast import Query
from repro.sqlkit.errors import (
    ExecutionBudgetError,
    SchemaError,
    SqlExecutionError,
)

#: Per-candidate outcome labels, in the order they are reported.
OUTCOMES = ("ok", "empty", "error", "budget", "skipped")

#: Outcomes that count as a verification failure.
FAILING = ("error", "budget")


@dataclass
class VerifyConfig:
    """Knobs for the post-rank execution-guided verify stage."""

    #: How many top-ranked candidates to execute (0 disables the stage).
    top_k: int = 3
    #: Shared step allowance for the whole top-k sweep (None = unlimited).
    budget_steps: int | None = 200_000
    #: Largest intermediate row set any one execution may materialise.
    budget_rows: int | None = 50_000
    #: Wall-clock cap in seconds for the whole verify stage (None = no
    #: cap beyond the request deadline).  Checked between executions.
    time_cap: float | None = 0.5
    #: Injectable clock for the time cap (tests); None -> time.monotonic.
    clock: Callable[[], float] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def enabled(self) -> bool:
        return self.top_k > 0


@dataclass(frozen=True)
class CandidateVerdict:
    """The execution outcome for one verified candidate."""

    index: int  # position in the ranked list handed to the stage
    outcome: str  # one of OUTCOMES
    detail: str = ""  # exception class name for error/budget outcomes
    rows: int = 0  # result rows produced (ok outcomes)


@dataclass
class VerifyResult:
    """One verify pass: per-candidate verdicts and the reordering."""

    verdicts: list[CandidateVerdict]
    #: The re-emitted candidate order as indices into the input list.
    order: list[int]
    #: Candidates that were demoted.
    demoted: int
    #: Candidates actually executed (not ``skipped``).
    checked: int
    #: Steps the shared budget had left when the sweep finished (None
    #: when the budget was unlimited).
    budget_remaining: int | None = None

    def outcome_counts(self) -> dict[str, int]:
        """Verdict tally by outcome label (only non-zero entries)."""
        counts: dict[str, int] = {}
        for verdict in self.verdicts:
            counts[verdict.outcome] = counts.get(verdict.outcome, 0) + 1
        return counts

    @property
    def top1_verdict(self) -> CandidateVerdict | None:
        """The verdict of the *re-emitted* top-1, when it was executed."""
        if not self.order:
            return None
        by_index = {v.index: v for v in self.verdicts}
        return by_index.get(self.order[0])

    @property
    def top1_failed(self) -> bool:
        """Whether the best candidate the stage can offer still fails.

        True only when the re-emitted top-1 was executed and failed —
        an unverified (skipped/beyond-k) top-1 is presumed innocent.
        """
        verdict = self.top1_verdict
        return verdict is not None and verdict.outcome in FAILING


def verify_candidates(
    queries: list[Query],
    db: Database,
    config: VerifyConfig,
    deadline: Deadline | None = None,
) -> VerifyResult:
    """Execute the top-k of *queries* against *db* and reorder by outcome.

    All executions share one :class:`ExecutionBudget` (installed
    ambiently via :func:`~repro.schema.executor.budget_scope`, so nested
    subqueries and later candidates charge the same allowance).  The
    stage stops executing — marking the rest ``skipped`` — as soon as the
    time cap or the request *deadline* expires, or the budget runs dry.

    Per-candidate execution errors are verdicts, not exceptions; anything
    else (including an armed ``verify.execute`` failpoint) propagates to
    the caller's :func:`~repro.core.resilience.guarded_call` so the stage
    fails open as a whole.
    """
    fire("verify.execute")
    cap: Deadline | None = None
    if config.time_cap is not None:
        cap = Deadline(config.time_cap, clock=config.clock)
    count = min(config.top_k, len(queries))
    verdicts: list[CandidateVerdict] = []
    budget = ExecutionBudget(
        max_steps=config.budget_steps, max_rows=config.budget_rows
    )
    with budget_scope(budget):
        for index in range(count):
            if (
                (cap is not None and cap.expired())
                or (deadline is not None and deadline.expired())
                or budget.exhausted
            ):
                verdicts.append(CandidateVerdict(index, "skipped"))
                continue
            try:
                rows = execute(queries[index], db)
            except ExecutionBudgetError as exc:
                verdicts.append(
                    CandidateVerdict(
                        index, "budget", detail=type(exc).__name__
                    )
                )
            except (SqlExecutionError, SchemaError) as exc:
                verdicts.append(
                    CandidateVerdict(index, "error", detail=type(exc).__name__)
                )
            else:
                outcome = "ok" if rows else "empty"
                verdicts.append(
                    CandidateVerdict(index, outcome, rows=len(rows))
                )
    order, demoted = _reorder(len(queries), verdicts)
    checked = sum(1 for v in verdicts if v.outcome != "skipped")
    return VerifyResult(
        verdicts=verdicts,
        order=order,
        demoted=demoted,
        checked=checked,
        budget_remaining=budget.remaining(),
    )


def _reorder(
    total: int, verdicts: list[CandidateVerdict]
) -> tuple[list[int], int]:
    """Demote failing candidates; returns (new order, demoted count).

    Groups, in order: verified-passing (``ok`` and ``empty``),
    unverified (skipped or beyond top-k — presumed innocent), failures
    (error/budget).  Original relative order is preserved inside each
    group, so the stage is a stable partition of the ranked list.
    """
    identity = list(range(total))
    by_index = {v.index: v for v in verdicts}
    passing: list[int] = []
    unverified: list[int] = []
    failing: list[int] = []
    for index in identity:
        verdict = by_index.get(index)
        if verdict is None or verdict.outcome == "skipped":
            unverified.append(index)
        elif verdict.outcome in FAILING:
            failing.append(index)
        else:
            passing.append(index)
    if not failing:
        return identity, 0
    return passing + unverified + failing, len(failing)
