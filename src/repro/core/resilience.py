"""Fault isolation and graceful degradation for the generate-then-rank
pipeline.

MetaSQL's value proposition is that a ranked *set* of candidates beats a
single decode — which only holds if one bad candidate (or one flaky stage)
cannot take the whole translation down.  This module provides the three
pieces the pipeline threads through every stage:

- :class:`FaultInjector` — a failpoint registry with named injection
  sites (:data:`FAILPOINTS`).  Each guarded function calls
  :func:`fire` at entry; tests arm a site to make it raise, which is how
  the degradation chain is exercised deterministically.  With nothing
  armed, ``fire`` is a single truthiness check on an empty dict.
- :func:`guarded_call` — the one fallback rule every stage shares:
  stage-2 failure falls back to stage-1 ordering, stage-1 failure to
  generation order, classifier failure to the composer's observed
  compositions.  A stage runs once: its first fault applies the
  fallback.  Each inference stage has a :class:`CircuitBreaker` on the
  pipeline's :class:`BreakerBoard`.
- :class:`TranslationReport` / :class:`FaultRecord` — structured
  observability attached to pipeline output: which stages degraded, which
  candidates were skipped, and why.  The report's one JSON form is
  :meth:`TranslationReport.journal_fields`, the request's journal line.

The module is deliberately dependency-light (stdlib + the error taxonomy
in :mod:`repro.sqlkit.errors`) so low-level modules such as
:mod:`repro.schema.executor` can import it without layering cycles.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.sqlkit.errors import PipelineError

#: Named injection sites, one per guarded pipeline stage.  ``fire(site)``
#: is called at the entry of the corresponding function.
FAILPOINTS: tuple[str, ...] = (
    "classifier.predict",
    "compose",
    "generator.generate",
    "values.ground_values",
    "stage1.rank",
    "stage2.rank",
    "executor.execute",
    "verify.execute",
    "repair.regenerate",
    "persist.save",
    "persist.finalize",
    "serve.handle",
)


class InjectedFault(PipelineError):
    """The fault raised by an armed failpoint (test-controlled)."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site!r}")
        self.site = site


@dataclass
class _ArmedSite:
    """One armed failpoint: what to raise and how many times."""

    site: str
    exc: Callable[[], BaseException] | BaseException | None
    times: int | None  # None = every call
    fired: int = 0

    def trigger(self) -> None:
        if self.times is not None and self.fired >= self.times:
            return
        self.fired += 1
        if self.exc is not None:
            # Accept a factory (class or zero-arg callable) or a ready
            # exception instance — instances are not callable.
            raise self.exc() if callable(self.exc) else self.exc
        raise InjectedFault(self.site)


class FaultInjector:
    """Registry of named failpoints, controllable from tests.

    >>> with FAULTS.inject("stage1.rank"):
    ...     pipeline.translate(question, db)   # stage-1 fault -> fallback

    ``on_trigger`` is an instrumentation callback invoked with the site
    name every time an armed site actually raises (the observability
    layer wires it to a per-failpoint counter); observer errors are
    swallowed so instrumentation can never mask the injected fault.
    """

    def __init__(self, sites: tuple[str, ...] = FAILPOINTS) -> None:
        self._sites = set(sites)
        self._armed: dict[str, _ArmedSite] = {}
        self.on_trigger: Callable[[str], None] | None = None

    @property
    def sites(self) -> tuple[str, ...]:
        """All registered failpoint names."""
        return tuple(sorted(self._sites))

    def _check(self, site: str) -> None:
        if site not in self._sites:
            known = ", ".join(sorted(self._sites))
            raise ValueError(f"unknown failpoint {site!r} (known: {known})")

    def arm(
        self,
        site: str,
        exc: Callable[[], BaseException] | BaseException | None = None,
        times: int | None = 1,
    ) -> None:
        """Make *site* raise on its next *times* firings (None = always).

        *exc* may be an exception class, a zero-arg factory, or a ready
        instance; by default an :class:`InjectedFault` is raised.
        """
        self._check(site)
        self._armed[site] = _ArmedSite(site=site, exc=exc, times=times)

    def disarm(self, site: str | None = None) -> None:
        """Disarm one site, or every site when *site* is None."""
        if site is None:
            self._armed.clear()
        else:
            self._armed.pop(site, None)

    def fired(self, site: str) -> int:
        """How many times the armed plan at *site* has raised."""
        plan = self._armed.get(site)
        return plan.fired if plan is not None else 0

    def fire(self, site: str) -> None:
        """Hook called at a failpoint; raises only when the site is armed."""
        if not self._armed:
            return
        plan = self._armed.get(site)
        if plan is None:
            return
        try:
            plan.trigger()
        except BaseException:  # repolint: allow[broad-except] — notify observer, re-raise
            if self.on_trigger is not None:
                try:
                    self.on_trigger(site)
                except Exception:  # repolint: allow[broad-except] — observers never mask
                    pass
            raise

    @contextmanager
    def inject(
        self,
        site: str,
        exc: Callable[[], BaseException] | BaseException | None = None,
        times: int | None = 1,
    ) -> Iterator["FaultInjector"]:
        """Context manager: arm *site* on entry, disarm it on exit."""
        self.arm(site, exc=exc, times=times)
        try:
            yield self
        finally:
            self.disarm(site)


#: Process-wide default injector; guarded modules call ``fire`` on it.
FAULTS = FaultInjector()


def fire(site: str) -> None:
    """Fire the process-wide injector at *site* (no-op unless armed)."""
    FAULTS.fire(site)


# ----------------------------------------------------------------------
# Deadlines: cooperative per-request time budgets.


class Deadline:
    """A per-request time budget, checked cooperatively between stages.

    The pipeline never pre-empts a running stage; instead it consults the
    deadline at the stage boundaries (classify -> compose -> generate ->
    stage-1 -> stage-2) and, once expired, degrades to the best answer
    produced so far.  The clock is injectable so tests can drive expiry
    deterministically; production uses :func:`time.monotonic`.
    """

    __slots__ = ("budget", "_clock", "_started")

    def __init__(
        self,
        budget: float,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.budget = float(budget)
        self._clock = clock if clock is not None else time.monotonic
        self._started = self._clock()

    def elapsed(self) -> float:
        """Seconds spent since the deadline was created."""
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self.budget - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(budget={self.budget:.3f}, "
            f"remaining={self.remaining():.3f})"
        )


# ----------------------------------------------------------------------
# Circuit breakers: skip persistently failing stages until a probe
# succeeds.


class CircuitBreaker:
    """Closed / open / half-open breaker for one pipeline stage.

    - **closed** — calls pass through; ``threshold`` *consecutive*
      faults trip the breaker open.
    - **open** — calls are refused (``allow() is False``) so the stage's
      existing degradation fallback applies without paying for the call;
      after ``cooldown`` seconds the next ``allow()`` admits one probe.
    - **half-open** — exactly one probe is in flight; its success closes
      the breaker, its failure re-opens it for another cooldown.

    Thread-safe (the serving layer shares one pipeline across workers)
    and clock-injectable for deterministic tests.  State transitions are
    reported to the optional ``on_transition(stage, old, new)`` callback
    — the observability layer's hook for breaker-flap counters — invoked
    *outside* the breaker lock so observers can safely touch shared
    registries; observer errors are swallowed.
    """

    def __init__(
        self,
        stage: str,
        threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] | None = None,
        on_transition: Callable[[str, str, str], None] | None = None,
    ) -> None:
        if threshold <= 0:
            raise ValueError("breaker threshold must be positive")
        self.stage = stage
        self.threshold = threshold
        self.cooldown = cooldown
        self.on_transition = on_transition
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0  # consecutive faults while closed
        self._opened_at = 0.0
        self._probing = False
        self._opened_total = 0  # times tripped, for health snapshots
        self._pending: list[tuple[str, str]] = []  # transitions to notify

    @property
    def state(self) -> str:
        """Current state, applying the open -> half-open transition."""
        with self._lock:
            state = self._state_locked()
        self._notify()
        return state

    def _set_state_locked(self, new: str) -> None:
        if new != self._state:
            self._pending.append((self._state, new))
            self._state = new

    def _notify(self) -> None:
        """Flush queued transitions to the observer, outside the lock."""
        if self.on_transition is None:
            return
        with self._lock:
            pending, self._pending = self._pending, []
        for old, new in pending:
            try:
                self.on_transition(self.stage, old, new)
            except Exception:  # repolint: allow[broad-except] — observers never break us
                pass

    def _state_locked(self) -> str:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._set_state_locked("half-open")
            self._probing = False
        return self._state

    def allow(self) -> bool:
        """Whether the next call may proceed (admits half-open probes)."""
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                admitted = True
            elif state == "half-open" and not self._probing:
                self._probing = True
                admitted = True
            else:
                admitted = False
        self._notify()
        return admitted

    def record_success(self) -> None:
        """A guarded call (or probe) succeeded: close and reset."""
        with self._lock:
            self._set_state_locked("closed")
            self._failures = 0
            self._probing = False
        self._notify()

    def record_failure(self) -> None:
        """A guarded call failed: count, maybe trip open."""
        with self._lock:
            state = self._state_locked()
            if state == "half-open":
                self._trip_locked()
            else:
                self._failures += 1
                if self._failures >= self.threshold:
                    self._trip_locked()
        self._notify()

    def _trip_locked(self) -> None:
        self._set_state_locked("open")
        self._opened_at = self._clock()
        self._failures = 0
        self._probing = False
        self._opened_total += 1

    def reset(self) -> None:
        """Force the breaker closed (operator override)."""
        self.record_success()

    def snapshot(self) -> dict:
        """State for health endpoints: no locks held by the caller."""
        with self._lock:
            snapshot = {
                "stage": self.stage,
                "state": self._state_locked(),
                "consecutive_failures": self._failures,
                "times_opened": self._opened_total,
            }
        self._notify()
        return snapshot


class BreakerBoard:
    """One :class:`CircuitBreaker` per guarded pipeline stage."""

    #: The inference stages a pipeline guards with breakers.
    STAGES: tuple[str, ...] = (
        "classify",
        "compose",
        "generate",
        "stage1",
        "stage2",
        "verify",
        "repair",
    )

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] | None = None,
        stages: tuple[str, ...] | None = None,
        on_transition: Callable[[str, str, str], None] | None = None,
    ) -> None:
        self._breakers = {
            stage: CircuitBreaker(
                stage,
                threshold=threshold,
                cooldown=cooldown,
                clock=clock,
                on_transition=on_transition,
            )
            for stage in (stages or self.STAGES)
        }

    def get(self, stage: str) -> CircuitBreaker | None:
        return self._breakers.get(stage)

    def __getitem__(self, stage: str) -> CircuitBreaker:
        return self._breakers[stage]

    def states(self) -> dict[str, str]:
        return {s: b.state for s, b in self._breakers.items()}

    def snapshot(self) -> dict[str, dict]:
        return {s: b.snapshot() for s, b in self._breakers.items()}


# ----------------------------------------------------------------------
# Observability.


@dataclass(frozen=True)
class FaultRecord:
    """One recorded fault: where it happened and how it was absorbed."""

    stage: str  # logical stage: classify/compose/generate/ground/...
    error_type: str  # exception class name
    error: str  # exception message
    site: str | None = None  # failpoint name when known
    candidate: int | None = None  # candidate index for isolated faults
    fallback: str | None = None  # degradation applied


@dataclass
class TranslationReport:
    """Structured account of one translation's faults and degradations."""

    question: str = ""
    faults: list[FaultRecord] = field(default_factory=list)
    #: Candidates pruned by the semantic-lint gate (statically invalid).
    lint_rejected: int = 0
    #: Lint-rejection counts by diagnostic code (``SQL002`` -> count).
    lint_codes: dict[str, int] = field(default_factory=dict)
    #: Candidates the execution-guided verify stage demoted (or pruned)
    #: because they errored, blew the budget, or returned empty results.
    verify_demoted: int = 0
    #: Per-outcome tally from the verify stage (``ok``/``empty``/``error``
    #: /``budget``/``skipped`` -> count of top-k candidates).
    verify_outcomes: dict[str, int] = field(default_factory=dict)
    #: Repair-loop attempts consumed for this translation.
    repair_attempts: int = 0
    #: Whether a repair attempt produced a verified-passing top-1.
    repair_succeeded: bool = False
    #: The request's time budget in seconds, when one was attached.
    deadline_budget: float | None = None
    #: The stage boundary at which expiry was observed, when it was.
    deadline_stage: str | None = None
    #: JSON span tree for the translation (set by the pipeline; the root
    #: is the ``translate`` span, its children the per-stage spans).
    trace: dict | None = None

    @property
    def deadline_expired(self) -> bool:
        """True when the translation was cut short by its deadline."""
        return self.deadline_stage is not None

    @property
    def degraded(self) -> bool:
        """True when any fault was recorded (every fault degrades)."""
        return bool(self.faults)

    def stage_faults(self, stage: str) -> list[FaultRecord]:
        """Fault records for one logical stage."""
        return [record for record in self.faults if record.stage == stage]

    def fallbacks(self) -> list[str]:
        """The fallback labels applied, in order."""
        return [r.fallback for r in self.faults if r.fallback is not None]

    def record(self, record: FaultRecord) -> None:
        self.faults.append(record)

    def record_exception(
        self,
        stage: str,
        exc: BaseException,
        site: str | None = None,
        candidate: int | None = None,
        fallback: str | None = None,
    ) -> FaultRecord:
        """Append a :class:`FaultRecord` built from a caught exception."""
        record = FaultRecord(
            stage=stage,
            error_type=type(exc).__name__,
            error=str(exc),
            site=getattr(exc, "site", site),
            candidate=candidate,
            fallback=fallback,
        )
        self.record(record)
        return record

    def record_lint_rejection(self, codes) -> None:
        """Count one candidate pruned by the semantic-analysis gate.

        *codes* are the error-severity diagnostic codes the candidate
        carried (distinct codes each count once).  Lint rejection is the
        gate doing its job, not a fault: it never marks the translation
        degraded and produces no :class:`FaultRecord`.
        """
        self.lint_rejected += 1
        for code in codes:
            self.lint_codes[code] = self.lint_codes.get(code, 0) + 1

    def record_verify(self, outcomes: dict[str, int], demoted: int) -> None:
        """Fold one verify pass into the report.

        Like lint rejection, demotion is the stage doing its job: it never
        marks the translation degraded and produces no
        :class:`FaultRecord` (a *crash* of the stage does, via
        :func:`guarded_call`).
        """
        self.verify_demoted += demoted
        for outcome, count in outcomes.items():
            self.verify_outcomes[outcome] = (
                self.verify_outcomes.get(outcome, 0) + count
            )

    def record_deadline(
        self, deadline: Deadline, stage: str, fallback: str
    ) -> FaultRecord:
        """Record a deadline expiry observed at *stage* (recorded once).

        The *fallback* label says what the pipeline degraded to: the
        best answer produced so far.
        """
        self.deadline_budget = deadline.budget
        self.deadline_stage = stage
        record = FaultRecord(
            stage=stage,
            error_type="DeadlineExceeded",
            error=(
                f"deadline of {deadline.budget:.3f}s exceeded "
                f"(elapsed {deadline.elapsed():.3f}s)"
            ),
            fallback=fallback,
        )
        self.record(record)
        return record

    def journal_fields(self) -> dict:
        """The request's fields of a journal line (DESIGN.md §10).

        The serving layer's ``translate`` lines and the evaluator's
        ``eval`` lines both carry these, next to their own keys.
        """
        return {
            "degraded": self.degraded,
            "deadline_expired": self.deadline_expired,
            "lint_rejected": self.lint_rejected,
            "lint_codes": dict(sorted(self.lint_codes.items())),
            "verify_demoted": self.verify_demoted,
            "verify_outcomes": dict(sorted(self.verify_outcomes.items())),
            "repair_attempts": self.repair_attempts,
            "repair_succeeded": self.repair_succeeded,
            "faults": [
                {"stage": f.stage, "fallback": f.fallback}
                for f in self.faults
            ],
            "stages": {
                stage: round(seconds, 6)
                for stage, seconds in self.stage_durations().items()
            },
        }

    def stage_durations(self) -> dict[str, float]:
        """Per-stage wall seconds from the attached trace (may be {})."""
        if not self.trace:
            return {}
        return {
            child["name"]: child.get("duration", 0.0)
            for child in self.trace.get("children", ())
        }


def guarded_call(
    stage: str,
    fn: Callable[[], object],
    report: TranslationReport,
    fallback: str | None = None,
    site: str | None = None,
    breaker: CircuitBreaker | None = None,
) -> tuple[bool, object]:
    """Run *fn* once, absorbing its fault into *report*.

    Returns ``(True, value)`` on success, or ``(False, None)`` after
    recording the fault with the *fallback* label the caller is about to
    apply.  Only :class:`Exception` is absorbed; interrupts and system
    exits propagate.

    When a *breaker* is supplied the call first asks it for admission: an
    open breaker short-circuits to ``(False, None)`` with a
    ``BreakerOpen`` fault record (the caller's fallback applies without
    paying for a doomed call), a fault feeds
    :meth:`CircuitBreaker.record_failure`, and a success feeds
    ``record_success``.
    """
    if breaker is not None and not breaker.allow():
        report.record(
            FaultRecord(
                stage=stage,
                error_type="BreakerOpen",
                error=f"circuit breaker open for stage {stage!r}",
                site=site,
                fallback=fallback,
            )
        )
        return False, None
    try:
        value = fn()
    except Exception as exc:  # repolint: allow[broad-except] — isolation boundary
        report.record_exception(stage, exc, site=site, fallback=fallback)
        if breaker is not None:
            breaker.record_failure()
        return False, None
    if breaker is not None:
        breaker.record_success()
    return True, value
