"""A hardened serving front-end for trained MetaSQL pipelines.

:class:`TranslationService` puts production controls *around* the
pipeline's per-translation fault isolation:

- **Admission control** — a bounded work queue; when it is full the
  submit path sheds load immediately with a typed
  :class:`~repro.sqlkit.errors.Overloaded` instead of queueing
  unboundedly, while already-admitted requests keep draining.
- **Deadline budgets** — every request carries a
  :class:`~repro.core.resilience.Deadline` (explicit or the configured
  default), passed to the pipeline so its cooperative stage-boundary
  checkpoints observe it and degrade an expired request to the best
  answer produced so far.  Nothing is retried: a faulting stage
  degrades on its first fault inside the pipeline, and the service adds
  no retry layer of its own.
- **Health/readiness** — :meth:`TranslationService.health` snapshots
  queue depth, per-stage circuit-breaker states, counters, uptime, and
  the rolling degraded-rate (same notion as ``EvalResult.degraded_rate``).
- **Observability** — every request feeds the service's
  :class:`~repro.obs.metrics.MetricsRegistry` (queue depth/wait,
  in-flight, rejections, end-to-end latency; the pipeline adds its
  per-stage metrics under the same registry via an ambient scope),
  :meth:`TranslationService.metrics` renders it in the Prometheus text
  format, and an optional :class:`~repro.obs.journal.Journal` records a
  per-request JSONL summary for offline analysis
  (:mod:`repro.eval.journal_analysis`).  Those views — plus the span
  tree on every report and the :class:`HealthSnapshot` that
  :meth:`TranslationService.health` returns — are the service's only
  outputs besides the answers themselves; none has a second JSON form.

A service holds the pipeline it was built with for its whole life; to
serve another model, start a new service on a newly trained pipeline.

The service is deliberately synchronous-thread-pool shaped: the pipeline
is pure CPU-bound Python/numpy, so a small worker pool bounded by a
queue is the honest concurrency model.
"""

from __future__ import annotations

import pathlib
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core.pipeline import MetaSQL, RankedResult
from repro.core.resilience import Deadline, fire
from repro.obs.journal import Journal
from repro.obs.metrics import MetricsRegistry, get_registry, registry_scope
from repro.schema.database import Database
from repro.sqlkit.errors import ConfigError, Overloaded, ServiceStopped


@dataclass
class ServiceConfig:
    """Serving knobs (all deterministic-testable via injectable hooks).

    Validated eagerly at construction: a nonsensical value raises a
    typed :class:`~repro.sqlkit.errors.ConfigError` (a ``ValueError``
    rooted at ``SqlError``) at the call site instead of failing deep in
    the worker loop.
    """

    workers: int = 2
    queue_limit: int = 16
    #: Per-request time budget in seconds applied when the caller does
    #: not pass an explicit Deadline; None disables default deadlines.
    default_deadline: float | None = None
    #: When set, a per-request JSONL event journal is appended here
    #: (crash-safe; see :mod:`repro.obs.journal`).
    journal_path: str | pathlib.Path | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` for any out-of-range knob."""
        if self.workers <= 0:
            raise ConfigError(
                f"service needs at least one worker, got {self.workers!r}"
            )
        if self.queue_limit <= 0:
            raise ConfigError(
                f"service needs a positive queue limit, "
                f"got {self.queue_limit!r}"
            )
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigError(
                f"default deadline must be positive seconds, "
                f"got {self.default_deadline!r}"
            )


@dataclass(frozen=True)
class HealthSnapshot:
    """Point-in-time service health for readiness/liveness checks."""

    accepting: bool
    queue_depth: int
    queue_capacity: int
    workers: int
    in_flight: int
    completed: int
    rejected: int
    failed: int
    degraded_rate: float
    deadline_expired: int
    #: Seconds since the service started, on its injectable clock.
    uptime_seconds: float = 0.0
    #: The pipeline's breaker states, stage -> ``closed``/``open``/``half-open``.
    breakers: dict[str, str] = field(default_factory=dict)

    @property
    def ready(self) -> bool:
        """Whether a new request would currently be admitted *and* no
        stage breaker is open: a pipeline stuck with an open breaker
        makes the service not-ready so orchestrators stop routing to it.
        """
        if not (self.accepting and self.queue_depth < self.queue_capacity):
            return False
        return "open" not in self.breakers.values()


@dataclass
class _Job:
    question: str
    db: Database
    deadline: Deadline | None
    future: Future
    submitted_at: float = 0.0  # service clock, for queue-wait metrics


#: How many recent reports the rolling degraded-rate covers.
HEALTH_WINDOW = 256

#: Queue sentinel that tells a worker to exit its loop.
_SHUTDOWN = object()


class TranslationService:
    """Bounded-queue, deadline-aware front-end around one pipeline.

    >>> service = TranslationService(pipeline, ServiceConfig(workers=4))
    >>> result = service.translate("How many heads are older than 56?", db)
    >>> service.health().ready
    True

    The pipeline object is shared across workers; its stages are
    stateless at inference time and its breaker board is thread-safe.
    """

    def __init__(
        self,
        pipeline: MetaSQL,
        config: ServiceConfig | None = None,
        clock=time.monotonic,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        self._clock = clock
        self._started = clock()
        # The registry is captured at construction (worker threads do not
        # inherit the constructor's context) and re-installed ambiently
        # around each pipeline call so per-stage metrics land here too.
        self.registry = registry if registry is not None else get_registry()
        self._journal = (
            Journal(self.config.journal_path)
            if self.config.journal_path is not None
            else None
        )
        self._pipeline = pipeline
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_limit)
        self._lock = threading.Lock()
        self._accepting = True
        self._in_flight = 0
        self._completed = 0
        self._rejected = 0
        self._failed = 0
        self._deadline_expired = 0
        #: ``report.degraded`` of the most recent requests.
        self._recent_degraded: deque[bool] = deque(maxlen=HEALTH_WINDOW)
        self._init_metrics()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"metasql-serve-{index}",
                daemon=True,
            )
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    def _init_metrics(self) -> None:
        """Create (or re-bind) the service's instrument handles."""
        registry = self.registry
        self._m_queue_depth = registry.gauge(
            "serve_queue_depth", "Requests waiting in the admission queue."
        )
        self._m_in_flight = registry.gauge(
            "serve_in_flight", "Requests currently being translated."
        )
        self._m_queue_wait = registry.histogram(
            "serve_queue_wait_seconds",
            "Seconds a request waited in the queue before a worker took it.",
        )
        self._m_latency = registry.histogram(
            "serve_e2e_latency_seconds",
            "End-to-end seconds from admission to completion.",
        )
        self._m_requests = registry.counter(
            "serve_requests_total",
            "Finished requests by outcome.",
            labelnames=("outcome",),
        )
        self._m_rejected = registry.counter(
            "serve_rejected_total",
            "Requests shed because the admission queue was full.",
        )

    # ------------------------------------------------------------------
    # Submission (admission control).

    def submit(
        self,
        question: str,
        db: Database,
        deadline: Deadline | float | None = None,
    ) -> "Future[RankedResult]":
        """Admit a translation request; returns a Future of RankedResult.

        Raises :class:`Overloaded` when the work queue is full (shed
        load; the caller may retry after backoff) and
        :class:`ServiceStopped` after :meth:`shutdown`.
        """
        if not self._accepting:  # fast path; re-checked under the lock
            raise ServiceStopped("translation service is shut down")
        job = self._admit_job(question, db, deadline)
        # The accepting check and the put share the service lock, and
        # shutdown() flips ``_accepting`` under it before queueing the
        # worker sentinels, so a queued job always sits ahead of them.
        with self._lock:
            accepting = self._accepting
            if accepting:
                try:
                    self._queue.put_nowait(job)
                except queue.Full:
                    self._rejected += 1
                    job = None
        if job is None:
            self._m_rejected.inc()
            raise Overloaded(self._queue.qsize(), self.config.queue_limit)
        if not accepting:
            # Shutdown began after the fast-path check: the job was
            # never queued.
            job.future.set_exception(
                ServiceStopped("translation service is shut down")
            )
        self._m_queue_depth.set(self._queue.qsize())
        return job.future

    def _admit_job(
        self,
        question: str,
        db: Database,
        deadline: Deadline | float | None,
    ) -> _Job:
        """Resolve the request's deadline and build the queued job."""
        if deadline is None:
            if self.config.default_deadline is not None:
                deadline = Deadline(self.config.default_deadline)
        elif not isinstance(deadline, Deadline):
            deadline = Deadline(float(deadline))
        return _Job(
            question=question,
            db=db,
            deadline=deadline,
            future=Future(),
            submitted_at=self._clock(),
        )

    def translate(
        self,
        question: str,
        db: Database,
        deadline: Deadline | float | None = None,
        timeout: float | None = None,
    ) -> RankedResult:
        """Synchronous submit + wait (the simple-client entry point)."""
        return self.submit(question, db, deadline).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Workers.

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is _SHUTDOWN:
                    return
                self._execute_single(job)
            finally:
                self._queue.task_done()

    def _execute_single(self, job: _Job) -> None:
        """Run one admitted job and settle its Future."""
        self._m_queue_depth.set(self._queue.qsize())
        if not job.future.set_running_or_notify_cancel():
            return
        self._m_queue_wait.observe(max(0.0, self._clock() - job.submitted_at))
        with self._lock:
            self._in_flight += 1
        self._m_in_flight.inc()
        try:
            result = self._handle(job)
        except BaseException as exc:  # repolint: allow[broad-except] — to the future
            with self._lock:
                self._failed += 1
                self._in_flight -= 1
            self._finish_job(job, "failed")
            job.future.set_exception(exc)
        else:
            report = result.report
            with self._lock:
                self._completed += 1
                self._in_flight -= 1
                self._recent_degraded.append(report.degraded)
                self._deadline_expired += report.deadline_expired
            self._finish_job(job, "completed")
            job.future.set_result(result)

    def _finish_job(self, job: _Job, outcome: str) -> None:
        self._m_in_flight.dec()
        self._m_requests.labels(outcome=outcome).inc()
        self._m_latency.observe(max(0.0, self._clock() - job.submitted_at))

    def _handle(self, job: _Job) -> RankedResult:
        """One translation, then the journal write."""
        fire("serve.handle")
        # The registry scope routes the pipeline's per-stage metrics
        # (and breaker-transition callbacks) into this service's
        # registry even though workers run outside the constructor's
        # context.
        with registry_scope(self.registry):
            result = self._pipeline.translate_ranked_report(
                job.question, job.db, deadline=job.deadline
            )
        if self._journal is not None:
            record = self._request_record(job, result)
            try:
                self._journal.append(record)
            except Exception:  # repolint: allow[broad-except] — journalling never fails a request
                pass
        return result

    def _request_record(self, job: _Job, result: RankedResult) -> dict:
        """The request's journal-style summary record."""
        return {
            "event": "translate",
            "question": job.question,
            "ok": bool(result.translations),
            "translations": len(result.translations),
            "latency_s": round(
                max(0.0, self._clock() - job.submitted_at), 6
            ),
            **result.report.journal_fields(),
        }

    # ------------------------------------------------------------------
    # Health and lifecycle.

    def health(self) -> HealthSnapshot:
        """Snapshot queue, counters, breakers, rolling degraded-rate.

        Every counter — including ``accepting`` and the uptime read —
        is taken under the one service lock, so the snapshot is a
        consistent point-in-time view, not a mix of racing reads.  The
        breaker states are read outside it: each breaker has its own
        lock.
        """
        board = getattr(self._pipeline, "breakers", None)
        breakers = board.states() if board is not None else {}
        with self._lock:
            degraded = self._recent_degraded
            return HealthSnapshot(
                accepting=self._accepting,
                queue_depth=self._queue.qsize(),
                queue_capacity=self.config.queue_limit,
                workers=len(self._workers),
                in_flight=self._in_flight,
                completed=self._completed,
                rejected=self._rejected,
                failed=self._failed,
                degraded_rate=(
                    sum(degraded) / len(degraded) if degraded else 0.0
                ),
                deadline_expired=self._deadline_expired,
                uptime_seconds=max(0.0, self._clock() - self._started),
                breakers=breakers,
            )

    def metrics(self) -> str:
        """The service's registry in the Prometheus text format.

        The text companion to :meth:`health`: scrape-ready text
        covering the queue/latency/outcome metrics recorded here
        plus the per-stage pipeline metrics recorded under this
        service's ambient registry scope.
        """
        self._m_queue_depth.set(self._queue.qsize())
        with self._lock:
            in_flight = self._in_flight
        self._m_in_flight.set(in_flight)
        return self.registry.render_prometheus()

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting; drain admitted requests; stop the workers."""
        with self._lock:
            if not self._accepting:
                return
            self._accepting = False
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for worker in self._workers:
                worker.join()
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "TranslationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)
