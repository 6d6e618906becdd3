"""Serving layer tests: deadlines, breakers, admission control and
run-once stage faults.

Everything is deterministic: clocks are injected, faults come from the
``FAULTS`` registry, and blocking jobs are gated on events rather than
sleeps.  The service-under-fire chaos test gates on futures.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.core.pipeline import MetaSQL, RankedResult, RankedTranslation
from repro.core.resilience import (
    FAULTS,
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    FaultRecord,
    InjectedFault,
    TranslationReport,
    guarded_call,
)
from repro.obs.journal import iter_journal
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServiceConfig, TranslationService
from repro.serve.service import HealthSnapshot
from repro.sqlkit.errors import (
    ConfigError,
    Overloaded,
    ServiceStopped,
    SqlError,
)
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.printer import to_sql

pytestmark = [pytest.mark.robustness, pytest.mark.serve]


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    FAULTS.disarm()


class FakeClock:
    """Manually advanced monotonic clock for breakers and deadlines."""

    def __init__(self, start: float = 100.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class SteppingClock:
    """A clock that advances a fixed step on every read.

    Lets a test place deadline expiry at an exact stage boundary: the
    pipeline reads the clock once at Deadline creation and once per
    cooperative checkpoint.
    """

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


@pytest.fixture()
def fake_board(trained_pipeline):
    """Swap a fresh, deterministic breaker board onto the shared pipeline."""
    clock = FakeClock()
    board = BreakerBoard(threshold=3, cooldown=30.0, clock=clock.now)
    previous = trained_pipeline.breakers
    trained_pipeline.breakers = board
    yield board, clock
    trained_pipeline.breakers = previous


def _ranked(sql: str = "SELECT name FROM country") -> RankedTranslation:
    return RankedTranslation(
        query=parse_sql(sql), stage1_score=1.0, stage2_score=1.0, metadata=None
    )


class StubPipeline:
    """Duck-typed pipeline for service unit tests.

    ``script`` is a list of behaviours consumed one per call:
    ``"ok"`` returns one translation, ``"fatal"`` returns an empty
    result with a terminal fault record, ``"block"`` waits on
    :attr:`gate` first, then returns ok.
    """

    breakers = None

    def __init__(self, script: list[str] | None = None) -> None:
        self.script = list(script or [])
        self.calls = 0
        self.gate = threading.Event()
        self.seen_deadlines: list[Deadline | None] = []

    def translate_ranked_report(
        self, question, db, compositions=None, deadline=None
    ):
        self.calls += 1
        self.seen_deadlines.append(deadline)
        action = self.script.pop(0) if self.script else "ok"
        report = TranslationReport(question=question)
        if action == "block":
            assert self.gate.wait(10), "test gate never opened"
            action = "ok"
        if action == "ok":
            return RankedResult([_ranked()], report)
        report.record(
            FaultRecord(
                stage="generate",
                error_type="StageError",
                error="injected by StubPipeline",
                fallback="empty",
            )
        )
        return RankedResult([], report)


# ----------------------------------------------------------------------
# Deadline primitive.


class TestDeadline:
    def test_expiry_math(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock.now)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(4.0)
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(-0.5)


# ----------------------------------------------------------------------
# Circuit-breaker state machine.


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("stage1", threshold=3, cooldown=30.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker("stage1", threshold=2, cooldown=30.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "stage1", threshold=1, cooldown=10.0, clock=clock.now
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent calls stay refused
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "stage1", threshold=1, cooldown=10.0, clock=clock.now
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_snapshot_counts_trips(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "stage2", threshold=1, cooldown=5.0, clock=clock.now
        )
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["stage"] == "stage2"
        assert snap["state"] == "open"
        assert snap["times_opened"] == 1

    def test_guarded_call_feeds_the_breaker(self):
        report = TranslationReport(question="q")
        breaker = CircuitBreaker("stage1", threshold=2, cooldown=30.0)

        def boom():
            raise ValueError("bad")

        for _ in range(2):
            ok, _ = guarded_call(
                "stage1", boom, report, fallback="skip", breaker=breaker
            )
            assert not ok
        assert breaker.state == "open"
        # Open breaker short-circuits: fn not called, BreakerOpen recorded.
        ok, _ = guarded_call(
            "stage1",
            lambda: pytest.fail("must not be called"),
            report,
            fallback="skip",
            breaker=breaker,
        )
        assert not ok
        assert report.faults[-1].error_type == "BreakerOpen"


# ----------------------------------------------------------------------
# Breakers wired through the pipeline (acceptance: open after N faults,
# recover through half-open).


class TestPipelineBreakers:
    @pytest.fixture()
    def example_db(self, tiny_benchmark):
        example = tiny_benchmark.dev.examples[0]
        return example, tiny_benchmark.dev.database(example.db_id)

    def test_breaker_opens_skips_and_recovers(
        self, trained_pipeline, example_db, fake_board
    ):
        example, db = example_db
        board, clock = fake_board
        FAULTS.arm("stage1.rank", times=None)
        for _ in range(3):
            result = trained_pipeline.translate_ranked_report(
                example.question, db
            )
            assert "generation-order" in result.report.fallbacks()
        assert board["stage1"].state == "open"
        assert FAULTS.fired("stage1.rank") == 3

        # Open: the stage is skipped outright (failpoint not even
        # reached) and its existing fallback still produces an answer.
        result = trained_pipeline.translate_ranked_report(example.question, db)
        assert FAULTS.fired("stage1.rank") == 3
        assert result.translations
        assert any(
            r.error_type == "BreakerOpen" and r.stage == "stage1"
            for r in result.report.faults
        )

        # Recovery: cooldown elapses, the half-open probe succeeds (the
        # fault is disarmed), the breaker closes again.
        FAULTS.disarm("stage1.rank")
        clock.advance(30.5)
        assert board["stage1"].state == "half-open"
        result = trained_pipeline.translate_ranked_report(example.question, db)
        assert board["stage1"].state == "closed"
        assert not result.report.stage_faults("stage1")

    def test_failed_probe_reopens(
        self, trained_pipeline, example_db, fake_board
    ):
        example, db = example_db
        board, clock = fake_board
        FAULTS.arm("stage1.rank", times=None)
        for _ in range(3):
            trained_pipeline.translate_ranked_report(example.question, db)
        clock.advance(30.5)
        # Probe runs against the still-armed fault and fails.
        trained_pipeline.translate_ranked_report(example.question, db)
        assert board["stage1"].state == "open"

    def test_constructor_builds_the_default_board(
        self, trained_pipeline, example_db
    ):
        """No fake board: a new pipeline's stage-1 breaker trips at 5."""
        example, db = example_db
        board = MetaSQL(
            trained_pipeline.model, trained_pipeline.config
        ).breakers
        assert set(board.states()) == set(BreakerBoard.STAGES)
        previous = trained_pipeline.breakers
        trained_pipeline.breakers = board
        try:
            FAULTS.arm("stage1.rank", times=None)
            for _ in range(4):
                trained_pipeline.translate_ranked_report(example.question, db)
            assert board["stage1"].state == "closed"
            trained_pipeline.translate_ranked_report(example.question, db)
        finally:
            trained_pipeline.breakers = previous
        assert FAULTS.fired("stage1.rank") == 5
        assert board["stage1"].state == "open"


# ----------------------------------------------------------------------
# Deadline checkpoints through the pipeline (acceptance: expired
# deadline -> degraded-but-valid RankedResult, deadline on the report).


class TestPipelineDeadlines:
    @pytest.fixture()
    def example_db(self, tiny_benchmark):
        example = tiny_benchmark.dev.examples[0]
        return example, tiny_benchmark.dev.database(example.db_id)

    def test_already_expired_returns_empty_with_record(
        self, trained_pipeline, example_db
    ):
        example, db = example_db
        result = trained_pipeline.translate_ranked_report(
            example.question, db, deadline=Deadline(0.0)
        )
        assert result.translations == []
        assert result.report.deadline_expired
        assert result.report.deadline_stage == "classify"
        assert result.report.deadline_budget == 0.0
        assert result.report.degraded

    def test_expiry_before_stage1_degrades_to_generation_order(
        self, trained_pipeline, example_db
    ):
        example, db = example_db
        # Clock reads: t=1 at Deadline creation, then one per boundary:
        # classify (elapsed 1), generate (2), stage1 (3) -> expired.
        deadline = Deadline(2.5, clock=SteppingClock(step=1.0))
        with FAULTS.inject("stage1.rank", exc=AssertionError, times=None):
            result = trained_pipeline.translate_ranked_report(
                example.question, db, deadline=deadline
            )
        # Stage 1 was never invoked (the armed failpoint never fired),
        # yet a ranked answer still came out of the generation order.
        assert FAULTS.fired("stage1.rank") == 0
        assert result.translations
        assert result.report.deadline_stage == "stage1"
        assert "generation-order" in result.report.fallbacks()
        scores = [r.stage1_score for r in result.translations]
        assert scores == sorted(scores, reverse=True)

    def test_expiry_before_stage2_keeps_stage1_order(
        self, trained_pipeline, example_db
    ):
        example, db = example_db
        deadline = Deadline(3.5, clock=SteppingClock(step=1.0))
        with FAULTS.inject("stage2.rank", exc=AssertionError, times=None):
            result = trained_pipeline.translate_ranked_report(
                example.question, db, deadline=deadline
            )
        assert FAULTS.fired("stage2.rank") == 0
        assert result.translations
        assert result.report.deadline_stage == "stage2"
        assert all(
            r.stage2_score == r.stage1_score for r in result.translations
        )

    def test_generous_deadline_changes_nothing(
        self, trained_pipeline, example_db
    ):
        example, db = example_db
        baseline = trained_pipeline.translate_ranked(example.question, db)
        result = trained_pipeline.translate_ranked_report(
            example.question, db, deadline=Deadline(3600.0)
        )
        assert not result.report.deadline_expired
        assert not result.report.degraded
        assert [to_sql(r.query) for r in result.translations] == [
            to_sql(r.query) for r in baseline
        ]


# ----------------------------------------------------------------------
# TranslationService: admission control, retries, health, lifecycle.


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -2},
            {"queue_limit": 0},
            {"default_deadline": 0.0},
            {"default_deadline": -1.0},
        ],
    )
    def test_bad_values_fail_at_construction(self, kwargs):
        with pytest.raises(ConfigError) as excinfo:
            ServiceConfig(**kwargs)
        # Typed: rooted at SqlError, still a ValueError for old nets.
        assert isinstance(excinfo.value, SqlError)
        assert isinstance(excinfo.value, ValueError)

    def test_mutated_config_is_revalidated_by_the_service(self):
        config = ServiceConfig(workers=1)
        config.workers = 0  # mutation after construction
        with pytest.raises(ConfigError):
            TranslationService(StubPipeline(), config)


class TestServiceAdmission:
    def test_sheds_load_at_capacity_while_inflight_completes(self):
        stub = StubPipeline(script=["block", "ok"])
        service = TranslationService(
            stub, ServiceConfig(workers=1, queue_limit=1)
        )
        try:
            first = service.submit("block", None)
            deadline = time.monotonic() + 5.0
            while stub.calls == 0 and time.monotonic() < deadline:
                time.sleep(0.005)  # wait for the worker to pick job 1 up
            assert stub.calls == 1
            second = service.submit("queued", None)
            with pytest.raises(Overloaded) as info:
                service.submit("rejected", None)
            assert info.value.capacity == 1
            assert service.health().rejected == 1
            # The shed request did not disturb admitted work.
            stub.gate.set()
            assert first.result(timeout=5).translations
            assert second.result(timeout=5).translations
        finally:
            stub.gate.set()
            service.shutdown()

    def test_rejects_after_shutdown(self):
        service = TranslationService(
            StubPipeline(), ServiceConfig(workers=1, queue_limit=2)
        )
        service.shutdown()
        with pytest.raises(ServiceStopped):
            service.submit("late", None)

    def test_submit_racing_shutdown_ends_with_service_stopped(
        self, monkeypatch
    ):
        service = TranslationService(
            StubPipeline(), ServiceConfig(workers=1, queue_limit=4)
        )
        admit = service._admit_job

        def admit_then_shut_down(*args):
            # Shutdown lands after submit's accepting check but before
            # the job is queued: the worker sentinels go in first.
            job = admit(*args)
            service.shutdown(wait=False)
            return job

        monkeypatch.setattr(service, "_admit_job", admit_then_shut_down)
        future = service.submit("raced", None)
        with pytest.raises(ServiceStopped):
            future.result(timeout=5)

    def test_shutdown_drains_admitted_requests(self):
        stub = StubPipeline()
        service = TranslationService(
            stub, ServiceConfig(workers=2, queue_limit=8)
        )
        futures = [service.submit(f"q{i}", None) for i in range(6)]
        service.shutdown(wait=True)
        assert all(f.result(timeout=1).translations for f in futures)
        assert service.health().completed == 6


class _CountingLock:
    """A ``threading.Lock`` stand-in that counts its acquisitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self) -> "_CountingLock":
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class TestServiceLock:
    def test_one_request_takes_the_service_lock_three_times(self):
        # Admission (accepting check + put), the in-flight increment,
        # and completion (counters + health window).
        service = TranslationService(
            StubPipeline(), ServiceConfig(workers=1, queue_limit=2)
        )
        counting = _CountingLock()
        service._lock = counting
        try:
            assert service.translate("q", None, timeout=5).translations
            assert counting.acquisitions == 3
        finally:
            service.shutdown()


class TestServiceFaults:
    def test_faulting_stage_runs_once(
        self, trained_pipeline, tiny_benchmark, fake_board
    ):
        """A faulting stage runs once per request: no retry anywhere."""
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        service = TranslationService(trained_pipeline, ServiceConfig(workers=1))
        try:
            with FAULTS.inject("generator.generate", times=None):
                for request in (1, 2):
                    result = service.translate(
                        example.question, db, timeout=30
                    )
                    assert FAULTS.fired("generator.generate") == request
                    assert result.translations == []
                    generate = result.report.stage_faults("generate")
                    assert [f.fallback for f in generate] == ["empty"]
        finally:
            service.shutdown()


class TestServiceHealth:
    def test_deadline_reaches_the_pipeline(self):
        stub = StubPipeline()
        service = TranslationService(
            stub, ServiceConfig(workers=1, queue_limit=2, default_deadline=30.0)
        )
        try:
            service.translate("q", None, timeout=5)
            assert len(stub.seen_deadlines) == 1
            assert stub.seen_deadlines[0] is not None
            assert stub.seen_deadlines[0].budget == pytest.approx(30.0)
        finally:
            service.shutdown()

    def test_snapshot_counters_and_degraded_rate(self):
        stub = StubPipeline(script=["ok", "fatal"])
        service = TranslationService(
            stub, ServiceConfig(workers=1, queue_limit=4)
        )
        try:
            service.translate("a", None, timeout=5)
            service.translate("b", None, timeout=5)
            health = service.health()
            assert health.completed == 2
            assert health.in_flight == 0
            assert health.queue_depth == 0
            assert health.degraded_rate == pytest.approx(0.5)
            assert health.ready
        finally:
            service.shutdown()
        assert not service.health().accepting

    def test_breaker_states_surface_in_health(self, trained_pipeline):
        service = TranslationService(
            trained_pipeline, ServiceConfig(workers=1, queue_limit=2)
        )
        try:
            breakers = service.health().breakers
            assert breakers.get("stage1") == "closed"
            assert set(breakers) == set(BreakerBoard.STAGES)
        finally:
            service.shutdown()

    def test_health_carries_breakers_and_roundtrips(
        self, trained_pipeline, world_db
    ):
        with TranslationService(
            trained_pipeline, ServiceConfig(workers=1)
        ) as service:
            service.translate("q", world_db, timeout=30)
            health = service.health()
        assert health.completed == 1
        assert set(health.breakers) == set(BreakerBoard.STAGES)
        assert health.ready
        # The breaker section decides readiness: one open stage is enough.
        tripped = replace(
            health, breakers={**health.breakers, "stage2": "open"}
        )
        assert not tripped.ready
        assert replace(tripped, breakers=health.breakers) == health

    def test_open_breaker_makes_service_not_ready(self):
        snapshot = HealthSnapshot(
            accepting=True,
            queue_depth=0,
            queue_capacity=4,
            workers=1,
            in_flight=0,
            completed=0,
            rejected=0,
            failed=0,
            degraded_rate=0.0,
            deadline_expired=0,
            breakers={"stage1": "closed", "stage2": "open"},
        )
        assert not snapshot.ready
        half_open = replace(snapshot, breakers={"stage2": "half-open"})
        assert half_open.ready

    def test_open_breaker_on_the_live_shard_makes_service_not_ready(
        self, trained_pipeline, fake_board
    ):
        board, _ = fake_board
        with TranslationService(
            trained_pipeline, ServiceConfig(workers=1)
        ) as service:
            assert service.health().ready
            for _ in range(3):
                board["stage2"].record_failure()
            health = service.health()
        assert health.breakers["stage2"] == "open"
        assert not health.ready


class TestServiceEndToEnd:
    def test_expired_deadline_returns_valid_degraded_result(
        self, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        service = TranslationService(
            trained_pipeline, ServiceConfig(workers=1, queue_limit=2)
        )
        try:
            result = service.translate(
                example.question, db, deadline=Deadline(0.0), timeout=30
            )
            assert isinstance(result, RankedResult)
            assert result.report.deadline_expired
            assert result.report.deadline_budget == 0.0
            assert service.health().deadline_expired == 1
        finally:
            service.shutdown()

    def test_served_ranked_list_is_bit_identical_to_direct_pipeline(
        self, trained_pipeline, tiny_benchmark
    ):
        """The service adds no translation behaviour: every served
        ranked list equals the direct pipeline's, SQL and scores."""
        examples = tiny_benchmark.dev.examples[:4]

        def ranked(result):
            return [
                (t.sql, t.stage1_score, t.stage2_score)
                for t in result.translations
            ]

        direct = []
        for example in examples:
            db = tiny_benchmark.dev.database(example.db_id)
            direct.append(
                ranked(
                    trained_pipeline.translate_ranked_report(
                        example.question, db
                    )
                )
            )
        with TranslationService(
            trained_pipeline, ServiceConfig(workers=1)
        ) as service:
            served = []
            for example in examples:
                db = tiny_benchmark.dev.database(example.db_id)
                served.append(
                    ranked(
                        service.translate(example.question, db, timeout=60)
                    )
                )
        assert served == direct


# ----------------------------------------------------------------------
# Chaos: concurrent traffic through failpoint storms.


class TestServiceUnderFire:
    def test_concurrent_hammer_and_failpoints(self, world_db, tmp_path):
        """Hammer the service from four threads and arm the
        ``serve.handle`` failpoint mid-traffic.  Asserts: zero dropped requests (every admitted future
        resolves), no fault records, and one journal record per
        completed request.
        """
        journal_path = tmp_path / "fire.jsonl"
        config = ServiceConfig(
            workers=4, queue_limit=256, journal_path=journal_path
        )
        submitted: list = []
        submitted_lock = threading.Lock()
        stop = threading.Event()

        with TranslationService(
            StubPipeline(), config, registry=MetricsRegistry()
        ) as service:

            def hammer(worker: int) -> None:
                sent = 0
                while not stop.is_set() and sent < 500:
                    question = f"q{worker}-{sent}"
                    sent += 1
                    try:
                        future = service.submit(question, world_db)
                    except Overloaded:
                        continue
                    with submitted_lock:
                        submitted.append((question, future))

            threads = [
                threading.Thread(target=hammer, args=(n,), daemon=True)
                for n in range(4)
            ]
            for thread in threads:
                thread.start()

            # Mid-traffic: a failpoint storm on the serve path.
            FAULTS.arm("serve.handle", times=5)

            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()

            results = {}
            dropped = injected = 0
            for question, future in submitted:
                try:
                    results[question] = future.result(timeout=60)
                except InjectedFault:
                    injected += 1  # accounted: the armed serve.handle storm
                except Exception:  # repolint: allow[broad-except] — counted as the metric under test
                    dropped += 1

        # Zero dropped requests: every admitted future resolved to a
        # result or to the (typed, armed) injected fault.
        assert dropped == 0
        assert injected <= 5
        assert results
        assert not any(r.report.faults for r in results.values())
        # Every completed request, and only those, left a journal line.
        journaled = {
            r["question"]
            for r in iter_journal(journal_path)
            if r["event"] == "translate"
        }
        assert journaled == set(results)


    def test_observers_read_health_and_metrics_under_traffic(
        self, world_db
    ):
        """Two client threads submit while three observers read
        ``health()``, ``metrics()`` and the registry's Prometheus text.
        No thread raises, and every resolved request is counted.
        """
        registry = MetricsRegistry()
        config = ServiceConfig(workers=2, queue_limit=128)
        errors: list[BaseException] = []
        resolved: list[int] = []

        with TranslationService(
            StubPipeline(), config, registry=registry
        ) as service:

            def traffic() -> None:
                try:
                    futures = []
                    for _ in range(40):
                        try:
                            futures.append(service.submit("q", world_db))
                        except Overloaded:
                            continue
                    for future in futures:
                        future.result(timeout=60)
                    resolved.append(len(futures))
                except BaseException as exc:  # repolint: allow[broad-except] — surfacing hammer failures
                    errors.append(exc)

            def observe() -> None:
                try:
                    for _ in range(100):
                        registry.render_prometheus()
                        service.health()
                        service.metrics()
                except BaseException as exc:  # repolint: allow[broad-except] — surfacing hammer failures
                    errors.append(exc)

            pool = [threading.Thread(target=traffic) for _ in range(2)] + [
                threading.Thread(target=observe) for _ in range(3)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()

        assert not errors
        assert len(resolved) == 2
        assert service.health().completed == sum(resolved)
