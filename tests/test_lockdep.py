"""Runtime lockdep witness: unit tests + instrumented chaos regressions.

Three layers:

1. Unit tests for the witness mechanics — inversion detection is
   schedule-independent (a sequential ``A→B`` then ``B→A`` in one
   thread is enough), RLock reentrancy is tolerated, double-acquiring a
   non-reentrant ``Lock`` raises instead of hanging the run, witness
   dumps carry both acquisition stacks, and hold-time outliers are
   measured on an injected clock.
2. A seeded deterministic multi-thread hammer: every thread takes lock
   pairs in the globally sorted order, so the run must stay clean.
3. The repo's own serving stack: the service-under-fire scenario and a
   serving hammer rebuilt *inside* ``lockdep_scope()`` (the factory seam
   only instruments locks constructed under an active scope) must finish
   with **zero** order inversions.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.core.resilience import FAULTS, InjectedFault
from repro.devtools.lockdep import (
    LockdepViolation,
    lockdep_scope,
    new_condition,
    new_lock,
    new_rlock,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServiceConfig, TranslationService
from repro.sqlkit.errors import Overloaded
from tests.test_serve import StubPipeline

pytestmark = pytest.mark.concurrency


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    FAULTS.disarm()


# ----------------------------------------------------------------------
# Factory seam: the disabled path hands out plain primitives.


def test_disabled_path_returns_plain_threading_primitives():
    assert type(new_lock("X._lock")) is type(threading.Lock())
    assert type(new_rlock("X._rlock")) is type(threading.RLock())
    assert isinstance(new_condition("X._cond"), threading.Condition)


def test_scope_restores_previous_state():
    with lockdep_scope() as outer:
        with lockdep_scope() as inner:
            assert inner is not outer
            lock = new_lock("A._lock")
            with lock:
                pass
            assert inner.report()["edges"] == []
        # Outer scope is restored: new locks report to it again.
        lock = new_lock("B._lock")
        with lock:
            pass
    assert type(new_lock("C._lock")) is type(threading.Lock())


# ----------------------------------------------------------------------
# Inversion detection (schedule-independent).


def test_sequential_inversion_detected_in_one_thread():
    with lockdep_scope() as dep:
        a = new_lock("A._lock")
        b = new_lock("B._lock")
        with a:
            with b:
                pass
        with b:
            with a:  # reverse order: never deadlocks here, still wrong
                pass
        assert len(dep.inversions) == 1
        record = dep.inversions[0]
        assert record["edge"] == ["B._lock", "A._lock"]
        assert record["prior_edge"] == ["A._lock", "B._lock"]
        with pytest.raises(LockdepViolation, match="inversion"):
            dep.assert_clean()


def test_cross_thread_inversion_detected_without_deadlock():
    # The two threads run to completion sequentially — detection works
    # on the edge graph, not on an actual lock-up.
    with lockdep_scope() as dep:
        a = new_lock("A._lock")
        b = new_lock("B._lock")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        for target in (forward, backward):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join()
        assert len(dep.inversions) == 1
        assert dep.inversions[0]["thread"] != "MainThread"


def test_consistent_order_is_clean():
    with lockdep_scope() as dep:
        a = new_lock("A._lock")
        b = new_lock("B._lock")
        for _ in range(3):
            with a:
                with b:
                    pass
        dep.assert_clean()
        assert dep.edges() == {("A._lock", "B._lock")}


def test_witness_dump_carries_both_stacks(tmp_path):
    witness = tmp_path / "lockdep-witness.json"
    with lockdep_scope() as dep:
        a = new_lock("A._lock")
        b = new_lock("B._lock")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        with pytest.raises(LockdepViolation):
            dep.assert_clean(witness_path=witness)
    payload = json.loads(witness.read_text())
    (inversion,) = payload["inversions"]
    # Both edges carry real acquisition stacks anchored in this test.
    for key in ("stack", "prior_stack"):
        assert inversion[key], key
        assert any("test_lockdep.py" in frame for frame in inversion[key])
    assert payload["edges"]  # the full observed graph rides along


# ----------------------------------------------------------------------
# Reentrancy and self-deadlock.


def test_rlock_reentry_tolerated():
    with lockdep_scope() as dep:
        r = new_rlock("R._rlock")
        with r:
            with r:
                pass
        dep.assert_clean()
        assert dep.edges() == set()  # re-entry records no self edge


def test_double_acquire_raises_instead_of_hanging():
    with lockdep_scope() as dep:
        lock = new_lock("L._lock")
        lock.acquire()
        try:
            with pytest.raises(LockdepViolation, match="re-acquired"):
                lock.acquire()
        finally:
            lock.release()
        assert dep.violations[0]["kind"] == "self-deadlock"
        with pytest.raises(LockdepViolation):
            dep.assert_clean()


def test_same_name_different_instances_tolerated():
    # Two CircuitBreaker._lock instances nested is peer-order policy,
    # not an automatic deadlock; counted but not an inversion.
    with lockdep_scope() as dep:
        first = new_lock("CircuitBreaker._lock")
        second = new_lock("CircuitBreaker._lock")
        with first:
            with second:
                pass
        dep.assert_clean()
        assert dep.same_key_nesting == 1
        assert dep.edges() == set()


def test_condition_wait_releases_held_bookkeeping():
    with lockdep_scope() as dep:
        cond = new_condition("G._cond")
        flag: list[int] = []

        def producer():
            with cond:
                flag.append(1)
                cond.notify_all()

        with cond:
            threading.Thread(target=producer).start()
            assert cond.wait_for(lambda: flag, timeout=5)
        dep.assert_clean()


def test_hold_time_outlier_on_injected_clock():
    ticks = iter([0.0, 10.0])  # acquire at t=0, release at t=10
    with lockdep_scope(
        clock=lambda: next(ticks), hold_threshold=0.5
    ) as dep:
        lock = new_lock("Slow._lock")
        with lock:
            pass
        (outlier,) = dep.hold_outliers
        assert outlier["lock"] == "Slow._lock"
        assert outlier["held_seconds"] == 10.0
        dep.assert_clean()  # outliers inform; they do not fail


# ----------------------------------------------------------------------
# Seeded deterministic multi-thread hammer.


def test_seeded_hammer_with_global_order_stays_clean():
    names = [f"Lock{i}._lock" for i in range(4)]
    with lockdep_scope() as dep:
        locks = {name: new_lock(name) for name in names}
        errors: list[BaseException] = []

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    pair = sorted(rng.sample(names, 2))
                    with locks[pair[0]]:
                        with locks[pair[1]]:
                            pass
            except BaseException as exc:  # repolint: allow[broad-except] — surfacing hammer failures
                errors.append(exc)

        pool = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(6)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        dep.assert_clean()
        # Every observed edge respects the global sort order.
        assert dep.edges()
        for held, then in dep.edges():
            assert held < then


# ----------------------------------------------------------------------
# Instrumented chaos regressions: the repo's own stack, zero inversions.


def _drain(futures) -> int:
    resolved = 0
    for future in futures:
        try:
            future.result(timeout=60)
            resolved += 1
        except InjectedFault:
            resolved += 1  # armed serve.handle storm: accounted
    return resolved


def test_service_under_fire_reports_zero_inversions(world_db, tmp_path):
    """The service-under-fire scenario under full instrumentation.

    The service, its metrics registry and its journal are constructed
    inside the scope, so their locks (TranslationService._lock,
    MetricsRegistry._lock, _Family._lock, Journal._lock) are witnessed
    while four threads submit through a ``serve.handle`` failpoint
    storm.
    """
    with lockdep_scope() as dep:
        registry = MetricsRegistry()
        config = ServiceConfig(
            workers=4,
            queue_limit=256,
            journal_path=tmp_path / "fire.jsonl",
        )
        futures = []
        submitted_lock = threading.Lock()

        with TranslationService(
            StubPipeline(), config, registry=registry
        ) as service:

            def hammer() -> None:
                for _ in range(60):
                    try:
                        future = service.submit("q", world_db)
                    except Overloaded:
                        continue
                    with submitted_lock:
                        futures.append(future)

            pool = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in pool:
                thread.start()

            # Mid-traffic: a failpoint storm on the serve path.
            FAULTS.arm("serve.handle", times=3)

            for thread in pool:
                thread.join(timeout=30)
            assert _drain(futures) == len(futures)

        witness = tmp_path / "under-fire-witness.json"
        dep.assert_clean(witness_path=witness)
        assert not witness.exists()  # clean runs dump nothing
        # The run was genuinely instrumented, not a vacuous pass: the
        # serving stack's seam locks were all witnessed at runtime.
        assert dep.acquisitions > 0
        assert {
            "TranslationService._lock",
            "MetricsRegistry._lock",
            "_Family._lock",
            "Journal._lock",
        } <= dep.seen


def test_serve_hammer_reports_zero_inversions(world_db):
    """Service traffic while observers read metrics and health."""
    with lockdep_scope() as dep:
        registry = MetricsRegistry()
        config = ServiceConfig(workers=2, queue_limit=128)
        errors: list[BaseException] = []

        with TranslationService(
            StubPipeline(), config, registry=registry
        ) as service:

            def traffic() -> None:
                futures = []
                try:
                    for _ in range(40):
                        try:
                            futures.append(service.submit("q", world_db))
                        except Overloaded:
                            continue
                    _drain(futures)
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

        assert not errors
        dep.assert_clean()
        # Cross-component edges were really exercised: metrics() sets
        # the in-flight gauge under the service lock.
        assert ("TranslationService._lock", "_Family._lock") in dep.edges()
