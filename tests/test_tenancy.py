"""Multi-tenant registry, router seam, quotas, and hot-swap tests.

Covers the tenancy layer's contracts:

- registry/quota plumbing (typed ``UnknownTenant``/``TenantOverloaded``/
  ``ConfigError``, token-bucket math on an injected clock);
- the epoch/refcount :class:`ShardGuard` (leases are atomic
  ``(pipeline, epoch)`` pairs; installs never tear them);
- zero-downtime hot swap with automatic rollback on a corrupt snapshot;
- per-tenant fault isolation through the service (one tenant's faults
  never leak into another's reports or breaker board);
- the single-tenant regression: routing through the Router is
  bit-identical to the pre-tenancy service;
- the swap-under-fire chaos test: two tenants hammered concurrently
  while one is hot-swapped mid-traffic with ``persist.save`` /
  ``serve.handle`` failpoints armed — zero dropped requests, no
  cross-tenant fault records, rollback on the corrupt snapshot;
- a hypothesis property: any interleaving of swap/lease operations
  preserves per-request shard-epoch consistency.

Everything is deterministic: clocks are injected, stub pipelines are
scripted, and the chaos test gates on futures rather than sleeps.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import RankedResult
from repro.core.resilience import (
    FAULTS,
    FaultRecord,
    InjectedFault,
    TranslationReport,
)
from repro.serve import CheckpointStore, ServiceConfig, TranslationService
from repro.serve.service import HealthSnapshot
from repro.sqlkit.errors import (
    CheckpointCorrupt,
    ConfigError,
    Overloaded,
    SqlError,
    TenantOverloaded,
    TenantSwapError,
    UnknownTenant,
)
from repro.tenancy import (
    Router,
    ShardGuard,
    TenantQuota,
    TenantRegistry,
    TokenBucket,
)
from tests.test_serve import FakeClock, StubPipeline, _ranked

pytestmark = [pytest.mark.robustness, pytest.mark.tenancy]


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def example_db(tiny_benchmark):
    example = tiny_benchmark.dev.examples[0]
    return tiny_benchmark.dev.database(example.db_id)


class EpochPipeline:
    """A stub shard that stamps its identity into every translation.

    ``tag`` identifies which shard generation served a request — the
    chaos test uses it to prove epoch consistency end to end.
    """

    breakers = None
    _trained = True

    def __init__(self, tag: str, fail_sites: tuple[str, ...] = ()) -> None:
        self.tag = tag
        self.fail_sites = fail_sites
        self.calls = 0
        self._lock = threading.Lock()

    def translate_ranked_report(
        self, question, db, compositions=None, deadline=None
    ):
        with self._lock:
            self.calls += 1
        report = TranslationReport(question=question)
        if "translate" in self.fail_sites:
            report.record(
                FaultRecord(
                    stage="generate",
                    error_type="StageError",
                    error=f"scripted fault in shard {self.tag}",
                    fallback="empty",
                )
            )
            return RankedResult([], report)
        result = RankedResult([_ranked()], report)
        result.shard_tag = self.tag
        return result


# ----------------------------------------------------------------------
# Quotas.


class TestTokenBucket:
    def test_burst_then_refill_on_injected_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock.now)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]
        clock.advance(1.0)  # 2 tokens back
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock.now)
        clock.advance(3600.0)
        assert bucket.available() == pytest.approx(2.0)

    def test_invalid_parameters_are_typed(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, burst=0)


class TestTenantQuota:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0},
            {"rate": -1.0},
            {"burst": 0},
            {"max_share": 0},
        ],
    )
    def test_invalid_quota_raises_config_error(self, kwargs):
        with pytest.raises(ConfigError) as excinfo:
            TenantQuota(**kwargs)
        assert isinstance(excinfo.value, (SqlError, ValueError))

    def test_default_quota_is_unmetered(self):
        assert TenantQuota().unmetered


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


# ----------------------------------------------------------------------
# Registry and router.


class TestRegistry:
    def test_register_resolve_and_unknown(self):
        registry = TenantRegistry()
        registry.register("acme", StubPipeline())
        router = Router(registry)
        assert router.resolve("acme").tenant_id == "acme"
        with pytest.raises(UnknownTenant):
            router.resolve("nobody")

    def test_duplicate_registration_is_a_config_error(self):
        registry = TenantRegistry()
        registry.register("acme", StubPipeline())
        with pytest.raises(ConfigError):
            registry.register("acme", StubPipeline())

    def test_unaddressed_resolution_prefers_default_then_singleton(self):
        router = Router.single(StubPipeline())
        assert router.resolve(None).tenant_id == "default"
        lone = Router()
        lone.register("only", StubPipeline())
        assert lone.resolve(None).tenant_id == "only"
        multi = Router()
        multi.register("a", StubPipeline())
        multi.register("b", StubPipeline())
        with pytest.raises(UnknownTenant):
            multi.resolve(None)

    def test_quota_admission_and_release(self):
        router = Router()
        router.register(
            "metered", StubPipeline(), quota=TenantQuota(max_share=2)
        )
        tenant = router.admit("metered")
        router.admit("metered")
        with pytest.raises(TenantOverloaded) as excinfo:
            router.admit("metered")
        assert excinfo.value.reason == "queue-share"
        assert isinstance(excinfo.value, Overloaded)  # transient for clients
        tenant.release()
        router.admit("metered")  # slot freed


# ----------------------------------------------------------------------
# Shard guard: epoch/refcount swap protocol.


class TestShardGuard:
    def test_lease_is_an_atomic_pipeline_epoch_pair(self):
        old, new = StubPipeline(), StubPipeline()
        guard = ShardGuard(old)
        with guard.acquire() as lease:
            assert (lease.pipeline, lease.epoch) == (old, 1)
            epoch = guard.install(new)
            assert epoch == 2
            # The in-flight lease still points at the old shard.
            assert lease.pipeline is old
            assert guard.inflight(1) == 1
        assert guard.inflight(1) == 0
        with guard.acquire() as lease:
            assert (lease.pipeline, lease.epoch) == (new, 2)

    def test_drain_waits_for_old_epoch(self):
        guard = ShardGuard(StubPipeline())
        release = threading.Event()
        leased = threading.Event()

        def hold():
            with guard.acquire():
                leased.set()
                assert release.wait(10)

        worker = threading.Thread(target=hold, daemon=True)
        worker.start()
        assert leased.wait(10)
        guard.install(StubPipeline())
        assert not guard.drain(1, timeout=0.05)  # still held
        release.set()
        assert guard.drain(1, timeout=10)
        worker.join(timeout=10)

    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(
            st.sampled_from(["lease", "swap"]), min_size=1, max_size=24
        )
    )
    def test_any_interleaving_preserves_epoch_consistency(self, operations):
        """Hypothesis property: a lease's pipeline always matches its
        epoch — under any interleaving of swaps and leases, a request
        can never observe shard N+1 stamped with epoch N or vice versa.
        """
        shards = [EpochPipeline(tag="epoch-1")]
        guard = ShardGuard(shards[0])
        held = []
        for op in operations:
            if op == "swap":
                shard = EpochPipeline(tag=f"epoch-{len(shards) + 1}")
                shards.append(shard)
                guard.install(shard)
            else:
                ctx = guard.acquire()
                lease = ctx.__enter__()
                held.append((ctx, lease))
        try:
            for _, lease in held:
                assert lease.pipeline.tag == f"epoch-{lease.epoch}"
                assert lease.pipeline is shards[lease.epoch - 1]
            # Refcounts account for every held lease, per epoch.
            assert guard.inflight() == len(held)
        finally:
            for ctx, _ in held:
                ctx.__exit__(None, None, None)
        assert guard.inflight() == 0


# ----------------------------------------------------------------------
# Hot swap through the router.


class TestRouterSwap:
    def test_swap_installs_new_epoch_and_counts_ok(self):
        from repro.obs.metrics import MetricsRegistry, registry_scope

        router = Router.single(EpochPipeline("epoch-1"))
        registry = MetricsRegistry()
        with registry_scope(registry):
            epoch = router.swap("default", EpochPipeline("epoch-2"))
        assert epoch == 2
        with router.lease() as lease:
            assert lease.pipeline.tag == "epoch-2"
        swaps = registry.get("metasql_tenant_swap_total")
        assert swaps.labels(tenant="default", outcome="ok").value == 1

    def test_corrupt_snapshot_rolls_back_with_typed_error(self):
        from repro.obs.metrics import MetricsRegistry, registry_scope

        router = Router.single(EpochPipeline("epoch-1"))

        def corrupt_loader():
            raise CheckpointCorrupt("manifest checksum mismatch")

        registry = MetricsRegistry()
        with registry_scope(registry):
            with pytest.raises(TenantSwapError) as excinfo:
                router.swap("default", corrupt_loader)
        assert excinfo.value.epoch == 1
        # Automatic rollback: previous shard keeps serving.
        with router.lease() as lease:
            assert (lease.pipeline.tag, lease.epoch) == ("epoch-1", 1)
        swaps = registry.get("metasql_tenant_swap_total")
        assert swaps.labels(tenant="default", outcome="rollback").value == 1

    def test_untrained_snapshot_is_rejected(self):
        router = Router.single(EpochPipeline("epoch-1"))
        impostor = EpochPipeline("epoch-2")
        impostor._trained = False
        with pytest.raises(TenantSwapError):
            router.swap("default", impostor)
        assert router.resolve("default").shard.epoch == 1

    def test_swap_failpoint_rolls_back(self):
        router = Router.single(EpochPipeline("epoch-1"))
        with FAULTS.inject("router.swap"):
            with pytest.raises(TenantSwapError):
                router.swap("default", EpochPipeline("epoch-2"))
        assert router.resolve("default").shard.epoch == 1

    def test_swap_from_checkpoint_store(
        self, trained_pipeline, tiny_benchmark, tmp_path
    ):
        store = CheckpointStore(tmp_path / "store")
        store.save(trained_pipeline)
        router = Router.single(trained_pipeline)
        epoch = router.swap("default", store)
        assert epoch == 2
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        with router.lease() as lease:
            result = lease.pipeline.translate_ranked_report(
                example.question, db
            )
        assert result is not None

    def test_swap_journal_event_is_fault_record_free(self, tmp_path):
        from repro.obs.journal import Journal, read_journal

        path = tmp_path / "swap.jsonl"
        router = Router.single(EpochPipeline("epoch-1"), journal=Journal(path))
        router.swap("default", EpochPipeline("epoch-2"))
        try:
            router.swap("default", lambda: (_ for _ in ()).throw(
                CheckpointCorrupt("torn")
            ))
        except TenantSwapError:
            pass
        router.journal.close()
        records = read_journal(path)
        outcomes = [
            record["outcome"]
            for record in records
            if record["event"] == "tenant_swap"
        ]
        assert outcomes == ["ok", "rollback"]
        assert all("faults" not in record for record in records)


# ----------------------------------------------------------------------
# Service integration: isolation, health, single-tenant regression.


def _two_tenant_service(
    quota_a: TenantQuota | None = None, workers: int = 2, queue_limit: int = 64
):
    router = Router()
    router.register("alpha", EpochPipeline("epoch-1"), quota=quota_a)
    router.register("beta", EpochPipeline("epoch-1"))
    service = TranslationService(
        router, ServiceConfig(workers=workers, queue_limit=queue_limit)
    )
    return service, router


class TestServiceTenancy:
    def test_noisy_tenant_is_shed_without_touching_neighbour(
        self, example_db
    ):
        service, router = _two_tenant_service(
            quota_a=TenantQuota(rate=1e-6, burst=2)
        )
        with service:
            futures = []
            rejected = 0
            for _ in range(10):  # tenant A floods: burst of 2, then shed
                try:
                    futures.append(
                        service.submit("q", example_db, tenant="alpha")
                    )
                except TenantOverloaded:
                    rejected += 1
            assert rejected == 8
            # Tenant B's admission path is untouched.
            b_futures = [
                service.submit("q", example_db, tenant="beta")
                for _ in range(10)
            ]
            for future in futures + b_futures:
                assert future.result(timeout=30) is not None
            health = service.health()
        assert health.tenants["alpha"]["rejected"] == 8
        assert health.tenants["beta"]["rejected"] == 0
        assert health.rejected == 8

    def test_faults_do_not_cross_tenants(self, example_db):
        router = Router()
        faulty = EpochPipeline("epoch-1", fail_sites=("translate",))
        healthy = EpochPipeline("epoch-1")
        router.register("faulty", faulty)
        router.register("healthy", healthy)
        with TranslationService(
            router, ServiceConfig(workers=2)
        ) as service:
            bad = service.submit("q", example_db, tenant="faulty")
            good = service.submit("q", example_db, tenant="healthy")
            bad_result = bad.result(timeout=30)
            good_result = good.result(timeout=30)
        assert bad_result.report.faults
        assert not good_result.report.faults
        assert good_result.translations

    def test_unknown_tenant_is_typed(self, example_db):
        with TranslationService(
            StubPipeline(), ServiceConfig(workers=1)
        ) as service:
            with pytest.raises(UnknownTenant):
                service.submit("q", example_db, tenant="ghost")

    def test_health_carries_per_tenant_section_and_roundtrip(
        self, example_db
    ):
        service, router = _two_tenant_service()
        with service:
            service.translate("q", example_db, tenant="alpha", timeout=30)
            service.swap(EpochPipeline("epoch-2"), tenant="alpha")
            health = service.health()
        alpha = health.tenants["alpha"]
        assert alpha["epoch"] == 2
        assert alpha["last_swap_outcome"] == "ok"
        assert alpha["last_swap_at"] is not None
        assert "breakers" in alpha and "pending" in alpha
        assert health.tenants["beta"]["epoch"] == 1
        # as_dict/from_dict round-trip keeps the tenant section.
        clone = HealthSnapshot.from_dict(health.as_dict())
        assert clone.tenants == health.tenants
        assert clone.ready == health.ready

    def test_open_breaker_board_makes_service_not_ready(self):
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
            tenants={
                "ok": {"breaker_open": False},
                "stuck": {"breaker_open": True},
            },
        )
        assert not snapshot.ready
        healthy = HealthSnapshot.from_dict(
            {**snapshot.as_dict(), "tenants": {"ok": {"breaker_open": False}}}
        )
        assert healthy.ready

    def test_single_tenant_router_is_bit_identical_to_direct_pipeline(
        self, trained_pipeline, tiny_benchmark
    ):
        """Regression: the Router seam must not change the single-tenant
        translation output in any way."""
        examples = tiny_benchmark.dev.examples[:4]
        direct = []
        for example in examples:
            db = tiny_benchmark.dev.database(example.db_id)
            result = trained_pipeline.translate_ranked_report(
                example.question, db
            )
            direct.append([t.sql for t in result.translations])
        with TranslationService(
            trained_pipeline, ServiceConfig(workers=1)
        ) as service:
            routed = []
            for example in examples:
                db = tiny_benchmark.dev.database(example.db_id)
                result = service.translate(example.question, db, timeout=60)
                routed.append([t.sql for t in result.translations])
        assert routed == direct


# ----------------------------------------------------------------------
# Swap under fire: the chaos test.


class TestSwapUnderFire:
    def test_concurrent_hammer_swap_and_failpoints(
        self, example_db, trained_pipeline
    ):
        """Hammer two tenants concurrently, hot-swap tenant A's shard
        mid-traffic, and arm ``persist.save``/``serve.handle``
        failpoints.  Asserts: zero dropped requests (every admitted
        future resolves), no cross-tenant fault records, epoch
        consistency for every completed request, and rollback on a
        corrupt snapshot.
        """
        shard_a1 = EpochPipeline("epoch-1")
        shard_b = EpochPipeline("epoch-1")
        router = Router()
        router.register(
            "alpha", shard_a1, quota=TenantQuota(max_share=48)
        )
        router.register("beta", shard_b)
        config = ServiceConfig(workers=4, queue_limit=256)
        submitted: dict[str, list] = {"alpha": [], "beta": []}
        overloaded = {"alpha": 0, "beta": 0}
        stop = threading.Event()

        with TranslationService(router, config) as service:

            def hammer(tenant: str) -> None:
                while not stop.is_set():
                    try:
                        submitted[tenant].append(
                            service.submit("q", example_db, tenant=tenant)
                        )
                    except (TenantOverloaded, Overloaded):
                        overloaded[tenant] += 1

            threads = [
                threading.Thread(target=hammer, args=(t,), daemon=True)
                for t in ("alpha", "beta")
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()

            # Mid-traffic: a failpoint storm on the serve path...
            FAULTS.arm("serve.handle", times=5)
            # ...a corrupt-snapshot swap attempt (must roll back)...
            def corrupt():
                raise CheckpointCorrupt("bit flip")

            with pytest.raises(TenantSwapError):
                service.swap(corrupt, tenant="alpha")
            assert router.resolve("alpha").shard.epoch == 1
            # ...and a good swap while both tenants are under load.
            epoch = service.swap(EpochPipeline("epoch-2"), tenant="alpha")
            assert epoch == 2
            # persist.save fires mid-write while traffic flows: a torn
            # checkpoint save must not disturb serving either tenant.
            FAULTS.arm("persist.save", times=1)
            try:
                import tempfile

                with tempfile.TemporaryDirectory() as tmp:
                    store = CheckpointStore(tmp)
                    with pytest.raises(SqlError):
                        store.save(trained_pipeline)
                    assert store.snapshots() == []  # torn save left no litter
            finally:
                FAULTS.disarm("persist.save")

            stop.set()
            for thread in threads:
                thread.join(timeout=30)

            results = {"alpha": [], "beta": []}
            dropped = 0
            for tenant, futures in submitted.items():
                for future in futures:
                    try:
                        results[tenant].append(future.result(timeout=60))
                    except InjectedFault:
                        pass  # accounted: the armed serve.handle storm
                    except Exception:
                        dropped += 1
            health = service.health()

        # Zero dropped requests: every admitted future resolved to a
        # result or to the (typed, armed) injected fault.
        assert dropped == 0
        assert len(results["alpha"]) + len(results["beta"]) > 0
        # No cross-tenant fault records: tenant B never saw a pipeline
        # fault (the serve.handle storm surfaces as the typed exception
        # above, never as a FaultRecord on another tenant's report).
        for result in results["beta"]:
            assert not result.report.faults
            assert result.shard_tag == "epoch-1"
        # Epoch consistency: every alpha request was served entirely by
        # the shard generation matching one installed epoch.
        tags = {result.shard_tag for result in results["alpha"]}
        assert tags <= {"epoch-1", "epoch-2"}
        # The swap was recorded on the tenant section: rollback then ok.
        alpha = health.tenants["alpha"]
        assert alpha["epoch"] == 2
        assert alpha["swaps_ok"] == 1
        assert alpha["swaps_rolled_back"] == 1
        # The old shard fully drained.
        assert router.resolve("alpha").shard.inflight(1) == 0


class TestJournalAnalysis:
    def test_aggregation_folds_per_tenant_sections(
        self, example_db, tmp_path
    ):
        from repro.eval.journal_analysis import aggregate_journal

        journal_path = tmp_path / "events.jsonl"
        router = Router()
        router.register("alpha", EpochPipeline("epoch-1"))
        router.register(
            "beta", EpochPipeline("epoch-1", fail_sites=("translate",))
        )
        config = ServiceConfig(workers=1, journal_path=journal_path)
        with TranslationService(router, config) as service:
            service.translate("q1", example_db, tenant="alpha", timeout=30)
            service.swap(EpochPipeline("epoch-2"), tenant="alpha")
            service.translate("q2", example_db, tenant="alpha", timeout=30)
            service.translate("q3", example_db, tenant="beta", timeout=30)
        summary = aggregate_journal(journal_path)
        alpha = summary.by_tenant["alpha"]
        beta = summary.by_tenant["beta"]
        assert (alpha.total, alpha.faults) == (2, 0)
        assert alpha.swaps == {"ok": 1}
        assert alpha.max_epoch == 2
        assert (beta.total, beta.faults) == (1, 1)
        assert beta.max_epoch == 1
        assert "by tenant:" in summary.render()
        assert summary.as_dict()["by_tenant"]["alpha"]["swaps"] == {"ok": 1}

    def test_pre_tenancy_journals_keep_a_bare_render(self, tmp_path):
        from repro.eval.journal_analysis import aggregate_journal
        from repro.obs.journal import Journal

        path = tmp_path / "old.jsonl"
        journal = Journal(path)
        journal.append({"event": "translate", "ok": True, "translations": 1})
        journal.close()
        summary = aggregate_journal(path)
        assert summary.by_tenant == {}
        assert "by tenant:" not in summary.render()


# ----------------------------------------------------------------------
# Checkpoint store satellites: skip observability + prune.


class TestCheckpointSatellites:
    def test_skipped_corrupt_snapshot_is_counted_and_journaled(
        self, trained_pipeline, tmp_path
    ):
        from repro.obs.journal import Journal, read_journal
        from repro.obs.metrics import MetricsRegistry, registry_scope

        store = CheckpointStore(tmp_path / "store")
        store.save(trained_pipeline)
        newest = store.save(trained_pipeline)
        (newest / "manifest.json").write_text("{ torn")
        journal_path = tmp_path / "store.jsonl"
        store.journal = Journal(journal_path)
        registry = MetricsRegistry()
        with registry_scope(registry):
            pipeline = store.load_latest()
        store.journal.close()
        assert pipeline is not None
        counter = registry.get("metasql_checkpoint_skipped_corrupt_total")
        assert counter is not None and counter.value >= 1
        records = read_journal(journal_path)
        skips = [r for r in records if r["event"] == "checkpoint_skipped"]
        assert skips and skips[0]["snapshot"] == newest.name
        assert "error" in skips[0]

    def test_prune_deletes_stale_rotations_and_keeps_latest(
        self, trained_pipeline, tmp_path
    ):
        store = CheckpointStore(tmp_path / "store", keep=10)
        for _ in range(4):
            store.save(trained_pipeline)
        assert len(store.snapshots()) == 4
        deleted = store.prune(keep=2)
        assert deleted == ["ckpt-00000001", "ckpt-00000002"]
        remaining = [path.name for path in store.snapshots()]
        assert remaining == ["ckpt-00000003", "ckpt-00000004"]
        # The LATEST pointer's snapshot survives even keep=1.
        store.prune(keep=1)
        assert [p.name for p in store.snapshots()] == ["ckpt-00000004"]
        assert store.load_latest() is not None

    def test_prune_validates_keep(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.prune(keep=0)
