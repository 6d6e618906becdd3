"""The tenant-addressed dispatch seam and the hot-swap protocol.

:class:`Router` sits between :class:`~repro.serve.service.TranslationService`
and the pipelines: every submit/translate call resolves a tenant id to a
:class:`~repro.tenancy.registry.Tenant`, charges its admission quota, and
leases its shard for exactly one translation.  A bare pipeline is served
through the same code: ``Router.single(pipeline)`` registers it as the
unmetered ``default`` tenant, so there is no separate single-tenant path.

Zero-downtime hot swap (:meth:`Router.swap`):

1. Load the replacement shard from the snapshot *source* — a checkpoint
   directory, a :class:`~repro.serve.checkpoint.CheckpointStore` (last
   good snapshot wins), a ready pipeline object, or a zero-arg loader
   callable (tests).  Loading happens entirely *outside* the shard lock:
   traffic keeps flowing on the current epoch.
2. Validate the result (it must be a trained pipeline).  A corrupt or
   torn snapshot raises the checkpoint taxonomy here, which the router
   converts into an **automatic rollback**: the previous epoch keeps
   serving, ``metasql_tenant_swap_total{outcome="rollback"}`` is
   incremented, a fault-free ``tenant_swap`` journal event is appended,
   and a typed :class:`~repro.sqlkit.errors.TenantSwapError` propagates
   to the operator.
3. Atomically install the new shard behind the epoch/refcount guard:
   in-flight requests finish on the old shard, new requests see the new
   one (``outcome="ok"``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.core.resilience import fire
from repro.obs.metrics import get_registry
from repro.sqlkit.errors import (
    SqlError,
    TenantSwapError,
    UnknownTenant,
)
from repro.tenancy.quota import TenantQuota
from repro.tenancy.registry import ShardLease, Tenant, TenantRegistry

#: The tenant id ``Router.single`` registers and unaddressed calls use.
DEFAULT_TENANT = "default"


class Router:
    """Tenant-addressed dispatch over a :class:`TenantRegistry`."""

    def __init__(
        self,
        registry: TenantRegistry | None = None,
        journal=None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.registry = registry if registry is not None else TenantRegistry()
        self.journal = journal
        self._clock = clock if clock is not None else time.monotonic

    @classmethod
    def single(cls, pipeline: object, journal=None) -> "Router":
        """A router serving one unmetered ``default`` tenant.

        The service wraps a bare pipeline in this; requests take the
        ordinary resolve/admit/lease path with no quota attached.
        """
        router = cls(journal=journal)
        router.registry.register(DEFAULT_TENANT, pipeline)
        return router

    # ------------------------------------------------------------------
    # Resolution and dispatch.

    def resolve(self, tenant_id: str | None = None) -> Tenant:
        """The tenant for *tenant_id* (None: the default/only tenant)."""
        if tenant_id is None:
            if DEFAULT_TENANT in self.registry:
                return self.registry.get(DEFAULT_TENANT)
            tenants = self.registry.tenants()
            if len(tenants) == 1:
                return tenants[0]
            raise UnknownTenant(
                "<unaddressed>", known=self.registry.ids()
            )
        return self.registry.get(tenant_id)

    def admit(self, tenant_id: str | None = None) -> Tenant:
        """Resolve + charge the tenant's quota (see :meth:`Tenant.admit`)."""
        tenant = self.resolve(tenant_id)
        tenant.admit()
        return tenant

    @contextmanager
    def lease(self, tenant_id: str | None = None) -> Iterator[ShardLease]:
        """Lease the tenant's current shard for one translation."""
        tenant = self.resolve(tenant_id)
        with tenant.shard.acquire() as lease:
            yield lease

    @property
    def default_pipeline(self) -> object | None:
        """The default tenant's current shard, when one exists."""
        try:
            return self.resolve(None).shard.pipeline
        except UnknownTenant:
            return None

    def register(
        self,
        tenant_id: str,
        pipeline: object,
        quota: TenantQuota | None = None,
    ) -> Tenant:
        """Convenience passthrough to the registry."""
        return self.registry.register(tenant_id, pipeline, quota=quota)

    def snapshot(self) -> dict[str, dict]:
        """Per-tenant health sections, keyed by tenant id."""
        return self.registry.snapshot()

    # ------------------------------------------------------------------
    # Hot swap.

    def swap(
        self,
        tenant_id: str,
        source: object,
        config=None,
        drain_timeout: float | None = None,
    ) -> int:
        """Atomically replace *tenant_id*'s shard from *source*.

        Returns the new shard epoch on success.  On a corrupt/unloadable
        snapshot the previous epoch keeps serving (automatic rollback)
        and a typed :class:`TenantSwapError` is raised.  When
        *drain_timeout* is given, the call additionally waits up to that
        many seconds for the old epoch's in-flight requests to finish
        (pure bookkeeping — correctness never needs the wait).
        """
        tenant = self.resolve(tenant_id)
        previous_epoch = tenant.shard.epoch
        try:
            fire("router.swap")
            pipeline = self._load(source, config)
            if not getattr(pipeline, "_trained", True):
                raise TenantSwapError(
                    tenant.tenant_id,
                    previous_epoch,
                    "snapshot restored an untrained pipeline",
                )
        except (SqlError, OSError) as exc:
            self._record_swap(
                tenant, "rollback", previous_epoch, error=str(exc)
            )
            if isinstance(exc, TenantSwapError):
                raise
            raise TenantSwapError(
                tenant.tenant_id, previous_epoch, str(exc)
            ) from exc
        epoch = tenant.shard.install(pipeline)
        self._record_swap(tenant, "ok", epoch)
        if drain_timeout is not None:
            tenant.shard.drain(previous_epoch, timeout=drain_timeout)
        return epoch

    @staticmethod
    def _load(source: object, config) -> object:
        """Materialize a pipeline from any accepted snapshot *source*.

        Imports are lazy so :mod:`repro.tenancy` never imports
        :mod:`repro.serve` at module scope (the service imports us).
        """
        if hasattr(source, "translate_ranked_report"):
            return source  # a ready shard
        if callable(source):
            return source()  # injectable loader (tests, custom stores)
        from repro.serve.checkpoint import CheckpointStore

        if isinstance(source, CheckpointStore):
            return source.load_latest(config)
        import pathlib

        from repro.core.persist import load_pipeline

        path = pathlib.Path(source)
        if (path / "manifest.json").is_file():
            return load_pipeline(path, config)
        return CheckpointStore(path).load_latest(config)

    def _record_swap(
        self,
        tenant: Tenant,
        outcome: str,
        epoch: int,
        error: str | None = None,
    ) -> None:
        """Swap bookkeeping: tenant history, metrics, journal event.

        The journal event is deliberately :class:`FaultRecord`-free — a
        rolled-back swap is the protocol *working*, not a pipeline
        fault — and journalling is best-effort (it never fails a swap).
        """
        now = self._clock()
        tenant.last_swap_at = now
        tenant.last_swap_outcome = outcome
        if outcome == "ok":
            tenant.swaps_ok += 1
        else:
            tenant.swaps_rolled_back += 1
        get_registry().counter(
            "metasql_tenant_swap_total",
            "Shard hot-swap attempts by tenant and outcome.",
            labelnames=("tenant", "outcome"),
        ).labels(tenant=tenant.tenant_id, outcome=outcome).inc()
        record = {
            "event": "tenant_swap",
            "tenant": tenant.tenant_id,
            "outcome": outcome,
            "epoch": epoch,
        }
        if error is not None:
            record["error"] = error
        if self.journal is None:
            return
        try:
            self.journal.append(record)
        except Exception:  # repolint: allow[broad-except] — journalling never fails a swap
            pass
