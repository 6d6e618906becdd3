"""Tenant registry: per-tenant shards behind an epoch/refcount guard.

A *tenant* is one trained ranker shard (a ``MetaSQL`` pipeline —
duck-typed, so tests can register stubs) plus its admission quota and
swap history.  The registry maps tenant id to that bundle; the
:class:`~repro.tenancy.router.Router` dispatches translate calls through
it.

The hot-swap correctness core lives here, in :class:`ShardGuard`:

- Every request takes a :class:`ShardLease` — a ``(pipeline, epoch)``
  pair captured atomically under the guard's lock, with the epoch's
  in-flight refcount incremented for the lease's lifetime.
- :meth:`ShardGuard.install` atomically replaces the pipeline and bumps
  the epoch.  In-flight leases keep their old pipeline object (Python
  references keep it alive), so they finish on the epoch they started
  on; every lease taken after the install sees the new epoch.  No lease
  can ever observe a torn ``(old pipeline, new epoch)`` pair.
- :meth:`ShardGuard.drain` lets a swapper wait until an old epoch's
  refcount hits zero (bookkeeping/tests; correctness never needs it).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.devtools.lockdep import new_condition, new_lock
from repro.sqlkit.errors import ConfigError, TenantOverloaded, UnknownTenant
from repro.tenancy.quota import TenantQuota, TokenBucket


@dataclass(frozen=True)
class ShardLease:
    """One request's atomically captured view of a tenant's shard."""

    pipeline: object
    epoch: int


class ShardGuard:
    """Epoch/refcount guard around one tenant's pipeline shard."""

    def __init__(self, pipeline: object, epoch: int = 1) -> None:
        self._cond = new_condition("ShardGuard._cond")
        self._pipeline = pipeline
        self._epoch = epoch
        self._inflight: dict[int, int] = {}

    @property
    def epoch(self) -> int:
        with self._cond:
            return self._epoch

    @property
    def pipeline(self) -> object:
        """The current shard (health/introspection; requests lease)."""
        with self._cond:
            return self._pipeline

    @contextmanager
    def acquire(self) -> Iterator[ShardLease]:
        """Lease the current ``(pipeline, epoch)`` pair for one request."""
        with self._cond:
            lease = ShardLease(pipeline=self._pipeline, epoch=self._epoch)
            self._inflight[lease.epoch] = (
                self._inflight.get(lease.epoch, 0) + 1
            )
        try:
            yield lease
        finally:
            with self._cond:
                remaining = self._inflight.get(lease.epoch, 0) - 1
                if remaining <= 0:
                    self._inflight.pop(lease.epoch, None)
                else:
                    self._inflight[lease.epoch] = remaining
                self._cond.notify_all()

    def install(self, pipeline: object) -> int:
        """Atomically replace the shard; returns the new epoch."""
        with self._cond:
            self._epoch += 1
            self._pipeline = pipeline
            return self._epoch

    def inflight(self, epoch: int | None = None) -> int:
        """Active leases for one epoch (None: across all epochs)."""
        with self._cond:
            if epoch is not None:
                return self._inflight.get(epoch, 0)
            return sum(self._inflight.values())

    def drain(self, epoch: int, timeout: float | None = None) -> bool:
        """Wait for *epoch*'s in-flight count to reach zero."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._inflight.get(epoch, 0) == 0, timeout=timeout
            )


class Tenant:
    """One registered tenant: shard guard, quota state, swap history."""

    def __init__(
        self,
        tenant_id: str,
        pipeline: object,
        quota: TenantQuota | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if not tenant_id:
            raise ConfigError("tenant id must be a non-empty string")
        self.tenant_id = tenant_id
        self.shard = ShardGuard(pipeline)
        self.quota = quota or TenantQuota()
        self._clock = clock if clock is not None else time.monotonic
        self._bucket = (
            TokenBucket(self.quota.rate, self.quota.burst, clock=self._clock)
            if self.quota.rate is not None
            else None
        )
        self._lock = new_lock("Tenant._lock")
        self._pending = 0  # admitted requests: queued + in flight
        self._rejected = 0  # quota rejections (rate or share)
        self.swaps_ok = 0
        self.swaps_rolled_back = 0
        self.last_swap_at: float | None = None
        self.last_swap_outcome: str | None = None

    # ------------------------------------------------------------------
    # Admission (called by the service's submit path).

    def admit(self) -> None:
        """Charge one admission against the tenant's quota.

        Raises :class:`TenantOverloaded` when the token bucket is dry or
        the tenant's bounded queue share is full; on success the
        tenant's pending count is incremented and the caller *must*
        eventually call :meth:`release` (the service does so when the
        request finishes or fails to enqueue).
        """
        with self._lock:
            if (
                self.quota.max_share is not None
                and self._pending >= self.quota.max_share
            ):
                self._rejected += 1
                raise TenantOverloaded(
                    self.tenant_id,
                    "queue-share",
                    f"{self._pending}/{self.quota.max_share} in flight",
                )
        if self._bucket is not None and not self._bucket.try_acquire():
            with self._lock:
                self._rejected += 1
            raise TenantOverloaded(
                self.tenant_id,
                "rate",
                f"sustained rate above {self.quota.rate}/s",
            )
        with self._lock:
            self._pending += 1

    def release(self) -> None:
        """Return one admitted slot (request finished or never enqueued)."""
        with self._lock:
            self._pending = max(0, self._pending - 1)

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    @property
    def rejected(self) -> int:
        with self._lock:
            return self._rejected

    # ------------------------------------------------------------------
    # Introspection.

    @property
    def breakers(self):
        """The current shard's breaker board (per-tenant by construction:
        each tenant holds its own pipeline, hence its own board)."""
        return getattr(self.shard.pipeline, "breakers", None)

    def snapshot(self) -> dict:
        """Per-tenant health section (JSON-ready)."""
        board = self.breakers
        states = board.states() if board is not None else {}
        with self._lock:
            pending, rejected = self._pending, self._rejected
        return {
            "epoch": self.shard.epoch,
            "in_flight": self.shard.inflight(),
            "pending": pending,
            "max_share": self.quota.max_share,
            "rate": self.quota.rate,
            "rejected": rejected,
            "breakers": states,
            "breaker_open": any(state == "open" for state in states.values()),
            "swaps_ok": self.swaps_ok,
            "swaps_rolled_back": self.swaps_rolled_back,
            "last_swap_at": self.last_swap_at,
            "last_swap_outcome": self.last_swap_outcome,
        }


class TenantRegistry:
    """Thread-safe map of tenant id -> :class:`Tenant`."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self._lock = new_lock("TenantRegistry._lock")
        self._tenants: dict[str, Tenant] = {}

    def register(
        self,
        tenant_id: str,
        pipeline: object,
        quota: TenantQuota | None = None,
    ) -> Tenant:
        """Add a tenant; duplicate ids are a configuration error."""
        tenant = Tenant(tenant_id, pipeline, quota=quota, clock=self._clock)
        with self._lock:
            if tenant_id in self._tenants:
                raise ConfigError(f"tenant {tenant_id!r} already registered")
            self._tenants[tenant_id] = tenant
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise UnknownTenant(tenant_id, known=self.ids())
        return tenant

    def ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tenants))

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def tenants(self) -> list[Tenant]:
        with self._lock:
            return list(self._tenants.values())

    def snapshot(self) -> dict[str, dict]:
        """Per-tenant health sections, keyed by tenant id."""
        return {
            tenant.tenant_id: tenant.snapshot() for tenant in self.tenants()
        }
