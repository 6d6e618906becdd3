"""Multi-tenant registry, routing seam, and per-tenant fault isolation.

One process, many schema worlds (ROADMAP item 4): a
:class:`TenantRegistry` maps tenant id -> (trained ranker shard,
admission quota); a :class:`Router` dispatches every
tenant-addressed translate call through an epoch/refcount
:class:`ShardGuard` so a shard can be hot-swapped with zero downtime;
:class:`TenantQuota` bounds each tenant's admission rate and queue share
so a noisy tenant is shed with typed
:class:`~repro.sqlkit.errors.TenantOverloaded` instead of browning out
its neighbours.  Per-tenant breaker boards come for free: every tenant
owns its own pipeline, hence its own
:class:`~repro.core.resilience.BreakerBoard`.
"""

from repro.tenancy.quota import TenantQuota, TokenBucket
from repro.tenancy.registry import (
    ShardGuard,
    ShardLease,
    Tenant,
    TenantRegistry,
)
from repro.tenancy.router import DEFAULT_TENANT, Router

__all__ = [
    "DEFAULT_TENANT",
    "Router",
    "ShardGuard",
    "ShardLease",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "TokenBucket",
]
