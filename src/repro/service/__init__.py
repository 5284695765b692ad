"""Streaming transciphering service: pipelined HHE with faults and retries.

See :mod:`repro.service.tenants` for the architecture overview (sessions,
shard routing, admission control, load shedding and degradation, global
cache budgets; one camera is the one-tenant configuration),
:mod:`repro.service.wire` for what crosses the uplink, and
:mod:`repro.service.faults` for the deterministic uplink fault model.
"""

from repro.service.faults import (
    NO_FAULTS,
    FaultAction,
    FaultPlan,
    checksum,
    corrupt_payload,
)
from repro.service.tenants import (
    AdmissionController,
    HheRecovery,
    MultiTenantConfig,
    MultiTenantResult,
    MultiTenantService,
    ShardRouter,
    TenantRuntime,
    TenantSpec,
    derive_tenant_key,
)
from repro.service.wire import (
    TILE8,
    TILE16,
    WireFrame,
    backoff_jitter_fraction,
    pack_frames,
    unpack_frames,
)

__all__ = [
    "AdmissionController",
    "FaultAction",
    "FaultPlan",
    "HheRecovery",
    "MultiTenantConfig",
    "MultiTenantResult",
    "MultiTenantService",
    "NO_FAULTS",
    "ShardRouter",
    "TILE16",
    "TILE8",
    "TenantRuntime",
    "TenantSpec",
    "WireFrame",
    "backoff_jitter_fraction",
    "checksum",
    "corrupt_payload",
    "derive_tenant_key",
    "pack_frames",
    "unpack_frames",
]
