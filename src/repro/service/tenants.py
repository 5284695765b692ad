"""Streaming transciphering service: producer -> sharded uplink -> workers -> sink.

This is the system view the paper's Sec. V link budget abstracts away:
edge cameras PASTA-encrypt streams of frame tiles and ship them over a
lossy uplink to a recovery tier, which turns them back into plaintext (or,
in ``hhe`` mode, into BFV ciphertexts via batched transciphering,
decrypted client-side for verification). Many **tenants** (edge fleets,
each with its own PASTA key schedule) open many **sessions** (streams of
frames); one camera is the one-tenant configuration: one
:class:`TenantSpec` with ``sessions=1``, ``n_shards=1``. The moving parts:

* **Session layer.** Each tenant derives its key once (domain-separated
  from its tenant id), owns a monotonic
  :class:`~repro.apps.video.NonceSequence` shared by its sessions (no
  nonce ever repeats under one key, however many sessions are live), and
  gets private keystream engines — cache entries and keystream state
  never cross a tenant boundary.
* **Producer** (client). Frames of admitted sessions become ready on a
  schedule heap; the producer collects up to ``batch_frames`` ready
  frames, synthesizes and packs them with vectorized SHAKE/numpy, draws a
  **fresh nonce per transmission**, and derives each tenant's keystream
  for the whole batch in one
  :meth:`~repro.pasta.batch.KeystreamEngine.keystream_pairs` call — the
  cross-frame amortization that beats a per-frame encrypt loop.
* **Uplink.** ``shard_of(tenant, session)`` is a SHAKE hash onto one of
  ``n_shards`` bounded queues, so a session's frames always land on the
  same shard. A :class:`~repro.service.faults.FaultPlan`
  deterministically drops, corrupts, or delays transmissions. Drops and
  over-timeout delays are retried with bounded, jittered exponential
  backoff; corruption is caught by CRC at the receiver, which NACKs back
  to the producer. Retries re-encrypt under a fresh nonce.
* **Admission control.** At most ``max_active_sessions`` sessions are in
  flight; later sessions wait and are admitted as slots free
  (``service.admission.deferred`` counts each waiting session once;
  rejected == never: the simulation is closed-loop).
* **Load shedding and degradation.** When a shard's queue stays full past
  ``shed_put_timeout``, the frame is *shed*: the producer re-offers the
  same wire after a jittered backoff instead of blocking the whole batch
  behind one hot shard (``service.shed.frames{tenant=...}``). Shedding
  defers, never drops. A shed episode (from a failed put to the tenant's
  next successful one) steps that tenant one rung down its
  ``degradation_ladder``; a frame keeps the resolution of its first
  transmission.
* **Workers and sink.** ``workers_per_shard`` threads drain each shard in
  small batches and recover frames through
  :meth:`TenantRuntime.recover_elements`. The sink de-duplicates late
  deliveries and acknowledges; a session's last frame releases its
  admission slot.
* **Global cache budget.** With ``engine_cache_blocks > 0`` every
  tenant's recovery engine charges its materials cache to ONE
  :class:`~repro.utils.budget.CacheBudget` (likewise every tenant's
  :class:`~repro.hhe.batched.BatchedHheServer` charges its
  prepared-plaintext rows in ``hhe`` mode), so aggregate cache memory is
  bounded by configuration, not by tenant count, and a hot tenant's
  evictions land on itself once others are inside their fair share.

Everything reports into :mod:`repro.obs` with ``tenant=`` / ``shard=``
labels (frame latency, shed and fault counters, queue depth, worker idle
time), and every stage records a span: ``service.run`` holds the
producer's ``service.produce.batch`` spans, which nest
``service.synthesize`` and ``service.encrypt`` (and under it the
engine's ``pasta.keystream``). Each :class:`~repro.service.wire.WireFrame`
carries its encrypt span's context through the uplink queue, so a
worker's ``service.recover`` span joins the producer's trace.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import queue
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.packing import pixels_per_element
from repro.apps.video import NonceSequence, Resolution, synthetic_frames_batch
from repro.errors import ParameterError, ServiceError
from repro.keccak.shake import shake128
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_flight_recorder,
    get_registry,
    get_tracer,
)
from repro.pasta.batch import KeystreamEngine
from repro.pasta.cipher import random_key
from repro.pasta.params import PASTA_TOY, PastaParams
from repro.service.faults import FaultAction, FaultPlan, NO_FAULTS, checksum, corrupt_payload
from repro.service.wire import (
    TILE8,
    WireFrame,
    backoff_jitter_fraction,
    pack_frames,
    unpack_frames,
)
from repro.utils.budget import CacheBudget

__all__ = [
    "TENANT_KEY_DOMAIN",
    "TenantSpec",
    "MultiTenantConfig",
    "ShardRouter",
    "AdmissionController",
    "HheRecovery",
    "TenantRuntime",
    "MultiTenantResult",
    "MultiTenantService",
    "derive_tenant_key",
]

#: Domain separation for per-tenant PASTA keys: two tenants (or the same
#: tenant id under different deployment seeds) never share key material.
TENANT_KEY_DOMAIN = b"service-v1-tenant-key|"


def derive_tenant_key(params: PastaParams, tenant_id: str, seed: bytes = b"") -> np.ndarray:
    """The tenant's PASTA key schedule, domain-separated from its id."""
    return random_key(params, TENANT_KEY_DOMAIN + tenant_id.encode() + b"|" + seed)


# -- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's offered load: how many sessions of how many frames."""

    tenant_id: str
    sessions: int = 1
    frames_per_session: int = 8
    resolution: Resolution = TILE8
    #: Fallback resolutions, highest first: each shed episode moves the
    #: tenant's new frames one rung down.
    degradation_ladder: Tuple[Resolution, ...] = ()

    def __post_init__(self):
        if not self.tenant_id:
            raise ParameterError("tenant_id must be non-empty")
        if self.sessions < 1 or self.frames_per_session < 1:
            raise ParameterError("sessions and frames_per_session must be >= 1")


@dataclass
class MultiTenantConfig:
    """Knobs for the streaming service (defaults sized for toy params)."""

    tenants: Tuple[TenantSpec, ...]
    params: PastaParams = PASTA_TOY
    n_shards: int = 2
    workers_per_shard: int = 1
    batch_frames: int = 32  #: frames per producer encrypt pass (across tenants)
    #: Frames a shard worker drains per recovery pass. In hhe mode each
    #: tenant's drained frames share one transcipher call per N blocks,
    #: so this also bounds how wide a pack gets.
    worker_batch: int = 16
    queue_capacity: int = 64  #: per-shard uplink bound (backpressure)
    max_active_sessions: int = 1024  #: admission bound on in-flight sessions
    timeout_seconds: float = 0.01  #: sender's delivery timeout (drop detection)
    max_retries: int = 8  #: transmissions beyond the first before aborting
    backoff_base_seconds: float = 0.002
    backoff_max_seconds: float = 0.05
    #: Jitter width as a fraction of the exponential delay: the actual
    #: backoff is ``base * (1 + jitter * u)`` with ``u`` a deterministic
    #: per-(frame, attempt) uniform draw. 0 disables jitter — and brings
    #: back the thundering herd: every frame dropped in one batch would
    #: retry at the identical instant against the uplink queue.
    backoff_jitter: float = 0.5
    shed_put_timeout: float = 0.02  #: stalled shard put => shed the frame
    mode: str = "symmetric"  #: "symmetric" or "hhe" (per-tenant BFV transcipher)
    key_seed: bytes = b"multitenant-demo"
    #: Global cache budgets shared by EVERY tenant: keystream materials in
    #: blocks, prepared plaintexts in slot rows (hhe mode). Aggregate cache
    #: memory is bounded by these two numbers regardless of tenant count.
    #: ``engine_cache_blocks=0`` (the default) runs recovery on the
    #: engine's fused cache-less path: every transmission has a fresh
    #: nonce, so recovery never sees a (nonce, counter) window twice.
    engine_cache_blocks: int = 0
    prepared_cache_rows: int = 4096
    router_seed: int = 0
    run_timeout_seconds: float = 600.0

    def __post_init__(self):
        if not self.tenants:
            raise ParameterError("at least one TenantSpec required")
        ids = [t.tenant_id for t in self.tenants]
        if len(set(ids)) != len(ids):
            raise ParameterError(f"duplicate tenant ids in {ids}")
        if self.mode not in ("symmetric", "hhe"):
            raise ParameterError(f"unknown service mode {self.mode!r}")
        if self.n_shards < 1 or self.workers_per_shard < 1:
            raise ParameterError("n_shards and workers_per_shard must be >= 1")
        if self.batch_frames < 1 or self.worker_batch < 1 or self.queue_capacity < 1:
            raise ParameterError("batch_frames, worker_batch, queue_capacity must be >= 1")
        if self.max_active_sessions < 1:
            raise ParameterError("max_active_sessions must be >= 1")
        if self.max_retries < 0:
            raise ParameterError("max_retries must be >= 0")
        if self.engine_cache_blocks < 0:
            raise ParameterError("engine_cache_blocks must be >= 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ParameterError(f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}")
        if self.mode == "hhe":
            # Transciphering takes whole t-element blocks only; catch a tile
            # that does not fill them here, not in a shard worker mid-run.
            block_pixels = self.params.t * pixels_per_element(self.params.p)
            for spec in self.tenants:
                for resolution in (spec.resolution,) + spec.degradation_ladder:
                    if resolution.pixels % block_pixels:
                        raise ParameterError(
                            f"hhe mode: tenant {spec.tenant_id!r} resolution "
                            f"{resolution.name} ({resolution.pixels} pixels) does not "
                            f"fill whole {self.params.t}-element blocks of "
                            f"{block_pixels} pixels under {self.params.name}"
                        )

    @property
    def total_sessions(self) -> int:
        return sum(t.sessions for t in self.tenants)

    @property
    def total_frames(self) -> int:
        return sum(t.sessions * t.frames_per_session for t in self.tenants)


# -- routing and admission -------------------------------------------------------


class ShardRouter:
    """Deterministic session -> shard assignment (SHAKE hash).

    A session's frames always land on one shard (ordered recovery, warm
    per-tenant state), and the mapping is a pure function of
    ``(seed, tenant_id, session)`` so a run is reproducible and a restarted
    router re-derives the same placement.
    """

    def __init__(self, n_shards: int, seed: int = 0):
        if n_shards < 1:
            raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.seed = seed

    def shard_of(self, tenant_id: str, session: int) -> int:
        digest = shake128(
            b"service-v1-shard|"
            + struct.pack(">Q", self.seed)
            + tenant_id.encode()
            + struct.pack(">Q", session)
        ).read(8)
        return int.from_bytes(digest, "big") % self.n_shards


class AdmissionController:
    """Bounds concurrently active sessions; defers (never loses) the rest."""

    def __init__(self, max_active: int, registry: Optional[MetricsRegistry] = None):
        if max_active < 1:
            raise ParameterError(f"max_active must be >= 1, got {max_active}")
        self.max_active = max_active
        self._lock = threading.Lock()
        self._active = 0
        self._deferred = 0
        self.obs = registry if registry is not None else get_registry()

    def try_admit(self, waiting: int = 1) -> bool:
        """Take a slot if one is free, else count ``waiting`` sessions as deferred.

        ``waiting`` is how many sessions this refusal defers for the first
        time (0 when re-polling for sessions already counted), so each
        session counts once however often the caller polls.
        """
        with self._lock:
            if self._active < self.max_active:
                self._active += 1
                return True
            self._deferred += waiting
        if waiting:
            self.obs.counter("service.admission.deferred").inc(waiting)
        return False

    def release(self) -> None:
        with self._lock:
            if self._active <= 0:
                raise ServiceError("admission release without a matching admit")
            self._active -= 1

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    @property
    def deferred(self) -> int:
        with self._lock:
            return self._deferred


# -- per-tenant runtime ----------------------------------------------------------


class HheRecovery:
    """Full HHE receive path: batched BFV transciphering, then decryption.

    The worker transciphers a tenant's drained frames into slot-packed BFV
    ciphertexts with :class:`~repro.hhe.batched.BatchedHheServer` (the
    cloud's view of recovery). The frames' blocks are packed into one
    call per ``encoder.n`` blocks (one block per slot, each under its own
    frame's nonce), so a drained batch of ``worker_batch`` frames costs
    about one evaluation instead of one per frame. The adapter then
    decrypts each call's result with the client secret key purely so the
    sink can verify bit-exactness — a real deployment would hand the
    ciphertexts onward instead.
    """

    def __init__(
        self,
        params: PastaParams,
        key: np.ndarray,
        fhe_seed: bytes,
        n: int = 256,
        log2_q: int = 230,
        tenant: str = "default",
        prepared_budget: Optional[CacheBudget] = None,
    ):
        from repro.fhe import Bfv, toy_parameters
        from repro.fhe.batching import BatchEncoder
        from repro.hhe.batched import (
            BatchedHheServer,
            decrypt_batched_result,
            encrypt_key_batched,
        )

        self.params = params
        bfv = toy_parameters(params.p, n=n, log2_q=log2_q)
        self.scheme = Bfv(bfv, seed=fhe_seed)
        self.sk, pk, rlk = self.scheme.keygen()
        self.encoder = BatchEncoder(bfv.n, params.p)
        encrypted_key = encrypt_key_batched(self.scheme, pk, self.encoder, [int(k) for k in key])
        self.server = BatchedHheServer(
            params,
            self.scheme,
            rlk,
            self.encoder,
            encrypted_key,
            tenant=tenant,
            prepared_budget=prepared_budget,
        )
        self._decrypt = decrypt_batched_result

    def recover_batch(self, frames: Sequence[Tuple[WireFrame, np.ndarray]]) -> List[np.ndarray]:
        t = self.params.t
        # Validate every frame before transciphering any: a bad frame must
        # not fail a pack halfway through.
        for _, elements in frames:
            if len(elements) % t:
                raise ParameterError("hhe mode requires full t-element blocks per frame")
        if not frames:
            return []
        blocks = np.concatenate([elements for _, elements in frames]).reshape(-1, t).tolist()
        nonces: List[int] = []
        counters: List[int] = []
        for wire, elements in frames:
            n_blocks = len(elements) // t
            nonces.extend([wire.nonce] * n_blocks)
            counters.extend(range(n_blocks))
        width = self.encoder.n
        messages: List[List[int]] = []
        for start in range(0, len(blocks), width):
            end = start + width
            result = self.server.transcipher_blocks(
                blocks[start:end], nonces[start:end], counters[start:end]
            )
            messages.extend(self._decrypt(self.scheme, self.sk, self.encoder, result))
        flat = np.array(messages, dtype=np.int64).reshape(-1)
        bounds = np.cumsum([len(elements) for _, elements in frames])[:-1]
        return np.split(flat, bounds)


class TenantRuntime:
    """One tenant's keys, nonces, engines and degradation rung."""

    def __init__(
        self,
        spec: TenantSpec,
        params: PastaParams,
        key_seed: bytes,
        engine_budget: Optional[CacheBudget] = None,
        prepared_budget: Optional[CacheBudget] = None,
        mode: str = "symmetric",
        fhe_seed: bytes = b"multitenant-fhe",
    ):
        self.spec = spec
        self.params = params
        self.key = derive_tenant_key(params, spec.tenant_id, key_seed)
        #: One sequence per tenant KEY: sessions share it, so concurrent
        #: sessions can never reuse a (key, nonce) pair.
        self.nonces = NonceSequence()
        #: Client-side engine: fused streaming path, nothing cached.
        self.client_engine = KeystreamEngine(params, cache_size=0)
        #: Recovery-side engine: cache-less like the client's, or caching
        #: materials against the GLOBAL budget when there is one.
        if engine_budget is None:
            self.recovery_engine = KeystreamEngine(params, cache_size=0)
        else:
            self.recovery_engine = KeystreamEngine(
                params,
                cache_size=int(engine_budget.capacity),
                budget=engine_budget,
                owner=spec.tenant_id,
            )
        self.hhe = None
        if mode == "hhe":
            # Tenant identity + the shared budget flow into the batched
            # server so every tenant's prepared rows draw from one pool.
            self.hhe = HheRecovery(
                params,
                self.key,
                fhe_seed + b"|" + spec.tenant_id.encode(),
                tenant=spec.tenant_id,
                prepared_budget=prepared_budget,
            )
        #: Degradation ladder state; only the producer thread touches it.
        self.ladder: Tuple[Resolution, ...] = (spec.resolution,) + spec.degradation_ladder
        self.rung = 0
        self._shedding = False

    @property
    def resolution(self) -> Resolution:
        """The resolution this tenant's not-yet-sent frames go out at."""
        return self.ladder[self.rung]

    def note_put(self, shed: bool) -> bool:
        """Record one shard put; True iff it stepped the tenant down a rung.

        A shed episode starts at a failed put and ends at the tenant's next
        successful one. Each episode steps down at most once, so a long
        stall cannot slam the ladder to the floor.
        """
        starts = shed and not self._shedding
        self._shedding = shed
        if starts and self.rung + 1 < len(self.ladder):
            self.rung += 1
            return True
        return False

    def recover_elements(
        self, wires_elements: Sequence[Tuple[WireFrame, np.ndarray]]
    ) -> List[np.ndarray]:
        """Keystream-subtract (or transcipher+decrypt) a batch of frames."""
        if self.hhe is not None:
            return self.hhe.recover_batch(wires_elements)
        t = self.params.t
        pairs: List[Tuple[int, int]] = []
        spans: List[int] = []
        for wire, elements in wires_elements:
            n_blocks = -(-len(elements) // t)
            pairs.extend((wire.nonce, counter) for counter in range(n_blocks))
            spans.append(n_blocks)
        keystream = self.recovery_engine.keystream_pairs(self.key, pairs)
        out: List[np.ndarray] = []
        row = 0
        for (_, elements), n_blocks in zip(wires_elements, spans):
            flat = keystream[row : row + n_blocks].reshape(-1)[: len(elements)]
            row += n_blocks
            out.append((elements - flat) % self.params.p)
        return out


# -- frame/session records -------------------------------------------------------


@dataclass
class _FrameJob:
    """One logical frame of one session, across all its transmissions."""

    uid: int  #: globally unique frame id (fault plan + synthesis seed key)
    tenant_id: str
    session: int
    resolution: Resolution  #: fixed at the first transmission
    created_at: float = 0.0
    attempts: int = 0
    nonces: List[int] = field(default_factory=list)


@dataclass
class _SessionState:
    tenant_id: str
    session: int
    shard: int
    frame_uids: List[int]
    outstanding: set = field(default_factory=set)
    admitted_at: float = 0.0


@dataclass
class MultiTenantResult:
    """Outcome of one :meth:`MultiTenantService.run`."""

    duration_seconds: float
    sessions_completed: int
    frames_recovered: int
    frames_lost: int
    sessions_per_s: float
    frames_per_s: float
    shed_frames: int
    admission_deferred: int
    #: tenant -> {count, p50, p99, mean} frame-latency summary (seconds).
    tenant_latency: Dict[str, Dict[str, float]]
    #: engine-blocks (when budgeted) and (hhe) prepared-rows budget
    #: snapshots at completion.
    cache_budgets: Dict[str, dict]
    attempts: Dict[int, int]  #: frame uid -> transmissions used
    metrics: Dict[str, dict]


# -- the service -----------------------------------------------------------------


class MultiTenantService:
    """Producer / sharded worker tier / sink over per-tenant key schedules.

    The closed-loop simulation: every configured session is eventually
    admitted, streamed, recovered bit-exactly, and acknowledged. Faults,
    shedding and admission deferrals delay frames; nothing loses them.

    ``worker_gate`` is a test hook: when given, workers only consume while
    the event is set, which lets a test hold the pool to force uplink
    saturation deterministically.
    """

    def __init__(
        self,
        config: MultiTenantConfig,
        fault_plan: FaultPlan = NO_FAULTS,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        worker_gate: Optional[threading.Event] = None,
    ):
        self.config = config
        self.plan = fault_plan
        self.obs = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._gate = worker_gate

        self.engine_budget = (
            CacheBudget(config.engine_cache_blocks) if config.engine_cache_blocks else None
        )
        self.prepared_budget = (
            CacheBudget(config.prepared_cache_rows) if config.mode == "hhe" else None
        )
        self.router = ShardRouter(config.n_shards, seed=config.router_seed)
        self.admission = AdmissionController(config.max_active_sessions, registry=self.obs)

        self.tenants: Dict[str, TenantRuntime] = {
            spec.tenant_id: TenantRuntime(
                spec,
                config.params,
                config.key_seed,
                self.engine_budget,
                prepared_budget=self.prepared_budget,
                mode=config.mode,
            )
            for spec in config.tenants
        }

        # Materialize every session and frame job up front (the offered
        # load is the configuration; arrival is governed by admission).
        self._frames: Dict[int, _FrameJob] = {}
        self._sessions: List[_SessionState] = []
        self._session_of: Dict[int, _SessionState] = {}
        uid = 0
        for spec in config.tenants:
            for s in range(spec.sessions):
                uids = list(range(uid, uid + spec.frames_per_session))
                uid += spec.frames_per_session
                state = _SessionState(
                    tenant_id=spec.tenant_id,
                    session=s,
                    shard=self.router.shard_of(spec.tenant_id, s),
                    frame_uids=uids,
                    outstanding=set(uids),
                )
                self._sessions.append(state)
                for fid in uids:
                    self._frames[fid] = _FrameJob(
                        uid=fid, tenant_id=spec.tenant_id, session=s, resolution=spec.resolution
                    )
                    self._session_of[fid] = state

        self._uplinks: List["queue.Queue[WireFrame]"] = [
            queue.Queue(maxsize=config.queue_capacity) for _ in range(config.n_shards)
        ]
        self._result_q: "queue.Queue[Tuple[WireFrame, bytes]]" = queue.Queue()
        self._retry_q: "queue.Queue[Tuple[float, int, int]]" = queue.Queue()
        #: Shed wires re-offered after a backoff: (ready_time, seq, wire).
        self._deferred: List[Tuple[float, int, WireFrame]] = []
        self._deferred_seq = itertools.count()

        self._lock = threading.Lock()
        # Admission order is round-robin ACROSS tenants (session 0 of every
        # tenant, then session 1, ...): a tenant with a deep session backlog
        # waits on its own earlier sessions, never starves another tenant's
        # admission — the first half of the fairness story (the cache
        # budget's fair-share eviction is the second).
        by_tenant: Dict[str, List[_SessionState]] = {}
        for state in self._sessions:
            by_tenant.setdefault(state.tenant_id, []).append(state)
        self._pending_sessions: List[_SessionState] = [
            states[i]
            for i in range(max(len(s) for s in by_tenant.values()))
            for states in by_tenant.values()
            if i < len(states)
        ]
        #: Every session is offered at once; those not yet counted as
        #: deferred (all of them until the first refusal, none after).
        self._uncounted = len(self._pending_sessions)
        self._completed_sessions = 0
        self._recovered: Dict[int, bytes] = {}
        self._done = threading.Event()
        self._stop = threading.Event()
        self._failure: Optional[BaseException] = None

    # -- shared helpers ----------------------------------------------------------

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            if self._failure is None:
                self._failure = exc
        self._stop.set()
        self._done.set()

    def _backoff(self, uid: int, attempt: int) -> float:
        """Bounded exponential backoff, jittered per ``(uid, attempt)``.

        The exponential delay alone is identical for every frame on the
        same attempt number, so a batch of co-dropped frames would retry at
        the same instant — a synchronized storm against the uplink queue.
        The SHAKE-seeded jitter keys on the frame id, spreading co-dropped
        frames apart, while staying a pure function of ``(uid, attempt)``
        so runs remain reproducible.
        """
        if attempt <= 0:
            return 0.0
        cfg = self.config
        base = min(
            cfg.backoff_base_seconds * (2 ** (attempt - 1)), cfg.backoff_max_seconds
        )
        if cfg.backoff_jitter <= 0.0:
            return base
        return base * (1.0 + cfg.backoff_jitter * backoff_jitter_fraction(uid, attempt))

    def _schedule_retry(self, wire: WireFrame, earliest: float) -> None:
        self.obs.counter("service.retries", tenant=wire.tenant).inc()
        get_flight_recorder().record(
            "retry",
            severity="info",
            tenant=wire.tenant,
            frame_id=wire.frame_id,
            attempt=wire.attempt + 1,
        )
        ready = earliest + self._backoff(wire.frame_id, wire.attempt + 1)
        self._retry_q.put((ready, wire.frame_id, wire.attempt + 1))

    # -- admission ---------------------------------------------------------------

    def _admit_sessions(self, heap: List[Tuple[float, int, int]], now: float) -> None:
        """Admit as many pending sessions as the controller allows."""
        while self._pending_sessions:
            if not self.admission.try_admit(waiting=self._uncounted):
                self._uncounted = 0
                return
            state = self._pending_sessions.pop(0)
            self._uncounted = max(self._uncounted - 1, 0)
            state.admitted_at = now
            self.obs.counter("service.sessions.admitted", tenant=state.tenant_id).inc()
            for fid in state.frame_uids:
                self._frames[fid].created_at = now
                heapq.heappush(heap, (now, fid, 0))

    def _session_done(self, state: _SessionState, now: float) -> bool:
        """Mark completion; returns True when the whole run is finished."""
        self.admission.release()
        latency = now - state.admitted_at
        self.obs.histogram(
            "service.session.duration.seconds", tenant=state.tenant_id
        ).observe(latency)
        with self._lock:
            self._completed_sessions += 1
            return self._completed_sessions == len(self._sessions)

    # -- producer ----------------------------------------------------------------

    def _produce(self) -> None:
        cfg = self.config
        heap: List[Tuple[float, int, int]] = []
        try:
            self._admit_sessions(heap, time.monotonic())
            while not self._stop.is_set():
                while True:
                    try:
                        heapq.heappush(heap, self._retry_q.get_nowait())
                    except queue.Empty:
                        break
                if self._done.is_set():
                    break
                now = time.monotonic()
                self._admit_sessions(heap, now)
                # Re-offer shed wires whose backoff expired.
                while self._deferred and self._deferred[0][0] <= now:
                    _, _, wire = heapq.heappop(self._deferred)
                    self._offer(wire, redraw_fault=False)
                batch: List[Tuple[float, int, int]] = []
                while heap and heap[0][0] <= now and len(batch) < cfg.batch_frames:
                    batch.append(heapq.heappop(heap))
                if not batch:
                    wait = 0.005
                    if heap:
                        wait = min(wait, max(heap[0][0] - now, 0.0005))
                    if self._deferred:
                        wait = min(wait, max(self._deferred[0][0] - now, 0.0005))
                    try:
                        heapq.heappush(heap, self._retry_q.get(timeout=wait))
                    except queue.Empty:
                        pass
                    continue
                self._encrypt_and_send(batch)
        except ServiceError as exc:
            self._fail(exc)
        except BaseException as exc:  # surface worker-thread-style crashes too
            self._fail(ServiceError(f"producer failed: {exc!r}"))

    def _encrypt_and_send(self, batch: Sequence[Tuple[float, int, int]]) -> None:
        cfg = self.config
        params = cfg.params
        t = params.t
        tracer = self.tracer

        by_tenant: Dict[str, List[Tuple[int, int]]] = {}
        for _, uid, attempt in batch:
            if attempt > cfg.max_retries:
                raise ServiceError(f"frame {uid} exceeded {cfg.max_retries} retries")
            job = self._frames[uid]
            if attempt == 0:  # first transmission fixes the resolution
                job.resolution = self.tenants[job.tenant_id].resolution
            by_tenant.setdefault(job.tenant_id, []).append((uid, attempt))

        with tracer.span(
            "service.produce.batch",
            metric="service.produce.batch.seconds",
            registry=self.obs,
            variant=params.name,
            omega=params.modulus_bits,
            mode=cfg.mode,
            frames=len(batch),
            tenants=len(by_tenant),
        ):
            for tenant_id, jobs in by_tenant.items():
                runtime = self.tenants[tenant_id]
                # Synthesize + pack per resolution (one vectorized pass each).
                elements_of: Dict[int, np.ndarray] = {}
                by_res: Dict[Resolution, List[int]] = {}
                for uid, _ in jobs:
                    by_res.setdefault(self._frames[uid].resolution, []).append(uid)
                with tracer.span(
                    "service.synthesize",
                    metric="service.synthesize.seconds",
                    registry=self.obs,
                    tenant=tenant_id,
                    frames=len(jobs),
                ):
                    for resolution, uids in by_res.items():
                        packed = pack_frames(synthetic_frames_batch(resolution, uids), params.p)
                        for row, uid in enumerate(uids):
                            elements_of[uid] = packed[row]

                # One cross-session keystream pass per tenant (one key); the
                # engine's pasta.keystream span nests under this one.
                with tracer.span(
                    "service.encrypt",
                    metric="service.encrypt.seconds",
                    registry=self.obs,
                    variant=params.name,
                    omega=params.modulus_bits,
                    tenant=tenant_id,
                    frames=len(jobs),
                ) as encrypt_span:
                    pairs: List[Tuple[int, int]] = []
                    spans: List[int] = []
                    nonce_of: Dict[int, int] = {}
                    for uid, attempt in jobs:
                        nonce = runtime.nonces.next()  # fresh per transmission
                        nonce_of[uid] = nonce
                        n_blocks = -(-len(elements_of[uid]) // t)
                        pairs.extend((nonce, c) for c in range(n_blocks))
                        spans.append(n_blocks)
                    encrypt_span.set_attribute("lanes", len(pairs))
                    keystream = runtime.client_engine.keystream_pairs(runtime.key, pairs)
                    wires: List[WireFrame] = []
                    row = 0
                    for (uid, attempt), n_blocks in zip(jobs, spans):
                        job = self._frames[uid]
                        elements = elements_of[uid]
                        flat = keystream[row : row + n_blocks].reshape(-1)[: len(elements)]
                        row += n_blocks
                        payload = ((elements + flat) % params.p).astype("<u4").tobytes()
                        with self._lock:
                            job.attempts = attempt + 1
                            job.nonces.append(nonce_of[uid])
                        wires.append(
                            WireFrame(
                                frame_id=uid,
                                attempt=attempt,
                                nonce=nonce_of[uid],
                                tenant=tenant_id,
                                session=job.session,
                                resolution=job.resolution,
                                payload=payload,
                                crc=checksum(payload),
                                trace=encrypt_span.context,
                            )
                        )
                self.obs.counter("service.frames.sent", tenant=tenant_id).inc(len(wires))
                for wire in wires:
                    self._offer(wire)

    def _offer(self, wire: WireFrame, redraw_fault: bool = True) -> None:
        """Fault-inject (once per attempt) and route to the session's shard.

        A full shard queue sheds the frame: it goes back on the deferred
        heap with a jittered backoff instead of blocking the producer, and
        the *same* wire is re-offered later — the fault verdict and nonce
        belong to the transmission attempt, not to the queue put.
        """
        cfg = self.config
        now = time.monotonic()
        if redraw_fault:
            action = self.plan.action(wire.frame_id, wire.attempt)
            if action is FaultAction.DROP:
                self.obs.counter("service.uplink.dropped", tenant=wire.tenant).inc()
                self._schedule_retry(wire, now + cfg.timeout_seconds)
                return
            if action is FaultAction.CORRUPT:
                self.obs.counter("service.uplink.corrupted", tenant=wire.tenant).inc()
                wire = dataclasses.replace(
                    wire, payload=corrupt_payload(wire.payload, wire.frame_id, wire.attempt)
                )
            elif action is FaultAction.DELAY:
                self.obs.counter("service.uplink.delayed", tenant=wire.tenant).inc()
                wire = dataclasses.replace(wire, not_before=now + self.plan.delay_seconds)
                if self.plan.delay_seconds > cfg.timeout_seconds:
                    # The sender's timer fires before the late delivery lands:
                    # it retransmits, and the sink de-duplicates the straggler.
                    self._schedule_retry(wire, now + cfg.timeout_seconds)

        shard = self._session_of[wire.frame_id].shard
        runtime = self.tenants[wire.tenant]
        try:
            self._uplinks[shard].put(wire, timeout=cfg.shed_put_timeout)
        except queue.Full:
            # Load shedding: re-offer after a jittered backoff; the counter
            # is per tenant so a hot tenant's pressure is attributable.
            self.obs.counter("service.shed.frames", tenant=wire.tenant).inc()
            get_flight_recorder().record(
                "load_shed",
                tenant=wire.tenant,
                shard=shard,
                frame_id=wire.frame_id,
                attempt=wire.attempt,
            )
            if runtime.note_put(shed=True):
                self.obs.counter("service.degradation.steps", tenant=wire.tenant).inc()
            ready = now + self._backoff(wire.frame_id, max(wire.attempt, 1))
            heapq.heappush(self._deferred, (ready, next(self._deferred_seq), wire))
            return
        runtime.note_put(shed=False)
        # Depth from the put's own accounting: a sampled qsize() after the
        # fact races concurrent worker gets and under-reports the high-water
        # mark the gauge exists to expose.
        depth = self.obs.gauge("service.uplink.depth", shard=shard)
        depth.add(1)
        get_flight_recorder().sample(f"service.uplink.depth/shard{shard}", depth.value)

    # -- shard workers -----------------------------------------------------------

    def _worker(self, shard: int) -> None:
        cfg = self.config
        obs = self.obs
        uplink = self._uplinks[shard]
        idle = obs.histogram(
            "service.worker.idle.seconds",
            help="time a worker spends waiting for uplink frames",
            shard=shard,
        )
        try:
            while not self._stop.is_set():
                idle_start = time.perf_counter()
                if self._gate is not None and not self._gate.wait(timeout=0.05):
                    idle.observe(time.perf_counter() - idle_start)
                    continue
                try:
                    first = uplink.get(timeout=0.05)
                except queue.Empty:
                    idle.observe(time.perf_counter() - idle_start)
                    continue
                wires = [first]
                while len(wires) < cfg.worker_batch:
                    try:
                        wires.append(uplink.get_nowait())
                    except queue.Empty:
                        break
                idle.observe(time.perf_counter() - idle_start)
                # Mirror of the producer-side add: each get accounts for
                # itself rather than trusting a racy qsize() sample.
                depth = obs.gauge("service.uplink.depth", shard=shard)
                depth.add(-len(wires))
                get_flight_recorder().sample(
                    f"service.uplink.depth/shard{shard}", depth.value
                )
                self._recover(shard, wires)
        except BaseException as exc:
            self._fail(ServiceError(f"shard {shard} worker failed: {exc!r}"))

    def _recover(self, shard: int, wires: Sequence[WireFrame]) -> None:
        obs = self.obs
        params = self.config.params
        now = time.monotonic()
        by_tenant: Dict[str, List[Tuple[WireFrame, np.ndarray]]] = {}
        for wire in wires:
            if wire.not_before > now:
                time.sleep(wire.not_before - now)
                now = time.monotonic()
            if checksum(wire.payload) != wire.crc:
                obs.counter("service.crc.rejected", tenant=wire.tenant).inc()
                self._schedule_retry(wire, now)
                continue
            elements = np.frombuffer(wire.payload, dtype="<u4").astype(np.int64)
            by_tenant.setdefault(wire.tenant, []).append((wire, elements))
        for tenant_id, valid in by_tenant.items():
            runtime = self.tenants[tenant_id]
            # Explicit cross-thread propagation: the wire carries the
            # producing encrypt span's context, so this worker-side span
            # joins that trace. A drained batch can mix wires from several
            # producer batches — parent on the first and record how many
            # distinct traces fed it.
            with self.tracer.span(
                "service.recover",
                metric="service.recover.seconds",
                registry=obs,
                parent=valid[0][0].trace,
                tenant=tenant_id,
                shard=shard,
                mode=self.config.mode,
                frames=len(valid),
                source_traces=len({w.trace.trace_id for w, _ in valid if w.trace is not None}),
            ):
                recovered = runtime.recover_elements(valid)
            for (wire, _), elements in zip(valid, recovered):
                pixels = unpack_frames(elements[None, :], params.p)[0]
                self._result_q.put((wire, pixels[: wire.resolution.pixels].tobytes()))

    # -- sink --------------------------------------------------------------------

    def _sink(self) -> None:
        obs = self.obs
        try:
            while not self._stop.is_set():
                try:
                    wire, pixels = self._result_q.get(timeout=0.05)
                except queue.Empty:
                    continue
                now = time.monotonic()
                uid = wire.frame_id
                state = self._session_of[uid]
                with self._lock:
                    if uid in self._recovered:
                        obs.counter("service.frames.duplicate", tenant=wire.tenant).inc()
                        continue
                    self._recovered[uid] = pixels
                    state.outstanding.discard(uid)
                    session_done = not state.outstanding
                job = self._frames[uid]
                obs.counter("service.frames.recovered", tenant=wire.tenant).inc()
                obs.histogram(
                    "service.tenant.frame_latency.seconds", tenant=wire.tenant
                ).observe(now - job.created_at)
                if session_done and self._session_done(state, now):
                    self._done.set()
        except BaseException as exc:
            self._fail(ServiceError(f"sink failed: {exc!r}"))

    # -- orchestration -----------------------------------------------------------

    def run(self) -> MultiTenantResult:
        """Stream every session's frames to completion; block until done.

        Raises :class:`ServiceError` if a frame exhausts its retries, a
        stage crashes, or the run exceeds ``run_timeout_seconds``.
        """
        cfg = self.config
        threads = [
            threading.Thread(
                target=self._worker,
                args=(shard,),
                name=f"service-worker-{shard}.{w}",
                daemon=True,
            )
            for shard in range(cfg.n_shards)
            for w in range(cfg.workers_per_shard)
        ]
        threads.append(threading.Thread(target=self._sink, name="service-sink", daemon=True))
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        with self.tracer.span(
            "service.run",
            metric="service.run.seconds",
            registry=self.obs,
            variant=cfg.params.name,
            omega=cfg.params.modulus_bits,
            mode=cfg.mode,
            frames=cfg.total_frames,
            tenants=len(cfg.tenants),
            sessions=cfg.total_sessions,
            shards=cfg.n_shards,
            workers=cfg.n_shards * cfg.workers_per_shard,
        ):
            self._produce()
        if not self._done.wait(timeout=cfg.run_timeout_seconds):
            self._fail(ServiceError(f"service stalled past {cfg.run_timeout_seconds}s"))
        duration = time.perf_counter() - start
        self._stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        if self._failure is not None:
            raise self._failure

        tenant_latency: Dict[str, Dict[str, float]] = {}
        for spec in cfg.tenants:
            hist = self.obs.histogram(
                "service.tenant.frame_latency.seconds", tenant=spec.tenant_id
            )
            summary = hist.summary()
            tenant_latency[spec.tenant_id] = {
                k: summary[k] for k in ("count", "mean", "p50", "p99")
            }
            # Per-tenant loss gauge for the SLO window: offered minus
            # recovered, observable after the run without re-deriving it.
            expected = spec.sessions * spec.frames_per_session
            self.obs.gauge("service.frames.lost", tenant=spec.tenant_id).set(
                expected - int(summary["count"])
            )
        budgets = {}
        if self.engine_budget is not None:
            budgets["engine_blocks"] = dict(self.engine_budget.snapshot())
        if self.prepared_budget is not None:
            budgets["prepared_rows"] = dict(self.prepared_budget.snapshot())
        shed = sum(
            self.obs.counter("service.shed.frames", tenant=s.tenant_id).value
            for s in cfg.tenants
        )
        with self._lock:
            recovered = len(self._recovered)
            attempts = {uid: job.attempts for uid, job in self._frames.items()}
        return MultiTenantResult(
            duration_seconds=duration,
            sessions_completed=self._completed_sessions,
            frames_recovered=recovered,
            frames_lost=cfg.total_frames - recovered,
            sessions_per_s=cfg.total_sessions / duration if duration > 0 else 0.0,
            frames_per_s=cfg.total_frames / duration if duration > 0 else 0.0,
            shed_frames=shed,
            admission_deferred=self.admission.deferred,
            tenant_latency=tenant_latency,
            cache_budgets=budgets,
            attempts=attempts,
            metrics=self.obs.snapshot(),
        )

    def recovered_pixels(self, uid: int) -> bytes:
        """The sink's recovered bytes for one frame (tests/verification)."""
        with self._lock:
            return self._recovered[uid]
