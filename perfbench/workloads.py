"""The benchmark's three workloads.

Each workload makes its inputs from the seed before anything is timed,
repeats its set-up ``repeats`` times, runs a fixed amount of work through
the public client and server APIs, and checks every output. The amount of
work is a function of ``seconds`` and ``repeats`` alone, sized from the
rates measured at the commit that added the benchmark on a 2-CPU runner,
so two commits given the same arguments do the same work and their latency
percentiles are taken over the same number of samples.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.apps.video import synthetic_frame
from repro.fhe import BatchEncoder, Bfv, toy_parameters
from repro.hhe import batched
from repro.hhe.batched import BatchedHheServer, decrypt_batched_result
from repro.obs import MetricsRegistry, Tracer
from repro.pasta import PASTA_MICRO, PASTA_TOY, KeystreamEngine, PastaParams, random_key
from repro.service import (
    NO_FAULTS,
    TILE8,
    FaultPlan,
    MultiTenantConfig,
    MultiTenantService,
    TenantSpec,
    pack_frames,
)

from layers import CHECK_LAYER, ciphertext_bytes

#: The instance of the hoisted-BSGS bench: PASTA-4's state size (t = 32,
#: BSGS split (8, 4)) with 2 rounds. NOT SECURE; benchmark-only.
SESSION_PARAMS = PastaParams(name="pasta-bsgs", t=32, rounds=2, p=PASTA_MICRO.p, secure=False)
SESSION_RING_N = 512
SESSION_LOG2_Q = 240
SESSION_PRIME_BITS = 26
#: The packed capacity: (N/2) / t slot groups.
SESSION_BATCH_BLOCKS = 8

#: Work rates that size a run of ``seconds`` (see the module docstring).
SESSION_BATCHES_PER_S = 2.0
HHE_SERVICE_FRAMES_PER_S = 5.0
SYM_STREAM_FRAMES_PER_S = 100.0

#: Short sessions under a wider admission cap re-draw the set of active
#: sessions often, so neither shard idles for long; with 8-frame sessions
#: and 4 active, frame latency spread 13% across runs.
HHE_SERVICE_FRAMES_PER_SESSION = 2
HHE_SERVICE_ACTIVE_SESSIONS = 8
SYM_STREAM_FRAMES_PER_SESSION = 8
#: A latency tail needs samples beyond it (see run.tail_latency).
MIN_OPERATIONS = 20

#: Per-frame latency histogram the service observes into, per tenant.
FRAME_LATENCY = "service.tenant.frame_latency.seconds"


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: List[float]
    #: Wall time and verified PASTA blocks of each repetition of the work.
    work_s: List[float]
    blocks: List[int]
    #: perf_counter bounds from the last set-up's start to the end of work.
    window: Tuple[float, float]
    latencies: List[float]  #: one per operation (batch or frame), pooled
    operation: str  #: "batch" or "frame"
    attempted: int
    failed: int
    #: Hash of every output plus the counts that do not depend on timing.
    digest: str
    evaluator: str
    report: Dict[str, float] = field(default_factory=dict)
    #: Objects the per-layer metrics read after a traced run.
    layer_inputs: Dict[str, object] = field(default_factory=dict)


def _check(recorder):
    return recorder.suspended(CHECK_LAYER) if recorder is not None else contextlib.nullcontext()


# -- hhe_session ---------------------------------------------------------------


def _session_setup(fhe_seed: bytes, key_seed: bytes) -> SimpleNamespace:
    params = SESSION_PARAMS
    bfv = toy_parameters(
        params.p, n=SESSION_RING_N, log2_q=SESSION_LOG2_Q, prime_bits=SESSION_PRIME_BITS
    )
    scheme = Bfv(bfv, seed=fhe_seed)
    sk, pk, rlk = scheme.keygen()
    gk = scheme.rotation_keygen(
        sk, BatchedHheServer.required_rotation_steps(params, SESSION_RING_N)
    )
    encoder = BatchEncoder(SESSION_RING_N, params.p)
    key = random_key(params, seed=key_seed)
    encrypted_key = batched.encrypt_key_batched(scheme, pk, encoder, key)
    server = BatchedHheServer(
        params, scheme, rlk, encoder, encrypted_key, engine="bsgs", galois_keys=gk
    )
    # The client's own cache-less engine, as the service producer uses: the
    # server's shared engine must derive every matrix itself.
    client = KeystreamEngine(params, cache_size=0)
    return SimpleNamespace(
        scheme=scheme, sk=sk, encoder=encoder, key=key, server=server, client=client
    )


def hhe_session(seed: int, seconds: float, repeats: int, recorder=None) -> Outcome:
    """One client, one batch in flight, fresh nonce per batch."""
    params = SESSION_PARAMS
    n_batches = max(MIN_OPERATIONS, round(SESSION_BATCHES_PER_S * seconds))
    rng = np.random.default_rng([seed, 1])
    nonce0 = int(rng.integers(1, 2**48))
    messages = rng.integers(0, params.p, size=(n_batches, SESSION_BATCH_BLOCKS, params.t))
    fhe_seed = b"perfbench-session-fhe|%d" % seed
    key_seed = b"perfbench-session-key|%d" % seed

    setup_s: List[float] = []
    for _ in range(repeats):
        window_start = time.perf_counter()
        s = _session_setup(fhe_seed, key_seed)
        setup_s.append(time.perf_counter() - window_start)
    if s.server.packed_capacity != SESSION_BATCH_BLOCKS:
        raise RuntimeError(f"packed capacity is {s.server.packed_capacity}")

    counters = list(range(SESSION_BATCH_BLOCKS))
    latencies: List[float] = []
    failed = 0
    noise_min = float("inf")
    result_bytes = 0
    digest = hashlib.sha256()
    work_start = time.perf_counter()
    for i in range(n_batches):
        nonce = nonce0 + i
        start = time.perf_counter()
        keystream = s.client.keystream_pairs(s.key, [(nonce, c) for c in counters])
        blocks = ((messages[i] + keystream) % params.p).tolist()
        result = s.server.transcipher_blocks(blocks, nonce, counters)
        decrypted = decrypt_batched_result(s.scheme, s.sk, s.encoder, result)
        latencies.append(time.perf_counter() - start)
        with _check(recorder):
            budget = min(s.scheme.noise_budget_bits(s.sk, ct) for ct in result.ciphertexts)
            noise_min = min(noise_min, budget)
            failed += int(decrypted != messages[i].tolist() or budget <= 0)
            result_bytes += sum(ciphertext_bytes(ct) for ct in result.ciphertexts)
            digest.update(np.asarray(decrypted, dtype=np.int64).tobytes())
            digest.update(repr(result.ops).encode())
    end = time.perf_counter()

    return Outcome(
        setup_s=setup_s,
        work_s=[end - work_start],
        blocks=[(n_batches - failed) * SESSION_BATCH_BLOCKS],
        window=(window_start, end),
        latencies=latencies,
        operation="batch",
        attempted=n_batches,
        failed=failed,
        digest=digest.hexdigest(),
        evaluator=f"{s.server.eval_engine} hoisted={s.server.hoisted}",
        report={
            "result_bytes_per_block": result_bytes / (n_batches * SESSION_BATCH_BLOCKS),
            "noise_budget_min_bits": noise_min,
        },
        layer_inputs={
            "engines": [s.server.engine],
            "servers": [s.server],
            "secret_keys": {id(s.server): (s.scheme, s.sk)},
        },
    )


# -- the service workloads -------------------------------------------------------


def _run_service(
    config: MultiTenantConfig, plan: FaultPlan, repeats: int, recorder
) -> Outcome:
    """``repeats`` closed batches, each on a freshly set-up service.

    Every session is offered at once and admission paces the rest. Each
    batch sets up its own service, so setup_s is a median over several
    set-ups like on hhe_session.
    """
    elements = pack_frames(np.zeros((1, TILE8.pixels), np.uint8), config.params.p).shape[1]
    blocks_per_frame = -(-elements // config.params.t)
    setup_s: List[float] = []
    work_s: List[float] = []
    blocks: List[int] = []
    latencies: List[float] = []
    failed = 0
    report = dict.fromkeys(
        ("frames", "frames_lost", "transmissions", "shed_frames", "admission_deferred"), 0
    )
    digest = hashlib.sha256()
    for _ in range(repeats):
        registry = MetricsRegistry()
        window_start = time.perf_counter()
        service = MultiTenantService(config, plan, registry=registry, tracer=Tracer())
        start = time.perf_counter()
        setup_s.append(start - window_start)
        # Created before the run, with room for every frame, so the
        # service's latency histograms keep all samples.
        histograms = [
            registry.histogram(FRAME_LATENCY, reservoir=config.total_frames, tenant=spec.tenant_id)
            for spec in config.tenants
        ]
        result = service.run()
        end = time.perf_counter()
        work_s.append(end - start)
        # Histogram has no public accessor for its samples; its reservoir
        # holds every observation while it is not full.
        run_latencies = [v for h in histograms for v in h._samples]
        if len(run_latencies) != sum(h.count for h in histograms):
            raise RuntimeError("frame latency reservoir overflowed")
        latencies.extend(run_latencies)

        wrong = 0
        with _check(recorder):
            for uid in sorted(result.attempts):
                try:
                    pixels = service.recovered_pixels(uid)
                except KeyError:
                    continue  # lost: counted through frames_lost
                wrong += int(pixels != bytes(synthetic_frame(TILE8, uid)))
                digest.update(pixels)
        digest.update(repr((result.frames_recovered, sorted(result.attempts.items()))).encode())
        failed += result.frames_lost + wrong
        blocks.append((result.frames_recovered - wrong) * blocks_per_frame)
        report["frames"] += config.total_frames
        report["frames_lost"] += result.frames_lost
        report["transmissions"] += sum(result.attempts.values())
        report["shed_frames"] += result.shed_frames
        report["admission_deferred"] += result.admission_deferred

    runtimes = list(service.tenants.values())
    if config.mode == "hhe":
        servers = [rt.hhe.server for rt in runtimes]
        engines = list({id(sv.engine): sv.engine for sv in servers}.values())
        evaluator = ", ".join(
            sorted({f"{sv.eval_engine} hoisted={sv.hoisted}" for sv in servers})
        )
        secret_keys = {id(rt.hhe.server): (rt.hhe.scheme, rt.hhe.sk) for rt in runtimes}
    else:
        servers, secret_keys = [], {}
        engines = [rt.recovery_engine for rt in runtimes]
        evaluator = "none (symmetric keystream recovery)"
    report["frames_per_s"] = statistics.median(
        b / blocks_per_frame / w for b, w in zip(blocks, work_s)
    )
    return Outcome(
        setup_s=setup_s,
        work_s=work_s,
        blocks=blocks,
        window=(window_start, end),
        latencies=latencies,
        operation="frame",
        attempted=report["frames"],
        failed=failed,
        digest=digest.hexdigest(),
        evaluator=evaluator,
        report=report,
        layer_inputs={
            "engines": engines,
            "servers": servers,
            "secret_keys": secret_keys,
            "service_result": result,
            "workers": config.n_shards * config.workers_per_shard,
        },
    )


def hhe_service(seed: int, seconds: float, repeats: int, recorder=None) -> Outcome:
    """Two tenants on the service's HHE path, no faults.

    The tenant ids and the router seed stay fixed: the service routes each
    (tenant, session) to a shard by hash, and how evenly a placement loads
    the two shards moved blocks_per_s by 20% from one router seed to
    another. The seed drives the tenants' PASTA keys.
    """
    frames = max(MIN_OPERATIONS, HHE_SERVICE_FRAMES_PER_S * seconds / repeats)
    sessions = max(1, round(frames / (2 * HHE_SERVICE_FRAMES_PER_SESSION)))
    config = MultiTenantConfig(
        tenants=tuple(
            TenantSpec(f"tenant{i}", sessions=sessions,
                       frames_per_session=HHE_SERVICE_FRAMES_PER_SESSION, resolution=TILE8)
            for i in range(2)
        ),
        params=PASTA_TOY,
        mode="hhe",
        n_shards=2,
        workers_per_shard=1,
        worker_batch=4,
        max_active_sessions=HHE_SERVICE_ACTIVE_SESSIONS,
        key_seed=b"perfbench-hhe-service|%d" % seed,
        router_seed=0,
    )
    return _run_service(config, NO_FAULTS, repeats, recorder)


def sym_stream(seed: int, seconds: float, repeats: int, recorder=None) -> Outcome:
    """A hot tenant (3x sessions) and two quiet ones, 10% uplink drops."""
    frames = max(MIN_OPERATIONS, SYM_STREAM_FRAMES_PER_S * seconds / repeats)
    quiet = max(1, round(frames / (5 * SYM_STREAM_FRAMES_PER_SESSION)))
    tenants = (TenantSpec(f"hot-s{seed}", sessions=3 * quiet,
                          frames_per_session=SYM_STREAM_FRAMES_PER_SESSION,
                          resolution=TILE8),) + tuple(
        TenantSpec(f"quiet{i}-s{seed}", sessions=quiet,
                   frames_per_session=SYM_STREAM_FRAMES_PER_SESSION, resolution=TILE8)
        for i in range(2)
    )
    config = MultiTenantConfig(
        tenants=tenants,
        params=PASTA_TOY,
        mode="symmetric",
        n_shards=2,
        workers_per_shard=1,
        max_active_sessions=4,
        batch_frames=16,
        worker_batch=32,
        timeout_seconds=0.005,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.01,
        engine_cache_blocks=128,
        key_seed=b"perfbench-sym-stream|%d" % seed,
        router_seed=seed,
    )
    return _run_service(config, FaultPlan(seed=seed, drop_rate=0.10), repeats, recorder)


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "hhe_session": hhe_session,
    "hhe_service": hhe_service,
    "sym_stream": sym_stream,
}

#: Repetitions per untraced run: set-ups of the one streaming session on
#: hhe_session, whole set-up-and-run service batches on the others.
#: setup_s and blocks_per_s are medians over them.
REPEATS = {"hhe_session": 3, "hhe_service": 3, "sym_stream": 5}
