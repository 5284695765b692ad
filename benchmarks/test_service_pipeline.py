"""Bench: streaming service vs the serial per-frame encrypt loop.

One camera streams through the service: one tenant with one session, one
shard, four recovery workers. The acceptance bar is that service sustaining
>= 3x the frames/s of the serial ``encrypt_frame`` loop at toy
parameters. With one CPU in the harness the speedup comes from the
cross-frame keystream batching (one ``keystream_pairs`` pass per 32
in-flight frames) and vectorized synthesis/packing, not thread
parallelism — threads only hide the queue hand-off latency.

A second run injects a 10% drop schedule and must recover every frame
bit-exactly (zero loss). Results — sustained fps, the speedup ratio, and
p50/p99 per-stage latencies from the obs registry — land in
``benchmarks/BENCH_service_pipeline.json`` (the CI artifact of the
service smoke job).
"""

import json
import time
from pathlib import Path

import pytest

from repro.apps.video import NonceSequence, encrypt_frame, synthetic_frame
from repro.obs import MetricsRegistry, metric_key
from repro.pasta import PASTA_TOY, Pasta, random_key
from repro.service import (
    NO_FAULTS,
    TILE8,
    FaultPlan,
    MultiTenantConfig,
    MultiTenantService,
    TenantSpec,
)

SPEEDUP_FLOOR = 3.0
N_FRAMES = 256
DROP_RATE = 0.10
BENCH_JSON = Path(__file__).parent / "BENCH_service_pipeline.json"

CAMERA = "camera"

#: Report key -> registry key of each stage's latency histogram.
STAGES = {
    "service.synthesize.seconds": "service.synthesize.seconds",
    "service.encrypt.seconds": "service.encrypt.seconds",
    "service.recover.seconds": "service.recover.seconds",
    "service.frame_latency.seconds": metric_key(
        "service.tenant.frame_latency.seconds", {"tenant": CAMERA}
    ),
}


def run_camera(plan, registry):
    config = MultiTenantConfig(
        tenants=(TenantSpec(CAMERA, sessions=1, frames_per_session=N_FRAMES, resolution=TILE8),),
        params=PASTA_TOY,
        n_shards=1,
        workers_per_shard=4,
        batch_frames=32,
        worker_batch=32,
        queue_capacity=128,
        timeout_seconds=0.005,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.01,
    )
    service = MultiTenantService(config, plan, registry=registry)
    return service, service.run()


def serial_fps() -> float:
    """The baseline: one frame fully encrypted+verified at a time."""
    cipher = Pasta(PASTA_TOY, random_key(PASTA_TOY, b"service-bench"))
    nonces = NonceSequence()
    start = time.perf_counter()
    for frame_id in range(N_FRAMES):
        result = encrypt_frame(cipher, TILE8, nonces, seed=frame_id)
        assert result.ok_roundtrip
    return N_FRAMES / (time.perf_counter() - start)


def stage_latencies(snapshot: dict) -> dict:
    return {
        stage: {k: snapshot[key][k] for k in ("count", "mean", "p50", "p90", "p99")}
        for stage, key in STAGES.items()
        if key in snapshot
    }


def test_pipeline_speedup_and_fault_tolerance(capsys):
    baseline_fps = serial_fps()

    clean_registry = MetricsRegistry()
    _, clean = run_camera(NO_FAULTS, clean_registry)
    speedup = clean.frames_per_s / baseline_fps

    # 10% injected drops: every frame must still arrive, bit-exact.
    faulted_registry = MetricsRegistry()
    plan = FaultPlan(seed=2026, drop_rate=DROP_RATE)
    service, faulted = run_camera(plan, faulted_registry)
    assert faulted.frames_recovered == N_FRAMES, "frame loss under injected drops"
    for uid in range(N_FRAMES):
        assert service.recovered_pixels(uid) == bytes(synthetic_frame(TILE8, uid))
    drops = faulted_registry.counter("service.uplink.dropped", tenant=CAMERA).value
    retried = sum(1 for n in faulted.attempts.values() if n > 1)
    assert drops > 0, "drop schedule never fired; the tolerance claim is vacuous"

    report = {
        "params": PASTA_TOY.name,
        "resolution": TILE8.name,
        "n_frames": N_FRAMES,
        "n_workers": 4,
        "serial_fps": round(baseline_fps, 1),
        "pipeline_fps": round(clean.frames_per_s, 1),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "stage_latencies": stage_latencies(clean.metrics),
        "faulted": {
            "drop_rate": DROP_RATE,
            "fps": round(faulted.frames_per_s, 1),
            "frames_recovered": faulted.frames_recovered,
            "frames_lost": faulted.frames_lost,
            "uplink_drops": drops,
            "frames_retried": retried,
            "stage_latencies": stage_latencies(faulted.metrics),
        },
    }
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print()
        print(f"streaming service, {N_FRAMES} x {TILE8.name} frames ({PASTA_TOY.name}):")
        print(f"  serial loop   {baseline_fps:8.1f} frames/s")
        print(f"  pipeline (4w) {clean.frames_per_s:8.1f} frames/s  ({speedup:.2f}x)")
        print(
            f"  with {DROP_RATE:.0%} drops: {faulted.frames_per_s:8.1f} frames/s, "
            f"{drops} drops, {retried} frames retried, 0 lost"
        )
        enc = clean.metrics["service.encrypt.seconds"]
        print(f"  encrypt stage p50/p99: {enc['p50'] * 1e3:.2f}/{enc['p99'] * 1e3:.2f} ms/batch")

    assert speedup >= SPEEDUP_FLOOR, (
        f"pipeline only {speedup:.2f}x over the serial loop "
        f"({clean.frames_per_s:.0f} vs {baseline_fps:.0f} frames/s); floor is {SPEEDUP_FLOOR}x"
    )
