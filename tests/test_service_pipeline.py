"""Tests for the streaming transciphering service (repro.service), one camera.

Every run here is the one-tenant configuration: one tenant streaming one
session over one shard, with ``n_workers`` recovery workers. The fault tests lean on two determinism guarantees: synthetic frame
content is a pure function of (resolution, frame_id), and the fault plan
is a pure function of (frame_id, attempt). Recovered output must therefore
be bit-exact with a no-fault run regardless of thread interleaving.
"""

import threading

import pytest

from repro.apps.video import Resolution, synthetic_frame
from repro.errors import ParameterError, ServiceError
from repro.obs import get_registry, get_tracer
from repro.pasta.params import PASTA_MICRO, PASTA_TOY
from repro.service import (
    NO_FAULTS,
    FaultAction,
    FaultPlan,
    MultiTenantConfig,
    MultiTenantService,
    TILE8,
    TILE16,
    TenantRuntime,
    TenantSpec,
    checksum,
    corrupt_payload,
)

# The conftest autouse fixture installs a fresh default registry and
# tracer per test, so the service (and these tests) just use the
# globals — no per-test registry plumbing or resets needed.

CAMERA = "camera"


def camera_service(
    plan=NO_FAULTS,
    n_frames=24,
    resolution=TILE8,
    degradation_ladder=(),
    n_workers=4,
    worker_gate=None,
    **overrides,
):
    """One camera: one tenant, one session of ``n_frames``, one shard."""
    camera = TenantSpec(
        CAMERA,
        sessions=1,
        frames_per_session=n_frames,
        resolution=resolution,
        degradation_ladder=degradation_ladder,
    )
    defaults = dict(
        n_shards=1,
        workers_per_shard=n_workers,
        batch_frames=8,
        timeout_seconds=0.002,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.01,
    )
    defaults.update(overrides)
    config = MultiTenantConfig(tenants=(camera,), **defaults)
    return MultiTenantService(config, plan, worker_gate=worker_gate)


def run_camera(plan=NO_FAULTS, **overrides):
    service = camera_service(plan, **overrides)
    return service, service.run()


def frames_of(service):
    """``(frame_id, resolution, recovered pixels)`` for every frame, in order."""
    return [
        (uid, service._frames[uid].resolution, service.recovered_pixels(uid))
        for uid in sorted(service._frames)
    ]


def assert_bit_exact(service):
    for uid, resolution, pixels in frames_of(service):
        assert pixels == bytes(synthetic_frame(resolution, uid)), f"frame {uid}"


def nonces_of(service):
    return {uid: list(job.nonces) for uid, job in service._frames.items()}


def counter(name):
    return get_registry().counter(name, tenant=CAMERA).value


class TestFaultPlan:
    def test_deterministic_verdicts(self):
        plan = FaultPlan(seed=3, drop_rate=0.2, corrupt_rate=0.1)
        verdicts = [plan.action(fid, a) for fid in range(50) for a in range(3)]
        assert verdicts == [plan.action(fid, a) for fid in range(50) for a in range(3)]
        assert FaultAction.DROP in verdicts  # rates actually bite

    def test_attempts_draw_independently(self):
        plan = FaultPlan(seed=1, drop_rate=0.5)
        actions = {plan.action(0, a) for a in range(32)}
        assert actions == {FaultAction.DROP, FaultAction.DELIVER}

    def test_explicit_schedule_overrides_rates(self):
        plan = FaultPlan(drop_at=frozenset({(4, 0)}), corrupt_at=frozenset({(5, 1)}))
        assert plan.action(4, 0) is FaultAction.DROP
        assert plan.action(4, 1) is FaultAction.DELIVER
        assert plan.action(5, 1) is FaultAction.CORRUPT

    def test_invalid_rates_rejected(self):
        with pytest.raises(ParameterError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ParameterError):
            FaultPlan(drop_rate=0.6, corrupt_rate=0.6)

    def test_corrupt_payload_flips_exactly_one_bit(self):
        payload = bytes(range(64))
        mangled = corrupt_payload(payload, 7, 0)
        diff = [a ^ b for a, b in zip(payload, mangled)]
        assert sum(bin(d).count("1") for d in diff) == 1
        assert checksum(mangled) != checksum(payload)


class TestCleanRun:
    def test_all_frames_recovered_in_order(self):
        service, result = run_camera()
        assert [uid for uid, _, _ in frames_of(service)] == list(range(24))
        assert_bit_exact(service)
        assert sorted(result.attempts) == list(range(24))
        assert all(n == 1 for n in result.attempts.values())

    def test_nonces_unique_across_frames(self):
        service, _ = run_camera()
        drawn = [n for ns in nonces_of(service).values() for n in ns]
        assert len(drawn) == len(set(drawn)) == 24

    def test_metrics_cover_stages(self):
        _, result = run_camera()
        snap = result.metrics
        for stage in ("service.synthesize.seconds", "service.encrypt.seconds",
                      "service.recover.seconds",
                      f'service.tenant.frame_latency.seconds{{tenant="{CAMERA}"}}',
                      'service.worker.idle.seconds{shard="0"}'):
            assert snap[stage]["count"] > 0, stage
        assert snap[f'service.frames.recovered{{tenant="{CAMERA}"}}']["value"] == 24

    def test_uplink_depth_balances_to_zero(self):
        run_camera()
        depth = get_registry().gauge("service.uplink.depth", shard=0)
        # Every producer-side put was matched by a worker-side drain, and
        # the queue genuinely held frames at some point.
        assert depth.value == 0
        assert depth.max >= 1

    def test_zero_frames(self):
        # A session has at least one frame; an empty stream is a config error.
        with pytest.raises(ParameterError):
            camera_service(n_frames=0)


class TestFaultRecovery:
    def test_scheduled_drops_recover_bit_exact(self):
        baseline, _ = run_camera()
        plan = FaultPlan(drop_at=frozenset({(2, 0), (2, 1), (9, 0), (17, 0)}))
        service, result = run_camera(plan)
        assert frames_of(service) == frames_of(baseline)
        assert result.attempts[2] == 3  # two drops then success
        assert result.attempts[9] == 2
        assert result.attempts[17] == 2
        assert result.attempts[0] == 1

    def test_retry_never_reuses_a_nonce(self):
        plan = FaultPlan(
            drop_at=frozenset({(3, 0)}),
            corrupt_at=frozenset({(7, 0), (7, 1)}),
        )
        service, result = run_camera(plan)
        nonces = nonces_of(service)
        for frame_id, drawn in nonces.items():
            assert len(drawn) == result.attempts[frame_id]
            assert len(drawn) == len(set(drawn)), f"frame {frame_id} reused a nonce"
        all_nonces = [n for ns in nonces.values() for n in ns]
        assert len(all_nonces) == len(set(all_nonces))
        assert result.attempts[7] == 3

    def test_corruption_detected_and_retried(self):
        plan = FaultPlan(corrupt_at=frozenset({(1, 0), (12, 0)}))
        service, _ = run_camera(plan)
        assert counter("service.crc.rejected") == 2
        assert_bit_exact(service)

    def test_random_rates_zero_loss(self):
        plan = FaultPlan(seed=11, drop_rate=0.10, corrupt_rate=0.05)
        service, result = run_camera(plan, n_frames=32)
        assert result.frames_recovered == 32
        assert_bit_exact(service)

    def test_late_delivery_is_deduplicated(self):
        plan = FaultPlan(delay_at=frozenset({(5, 0)}), delay_seconds=0.02)
        _, result = run_camera(plan, timeout_seconds=0.002)
        assert result.frames_recovered == 24
        # the delayed original AND its retransmit both arrive; one is dropped
        assert counter("service.frames.duplicate") + counter("service.frames.recovered") >= 25

    def test_retries_exhausted_raises(self):
        plan = FaultPlan(drop_at=frozenset({(0, a) for a in range(10)}))
        service = camera_service(
            plan,
            n_frames=2,
            max_retries=3,
            timeout_seconds=0.001,
            backoff_base_seconds=0.0005,
            backoff_max_seconds=0.002,
        )
        with pytest.raises(ServiceError):
            service.run()


class TestBackpressureDegradation:
    def test_saturation_triggers_exactly_one_downshift(self):
        gate = threading.Event()  # workers held until we release them
        service = camera_service(
            n_frames=24,
            resolution=TILE16,
            degradation_ladder=(TILE8,),
            n_workers=2,
            batch_frames=4,
            queue_capacity=2,
            shed_put_timeout=0.01,
            worker_gate=gate,
        )
        runner = threading.Thread(target=lambda: setattr(service, "_test_result", service.run()))
        runner.start()
        # Wait until the producer has actually hit a full queue.
        for _ in range(400):
            if counter("service.shed.frames") >= 1:
                break
            threading.Event().wait(0.005)
        gate.set()
        runner.join(timeout=60)
        assert not runner.is_alive()
        result = service._test_result
        assert counter("service.shed.frames") >= 1
        # One continuous shed episode => exactly one ladder step.
        assert counter("service.degradation.steps") == 1
        assert result.frames_recovered == 24
        resolutions = {resolution.name for _, resolution, _ in frames_of(service)}
        assert "TILE8" in resolutions  # later frames downshifted
        assert_bit_exact(service)

    def test_each_shed_episode_steps_exactly_one_rung(self):
        tile4 = Resolution("TILE4", 4, 4)
        spec = TenantSpec(CAMERA, resolution=TILE16, degradation_ladder=(TILE8, tile4))
        runtime = TenantRuntime(spec, PASTA_TOY, b"ladder")
        assert runtime.note_put(shed=True)  # an episode starts: one rung
        assert not runtime.note_put(shed=True)  # the same episode
        assert runtime.resolution == TILE8
        assert not runtime.note_put(shed=False)  # a successful put ends it
        assert runtime.note_put(shed=True)  # the next episode: one more rung
        assert runtime.resolution == tile4
        runtime.note_put(shed=False)
        assert not runtime.note_put(shed=True)  # the floor holds
        assert runtime.resolution == tile4

    def test_retry_keeps_its_first_resolution(self):
        # Frame 0's first transmission (TILE16) is dropped; its retry is
        # encrypted after the downshift and must still go out at TILE16.
        gate = threading.Event()
        service = camera_service(
            FaultPlan(drop_at=frozenset({(0, 0)})),
            n_frames=12,
            resolution=TILE16,
            degradation_ladder=(TILE8,),
            n_workers=2,
            batch_frames=4,
            queue_capacity=2,
            shed_put_timeout=0.01,
            worker_gate=gate,
        )
        runner = threading.Thread(target=lambda: setattr(service, "_test_result", service.run()))
        runner.start()
        for _ in range(400):
            if counter("service.degradation.steps") >= 1:
                break
            threading.Event().wait(0.005)
        gate.set()
        runner.join(timeout=60)
        assert not runner.is_alive()
        result = service._test_result
        assert counter("service.degradation.steps") == 1
        assert result.attempts[0] == 2
        resolutions = {uid: resolution.name for uid, resolution, _ in frames_of(service)}
        assert resolutions[0] == "TILE16"
        assert "TILE8" in resolutions.values()
        assert_bit_exact(service)

    def test_no_downshift_without_ladder(self):
        _, result = run_camera(queue_capacity=1, shed_put_timeout=0.001)
        assert counter("service.degradation.steps") == 0
        assert result.frames_recovered == 24


@pytest.mark.slow
class TestHheMode:
    def test_hhe_smoke_bit_exact(self):
        # 4x4 tile -> 8 elements -> 4 full PASTA_MICRO blocks per frame.
        tile = Resolution("TILE4", 4, 4)
        plan = FaultPlan(drop_at=frozenset({(1, 0)}))
        service, result = run_camera(
            plan,
            params=PASTA_MICRO,
            resolution=tile,
            n_frames=3,
            n_workers=1,
            batch_frames=3,
            worker_batch=3,
            mode="hhe",
        )
        assert result.frames_recovered == 3
        assert_bit_exact(service)
        assert result.attempts[1] == 2


class TestTracePropagation:
    """Spans nest within the producer thread and join across thread hops."""

    def test_producer_spans_nest_run_to_keystream(self):
        run_camera()
        tracer = get_tracer()
        by_id = {s.span_id: s for s in tracer.finished_spans()}

        (run,) = tracer.spans_named("service.run")
        assert run.parent_id is None
        assert run.attributes["variant"] == PASTA_TOY.name
        assert run.attributes["omega"] == PASTA_TOY.modulus_bits
        assert run.attributes["frames"] == 24

        batches = tracer.spans_named("service.produce.batch")
        assert batches
        assert all(b.parent_id == run.span_id for b in batches)
        assert all(b.trace_id == run.trace_id for b in batches)

        encrypts = tracer.spans_named("service.encrypt")
        assert encrypts
        for enc in encrypts:
            assert by_id[enc.parent_id].name == "service.produce.batch"
            assert enc.attributes["lanes"] > 0

        # The keystream engine is three frames down the call stack; its
        # span still lands under the enclosing stage via the context
        # variable. Both the producer (encrypt) and the workers (recover,
        # which regenerates the keystream) drive the engine.
        keystreams = tracer.spans_named("pasta.keystream")
        assert keystreams
        parents = {by_id[ks.parent_id].name for ks in keystreams}
        assert parents == {"service.encrypt", "service.recover"}
        assert all(ks.trace_id == run.trace_id for ks in keystreams)

    def test_keystream_spans_carry_modeled_cycles(self):
        run_camera()
        for ks in get_tracer().spans_named("pasta.keystream"):
            attrs = ks.attributes
            assert attrs["variant"] == PASTA_TOY.name
            assert attrs["omega"] == PASTA_TOY.modulus_bits
            assert attrs["modeled_cycles"] == (
                attrs["modeled_cycles_per_block"] * attrs["modeled_blocks"]
            )
            assert attrs["modeled_blocks"] == attrs["lanes"]
            assert attrs["modeled_cycles_per_block"] > 0

    def test_recover_spans_join_producer_trace_across_threads(self):
        run_camera()
        tracer = get_tracer()
        (run,) = tracer.spans_named("service.run")
        encrypt_ids = {s.span_id for s in tracer.spans_named("service.encrypt")}
        recovers = tracer.spans_named("service.recover")
        assert recovers
        for rec in recovers:
            # Explicitly parented via the SpanContext carried in WireFrame:
            # same trace as the producer, even though the span was recorded
            # on a worker thread where the context variable is empty.
            assert rec.trace_id == run.trace_id
            assert rec.parent_id in encrypt_ids
            assert rec.thread_id != run.thread_id
            assert rec.thread_name.startswith("service-worker")
            assert rec.attributes["frames"] >= 1
            assert rec.attributes["source_traces"] >= 1


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            camera_service(mode="quantum")

    def test_bad_counts(self):
        with pytest.raises(ParameterError):
            camera_service(n_workers=0)
        with pytest.raises(ParameterError):
            camera_service(queue_capacity=0)


class TestBackoffJitter:
    """The retry-storm fix: deterministic SHAKE jitter on the backoff.

    Without jitter, every frame dropped in one batch retried at the
    identical instant (the exponential delay depends only on the attempt
    number) — a synchronized storm against the uplink queue. The jitter
    must spread co-dropped frames apart while staying a pure function of
    ``(frame_id, attempt)`` so runs remain reproducible.
    """

    def _pipeline(self, **overrides):
        defaults = dict(n_frames=4, backoff_base_seconds=0.004, backoff_max_seconds=0.04)
        defaults.update(overrides)
        return camera_service(**defaults)

    def test_co_dropped_frames_get_distinct_ready_times(self):
        # Frames dropped in the same batch share the attempt number; the
        # frame-id keyed jitter must still separate their retry instants.
        pipeline = self._pipeline()
        delays = [pipeline._backoff(frame_id, attempt=1) for frame_id in range(16)]
        assert len(set(delays)) == len(delays), "thundering herd: identical retry delays"
        base = pipeline.config.backoff_base_seconds
        jitter = pipeline.config.backoff_jitter
        for delay in delays:
            assert base <= delay <= base * (1.0 + jitter)

    def test_jitter_is_reproducible_across_pipelines(self):
        first = self._pipeline()
        second = self._pipeline()
        pairs = [(fid, a) for fid in range(8) for a in range(1, 4)]
        assert [first._backoff(f, a) for f, a in pairs] == [
            second._backoff(f, a) for f, a in pairs
        ]

    def test_zero_jitter_restores_pure_exponential(self):
        pipeline = self._pipeline(backoff_jitter=0.0)
        assert pipeline._backoff(0, 1) == pipeline._backoff(1, 1)
        assert pipeline._backoff(5, 1) == pipeline.config.backoff_base_seconds

    def test_backoff_still_bounded_with_jitter(self):
        pipeline = self._pipeline()
        cap = pipeline.config.backoff_max_seconds
        jitter = pipeline.config.backoff_jitter
        for attempt in range(1, 12):
            assert pipeline._backoff(3, attempt) <= cap * (1.0 + jitter)

    def test_jitter_fraction_uniform_range(self):
        from repro.service import backoff_jitter_fraction

        draws = [backoff_jitter_fraction(fid, 1) for fid in range(256)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert len(set(draws)) == len(draws)
        # Deterministic: the same (frame, attempt) always draws the same u.
        assert draws == [backoff_jitter_fraction(fid, 1) for fid in range(256)]

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ParameterError):
            camera_service(backoff_jitter=1.5)
        with pytest.raises(ParameterError):
            camera_service(backoff_jitter=-0.1)

    def test_faulted_run_still_bit_exact_with_jitter(self):
        plan = FaultPlan(seed=9, drop_rate=0.2)
        service, result = run_camera(plan, n_frames=16)
        assert result.frames_recovered == 16
        assert_bit_exact(service)
