"""Tests for the multi-tenant sharded service (repro.service.tenants).

The isolation claims under test:

* **Key/keystream isolation** — distinct tenants derive distinct keys and
  never share cache entries or keystream (hypothesis-driven).
* **Fair-share eviction** — a hot tenant filling the shared budget evicts
  itself; a tenant at or below ``capacity / n_owners`` is never victimized.
* **Routing determinism** — session -> shard placement is a pure function
  of (seed, tenant, session).
* **Admission control** — at most ``max_active`` sessions in flight;
  excess defers, never rejects.
* **End to end** — hundreds of frames across tenants/shards/faults come
  back bit-exact with zero loss and a bounded global cache.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.video import synthetic_frame, synthetic_frames_batch
from repro.errors import ParameterError, ServiceError
from repro.obs import get_registry, get_tracer
from repro.pasta import Pasta
from repro.pasta.batch import KeystreamEngine
from repro.pasta.params import PASTA_3, PASTA_MICRO, PASTA_TOY
from repro.service import (
    TILE8,
    TILE16,
    FaultPlan,
    HheRecovery,
    MultiTenantConfig,
    MultiTenantService,
    TenantSpec,
    WireFrame,
    pack_frames,
)
from repro.service.tenants import AdmissionController, ShardRouter, derive_tenant_key
from repro.utils.budget import CacheBudget


def run_service(tenants, plan=None, **overrides):
    defaults = dict(
        tenants=tenants,
        params=PASTA_TOY,
        n_shards=2,
        batch_frames=8,
        worker_batch=8,
        timeout_seconds=0.002,
        backoff_base_seconds=0.001,
        backoff_max_seconds=0.01,
    )
    defaults.update(overrides)
    config = MultiTenantConfig(**defaults)
    service = MultiTenantService(config, plan or FaultPlan())
    return service, service.run()


class TestTenantKeyIsolation:
    @given(
        ids=st.lists(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=16
            ),
            min_size=2,
            max_size=5,
            unique=True,
        )
    )
    def test_distinct_tenants_distinct_keys_and_keystreams(self, ids):
        """Two tenants with different ids never share key or keystream."""
        keys = {tid: derive_tenant_key(PASTA_TOY, tid) for tid in ids}
        engine = KeystreamEngine(PASTA_TOY, cache_size=0)
        streams = {
            tid: engine.keystream_pairs(key, [(0, 0), (0, 1)]).tolist()
            for tid, key in keys.items()
        }
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                assert keys[a].tolist() != keys[b].tolist()
                assert streams[a] != streams[b]

    def test_key_derivation_is_deterministic_and_seed_separated(self):
        assert (
            derive_tenant_key(PASTA_TOY, "alice").tolist()
            == derive_tenant_key(PASTA_TOY, "alice").tolist()
        )
        assert (
            derive_tenant_key(PASTA_TOY, "alice", b"deploy-2").tolist()
            != derive_tenant_key(PASTA_TOY, "alice").tolist()
        )
        # No concatenation ambiguity: ("ab", "c"-seed) != ("a", "bc"-ish).
        assert (
            derive_tenant_key(PASTA_TOY, "ab").tolist()
            != derive_tenant_key(PASTA_TOY, "a").tolist()
        )

    def test_tenant_engine_caches_never_share_entries(self):
        """Each tenant's engine caches only its own (nonce, counter) blocks."""
        budget = CacheBudget(64)
        a = KeystreamEngine(PASTA_TOY, cache_size=8, budget=budget, owner="a")
        b = KeystreamEngine(PASTA_TOY, cache_size=8, budget=budget, owner="b")
        a.keystream_pairs(derive_tenant_key(PASTA_TOY, "a"), [(1, 0), (1, 1)])
        assert a.cache_info().size == 2
        assert b.cache_info().size == 0  # nothing leaked across engines
        # b deriving the same pairs is a miss on ITS cache, not a hit on a's.
        b.keystream_pairs(derive_tenant_key(PASTA_TOY, "b"), [(1, 0)])
        assert b.cache_info().hits == 0
        assert b.cache_info().misses == 1


class TestFairShareEviction:
    def test_hot_owner_evicts_itself_not_the_quiet_owner(self):
        """An owner at/below capacity/n is never victimized by a hot one."""
        budget = CacheBudget(8)
        quiet = KeystreamEngine(PASTA_TOY, cache_size=100, budget=budget, owner="quiet")
        hot = KeystreamEngine(PASTA_TOY, cache_size=100, budget=budget, owner="hot")
        key_q = derive_tenant_key(PASTA_TOY, "quiet")
        key_h = derive_tenant_key(PASTA_TOY, "hot")

        # Quiet takes exactly its fair share (4 of 8 units) ...
        quiet.keystream_pairs(key_q, [(0, c) for c in range(4)])
        assert budget.usage("quiet") == 4.0
        # ... then hot floods far past capacity.
        hot.keystream_pairs(key_h, [(0, c) for c in range(64)])

        assert budget.total <= budget.capacity
        assert budget.usage("quiet") == 4.0, "hot tenant evicted a fair-share resident"
        assert budget.evictions("quiet") == 0
        assert budget.evictions("hot") > 0
        assert quiet.cache_info().size == 4

    def test_eviction_pressure_lands_on_largest_owner(self):
        budget = CacheBudget(6)
        engines = {
            name: KeystreamEngine(PASTA_TOY, cache_size=100, budget=budget, owner=name)
            for name in ("a", "b", "c")
        }
        keys = {name: derive_tenant_key(PASTA_TOY, name) for name in engines}
        engines["a"].keystream_pairs(keys["a"], [(0, c) for c in range(2)])
        engines["b"].keystream_pairs(keys["b"], [(0, c) for c in range(2)])
        engines["c"].keystream_pairs(keys["c"], [(0, c) for c in range(12)])
        assert budget.total <= 6
        assert budget.usage("a") == 2.0
        assert budget.usage("b") == 2.0
        assert budget.usage("c") <= 2.0
        assert budget.evictions("a") == budget.evictions("b") == 0

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=5, max_value=30))
    def test_budget_never_exceeds_capacity(self, n_owners, blocks_each):
        budget = CacheBudget(10)
        for i in range(n_owners):
            engine = KeystreamEngine(
                PASTA_TOY, cache_size=100, budget=budget, owner=f"o{i}"
            )
            engine.keystream_pairs(
                derive_tenant_key(PASTA_TOY, f"o{i}"), [(0, c) for c in range(blocks_each)]
            )
        assert budget.total <= budget.capacity


class TestShardRouter:
    def test_deterministic_and_seed_dependent(self):
        router = ShardRouter(4, seed=7)
        again = ShardRouter(4, seed=7)
        other = ShardRouter(4, seed=8)
        placements = [router.shard_of(f"t{i}", s) for i in range(8) for s in range(8)]
        assert placements == [again.shard_of(f"t{i}", s) for i in range(8) for s in range(8)]
        assert placements != [other.shard_of(f"t{i}", s) for i in range(8) for s in range(8)]

    def test_spreads_sessions_across_shards(self):
        router = ShardRouter(4)
        hit = {router.shard_of("tenant", s) for s in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_range_and_validation(self):
        router = ShardRouter(3)
        assert all(0 <= router.shard_of("x", s) < 3 for s in range(100))
        with pytest.raises(ParameterError):
            ShardRouter(0)


class TestAdmissionControl:
    def test_caps_active_and_counts_deferrals(self):
        ctl = AdmissionController(2)
        assert ctl.try_admit() and ctl.try_admit()
        assert not ctl.try_admit()
        assert ctl.deferred == 1
        ctl.release()
        assert ctl.try_admit()
        assert ctl.active == 2

    def test_repolling_counts_each_waiting_session_once(self):
        ctl = AdmissionController(1)
        assert ctl.try_admit(waiting=3)
        assert not ctl.try_admit(waiting=2)  # two sessions start waiting
        assert not ctl.try_admit(waiting=0)  # the same two, polled again
        assert ctl.deferred == 2
        assert ctl.obs.counter("service.admission.deferred").value == 2

    def test_release_without_admit_raises(self):
        ctl = AdmissionController(1)
        with pytest.raises(ServiceError):
            ctl.release()

    def test_service_defers_but_completes_all_sessions(self):
        tenants = (
            TenantSpec("a", sessions=6, frames_per_session=2),
            TenantSpec("b", sessions=6, frames_per_session=2),
        )
        service, result = run_service(tenants, max_active_sessions=3)
        assert result.sessions_completed == 12
        assert result.frames_lost == 0
        # 12 sessions offered against 3 slots: the other 9 each wait, and
        # each counts once however often the producer polls admission.
        assert result.admission_deferred == 9
        assert service.admission.active == 0  # every admit was released


class TestEndToEnd:
    def test_multi_tenant_run_is_bit_exact_under_faults(self):
        tenants = (
            TenantSpec("alpha", sessions=4, frames_per_session=4),
            TenantSpec("beta", sessions=4, frames_per_session=4),
            TenantSpec("gamma", sessions=4, frames_per_session=4),
        )
        plan = FaultPlan(seed=5, drop_rate=0.1, corrupt_rate=0.05)
        service, result = run_service(tenants, plan, engine_cache_blocks=64)
        assert result.sessions_completed == 12
        assert result.frames_lost == 0
        for uid, job in service._frames.items():
            assert service.recovered_pixels(uid) == bytes(
                synthetic_frame(job.resolution, uid)
            )
        budget = result.cache_budgets["engine_blocks"]
        assert budget["total"] <= budget["capacity"]
        # Per-tenant latency is labeled and populated for every tenant.
        for spec in tenants:
            assert result.tenant_latency[spec.tenant_id]["count"] == 16

    def test_nonces_unique_per_tenant_across_sessions(self):
        tenants = (
            TenantSpec("a", sessions=3, frames_per_session=3),
            TenantSpec("b", sessions=3, frames_per_session=3),
        )
        plan = FaultPlan(seed=2, drop_rate=0.15)
        service, result = run_service(tenants, plan)
        by_tenant = {}
        for job in service._frames.values():
            by_tenant.setdefault(job.tenant_id, []).extend(job.nonces)
        for tenant_id, nonces in by_tenant.items():
            assert len(nonces) == len(set(nonces)), f"nonce reuse under tenant {tenant_id}"

    def test_hhe_mode_smoke(self):
        tenants = (
            TenantSpec("a", sessions=1, frames_per_session=2),
            TenantSpec("b", sessions=1, frames_per_session=2),
        )
        service, result = run_service(
            tenants, params=PASTA_MICRO, mode="hhe", n_shards=1
        )
        assert result.frames_lost == 0
        for uid, job in service._frames.items():
            assert service.recovered_pixels(uid) == bytes(
                synthetic_frame(job.resolution, uid)
            )
        prepared = result.cache_budgets["prepared_rows"]
        assert prepared["total"] <= prepared["capacity"]
        assert set(prepared["owners"]) == {"a", "b"}

    def test_load_shedding_defers_without_loss(self):
        # A tiny shard queue + slow drain forces sheds; frames still land.
        tenants = (TenantSpec("a", sessions=4, frames_per_session=4),)
        service, result = run_service(
            tenants,
            n_shards=1,
            queue_capacity=2,
            batch_frames=16,
            worker_batch=1,
            shed_put_timeout=0.001,
        )
        assert result.frames_lost == 0
        assert result.frames_recovered == 16

    def test_config_validation(self):
        spec = TenantSpec("a")
        with pytest.raises(ParameterError):
            MultiTenantConfig(tenants=())
        with pytest.raises(ParameterError):
            MultiTenantConfig(tenants=(spec, TenantSpec("a")))  # duplicate id
        with pytest.raises(ParameterError):
            MultiTenantConfig(tenants=(spec,), mode="quantum")
        with pytest.raises(ParameterError):
            MultiTenantConfig(tenants=(spec,), n_shards=0)
        with pytest.raises(ParameterError):
            MultiTenantConfig(tenants=(spec,), backoff_jitter=2.0)
        with pytest.raises(ParameterError):
            TenantSpec("")
        with pytest.raises(ParameterError):
            TenantSpec("x", sessions=0)

    def test_hhe_config_rejects_tiles_that_leave_a_partial_block(self):
        # PASTA_3 blocks hold t = 128 elements = 256 pixels: TILE8 (64
        # pixels) leaves a partial block, TILE16 (256 pixels) fills one.
        with pytest.raises(ParameterError, match=r"'cam'.*TILE8"):
            MultiTenantConfig(tenants=(TenantSpec("cam"),), params=PASTA_3, mode="hhe")
        with pytest.raises(ParameterError, match=r"'cam'.*TILE8"):
            MultiTenantConfig(
                tenants=(TenantSpec("cam", resolution=TILE16, degradation_ladder=(TILE8,)),),
                params=PASTA_3,
                mode="hhe",
            )
        MultiTenantConfig(
            tenants=(TenantSpec("cam", resolution=TILE16),), params=PASTA_3, mode="hhe"
        )
        MultiTenantConfig(tenants=(TenantSpec("cam"),), params=PASTA_3)  # symmetric


def _transcipher_calls():
    return get_registry().histogram("hhe.transcipher.seconds").count


class TestHhePacking:
    """``HheRecovery`` packs a tenant's drained frames into shared calls."""

    @pytest.fixture(scope="class")
    def rig(self):
        key = derive_tenant_key(PASTA_TOY, "packer")
        return HheRecovery(PASTA_TOY, key, b"packing", n=64), Pasta(PASTA_TOY, key)

    @staticmethod
    def _frames(cipher, uids):
        """One TILE8 frame per uid (8 PASTA_TOY blocks), encrypted under nonce uid."""
        elements = pack_frames(synthetic_frames_batch(TILE8, uids), PASTA_TOY.p)
        frames = []
        for uid, row in zip(uids, elements):
            ct = cipher.encrypt(row.tolist(), uid, allow_nonce_reuse=True)
            wire = WireFrame(uid, 0, uid, "packer", 0, TILE8, b"", 0)
            frames.append((wire, np.asarray(ct, dtype=np.int64)))
        return frames, list(elements)

    def test_packed_frames_equal_single_frame_calls(self, rig):
        recovery, cipher = rig
        frames, plain = self._frames(cipher, [11, 12, 13])
        singles = [recovery.recover_batch([frame])[0] for frame in frames]
        calls = _transcipher_calls()
        packed = recovery.recover_batch(frames)
        assert _transcipher_calls() - calls == 1
        for got, single, expected in zip(packed, singles, plain):
            assert np.array_equal(got, single)
            assert np.array_equal(got, expected)

    def test_wider_than_n_splits_into_calls_of_n_blocks(self, rig):
        recovery, cipher = rig
        assert recovery.encoder.n == 64
        frames, plain = self._frames(cipher, list(range(100, 109)))  # 72 blocks
        recovered = recovery.recover_batch(frames)
        spans = get_tracer().spans_named("hhe.transcipher")
        assert [(s.attributes["blocks"], s.attributes["frames"]) for s in spans] == [
            (64, 8), (8, 1),
        ]
        assert len(recovered) == 9
        for got, expected in zip(recovered, plain):
            assert np.array_equal(got, expected)

    def test_a_bad_frame_fails_the_batch_before_any_call(self, rig):
        recovery, cipher = rig
        frames, _ = self._frames(cipher, [21, 22])
        wire, elements = frames[1]
        with pytest.raises(ParameterError, match="full t-element blocks"):
            recovery.recover_batch([frames[0], (wire, elements[:-1])])
        assert _transcipher_calls() == 0

    def test_a_drained_batch_is_one_call(self):
        # Workers are held until all four frames sit in the shard queue, so
        # the single worker drains them as one batch of worker_batch = 4.
        gate = threading.Event()
        config = MultiTenantConfig(
            tenants=(TenantSpec("a", sessions=1, frames_per_session=4),),
            params=PASTA_MICRO,
            mode="hhe",
            n_shards=1,
            batch_frames=4,
            worker_batch=4,
        )
        service = MultiTenantService(config, FaultPlan(), worker_gate=gate)
        runner = threading.Thread(target=lambda: setattr(service, "_test_result", service.run()))
        runner.start()
        for _ in range(2000):
            if service._uplinks[0].qsize() == 4:
                break
            threading.Event().wait(0.005)
        assert service._uplinks[0].qsize() == 4
        gate.set()
        runner.join(timeout=120)
        assert not runner.is_alive()
        assert service._test_result.frames_lost == 0
        assert _transcipher_calls() == 1
        (span,) = get_tracer().spans_named("hhe.transcipher")
        assert (span.attributes["blocks"], span.attributes["frames"]) == (64, 4)
        for uid, job in service._frames.items():
            assert service.recovered_pixels(uid) == bytes(synthetic_frame(job.resolution, uid))
