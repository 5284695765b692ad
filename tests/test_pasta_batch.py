"""Batched keystream engine vs the scalar golden model (bit-exactness).

Every value the batch path produces — sampler decisions, block materials,
sampler statistics, permutation counts, matrices, keystream words — must be
word-for-word identical to the scalar reference in
:mod:`repro.pasta.cipher`. These tests enforce that, plus the LRU cache
semantics and the nonce-reuse guard that rides along in this change.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ff.sampling import RejectionSampler
from repro.pasta import (
    PASTA_4,
    PASTA_4_33,
    PASTA_TOY,
    KeystreamEngine,
    Pasta,
    batched_sequential_matrices,
    generate_block_materials,
    generate_block_materials_batch,
    get_engine,
    random_key,
)
from repro.pasta.batch import DEFAULT_CACHE_BLOCKS
from repro.pasta.matgen import generate_matrix


def _assert_materials_equal(batched, scalar):
    assert batched.params == scalar.params
    assert batched.nonce == scalar.nonce
    assert batched.counter == scalar.counter
    assert batched.stats == scalar.stats
    assert batched.permutations == scalar.permutations
    for bl, sl in zip(batched.layers, scalar.layers):
        for name in ("alpha_l", "alpha_r", "rc_l", "rc_r"):
            b, s = getattr(bl, name), getattr(sl, name)
            assert b.dtype == s.dtype
            assert [int(x) for x in b] == [int(x) for x in s]


class TestBatchedSampler:
    @given(
        st.integers(min_value=2, max_value=1 << 40),
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=200),
        st.sampled_from([0, 1]),
    )
    def test_candidates_batch_matches_scalar_decisions(self, p, words, min_value):
        sampler = RejectionSampler(p)
        values, ok = sampler.candidates_batch(np.array(words, dtype=np.uint64), min_value)
        for i, word in enumerate(words):
            value, accepted = sampler.candidate(word, min_value)
            assert int(values[i]) == value
            assert bool(ok[i]) == accepted

    @given(
        st.integers(min_value=2, max_value=1 << 40),
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=8, max_size=300),
        st.sampled_from([0, 1]),
    )
    def test_stats_match_scalar_sample(self, p, words, min_value):
        """Accept/reject statistics equal the scalar sampler's word-for-word."""
        sampler = RejectionSampler(p)
        values, ok = sampler.candidates_batch(np.array(words, dtype=np.uint64), min_value)
        n_accepted = int(np.count_nonzero(ok))
        if n_accepted == 0:
            return
        count = min(n_accepted, 5)
        scalar_values, stats = sampler.sample(iter(words), count, min_value)
        idx = np.flatnonzero(ok)[:count]
        assert [int(v) for v in values[idx]] == scalar_values
        assert stats.accepted == count
        assert stats.rejected == int(idx[-1]) + 1 - count


class TestBatchedMaterials:
    @pytest.mark.parametrize("params", [PASTA_TOY, PASTA_4, PASTA_4_33])
    def test_bit_exact_with_scalar(self, params):
        counters = [0, 1, 5]
        batched = generate_block_materials_batch(params, nonce=3, counters=counters)
        for materials, counter in zip(batched, counters):
            _assert_materials_equal(materials, generate_block_materials(params, 3, counter))

    def test_empty_counter_list(self):
        assert generate_block_materials_batch(PASTA_TOY, 0, []) == []

    def test_batch_size_does_not_change_values(self):
        alone = generate_block_materials_batch(PASTA_TOY, 1, [4])[0]
        in_batch = generate_block_materials_batch(PASTA_TOY, 1, [2, 4, 9])[1]
        _assert_materials_equal(in_batch, alone)


class TestBatchedMatrices:
    @pytest.mark.parametrize("params", [PASTA_TOY, PASTA_4_33])
    def test_matches_scalar_generate_matrix(self, params):
        materials = generate_block_materials_batch(params, 0, [0, 1])
        alphas = np.stack([m.layers[0].alpha_l for m in materials])
        batch = batched_sequential_matrices(params, alphas)
        for n, m in enumerate(materials):
            expected = generate_matrix(params.field, m.layers[0].alpha_l)
            assert np.array_equal(np.asarray(batch[n]), np.asarray(expected))


class TestKeystreamEngine:
    def test_keystream_bit_exact(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        engine = KeystreamEngine(PASTA_TOY)
        ks = engine.keystream_blocks(cipher.key, nonce=7, counter0=2, n_blocks=5)
        assert ks.shape == (5, PASTA_TOY.t)
        for i in range(5):
            expected = cipher.keystream_block(7, 2 + i)
            assert [int(x) for x in ks[i]] == [int(x) for x in expected]

    def test_keystream_object_dtype_params(self):
        key = random_key(PASTA_4_33)
        cipher = Pasta(PASTA_4_33, key)
        engine = KeystreamEngine(PASTA_4_33)
        ks = engine.keystream_blocks(key, nonce=0, counter0=0, n_blocks=2)
        for i in range(2):
            expected = cipher.keystream_block(0, i)
            assert [int(x) for x in ks[i]] == [int(x) for x in expected]

    def test_zero_blocks(self):
        engine = KeystreamEngine(PASTA_TOY)
        assert engine.keystream_blocks(random_key(PASTA_TOY), 0, 0, 0).shape == (0, PASTA_TOY.t)

    def test_pasta_keystream_blocks_api(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        ks = cipher.keystream_blocks(nonce=1, counter0=0, n_blocks=3)
        for i in range(3):
            assert [int(x) for x in ks[i]] == [int(x) for x in cipher.keystream_block(1, i)]

    def test_cache_hits_and_misses(self):
        engine = KeystreamEngine(PASTA_TOY, cache_size=8)
        key = random_key(PASTA_TOY)
        engine.keystream_blocks(key, 0, 0, 4)
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 4, 4)
        engine.keystream_blocks(key, 0, 0, 4)
        info = engine.cache_info()
        assert (info.hits, info.misses) == (4, 4)
        engine.keystream_blocks(key, 0, 2, 4)  # counters 2-5: two hits, two misses
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size) == (6, 6, 6)

    def test_cache_eviction_lru(self):
        engine = KeystreamEngine(PASTA_TOY, cache_size=2)
        engine.materials(0, [0])
        engine.materials(0, [1])
        engine.materials(0, [0])  # refresh 0 -> 1 is now least recent
        engine.materials(0, [2])  # evicts 1
        assert engine.cache_info().size == 2
        engine.materials(0, [0, 2])
        assert engine.cache_info().hits >= 3
        misses_before = engine.cache_info().misses
        engine.materials(0, [1])  # was evicted -> re-derived
        assert engine.cache_info().misses == misses_before + 1

    def test_cache_size_zero_disables_caching(self):
        engine = KeystreamEngine(PASTA_TOY, cache_size=0)
        engine.materials(0, [0])
        engine.materials(0, [0])
        info = engine.cache_info()
        assert info.size == 0
        assert info.misses == 2

    def test_cached_results_stay_bit_exact(self, toy_key):
        """A warm cache must return the same keystream as a cold engine."""
        cipher = Pasta(PASTA_TOY, toy_key)
        warm = KeystreamEngine(PASTA_TOY, cache_size=16)
        first = warm.keystream_blocks(cipher.key, 5, 0, 4)
        second = warm.keystream_blocks(cipher.key, 5, 0, 4)
        assert np.array_equal(np.asarray(first), np.asarray(second))
        cold = KeystreamEngine(PASTA_TOY, cache_size=0)
        assert np.array_equal(
            np.asarray(cold.keystream_blocks(cipher.key, 5, 0, 4)), np.asarray(first)
        )

    def test_matrix_accessors_match_scalar(self):
        engine = KeystreamEngine(PASTA_TOY)
        scalar = generate_block_materials(PASTA_TOY, 1, 2)
        for layer in range(PASTA_TOY.affine_layers):
            ml = engine.matrix_l(1, 2, layer)
            mr = engine.matrix_r(1, 2, layer)
            assert np.array_equal(
                np.asarray(ml), np.asarray(generate_matrix(PASTA_TOY.field, scalar.layers[layer].alpha_l))
            )
            assert np.array_equal(
                np.asarray(mr), np.asarray(generate_matrix(PASTA_TOY.field, scalar.layers[layer].alpha_r))
            )

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ParameterError):
            KeystreamEngine(PASTA_TOY, cache_size=-1)

    def test_get_engine_shared_per_params(self):
        assert get_engine(PASTA_TOY) is get_engine(PASTA_TOY)
        assert get_engine(PASTA_TOY) is not get_engine(PASTA_4)
        assert get_engine(PASTA_TOY).cache_size == DEFAULT_CACHE_BLOCKS

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=6))
    def test_keystream_hypothesis(self, counter0, n_blocks):
        key = random_key(PASTA_TOY)
        cipher = Pasta(PASTA_TOY, key)
        engine = KeystreamEngine(PASTA_TOY, cache_size=0)
        ks = engine.keystream_blocks(key, 11, counter0, n_blocks)
        for i in range(n_blocks):
            expected = cipher.keystream_block(11, counter0 + i)
            assert [int(x) for x in ks[i]] == [int(x) for x in expected]


class TestWordStreamGrowth:
    """A lane the pre-squeeze leaves short grows the buffer; nothing else moves."""

    @pytest.mark.parametrize("params", [PASTA_TOY, PASTA_4])
    def test_grow_path_matches_full_demand_presqueeze(self, params, monkeypatch):
        from repro.pasta import batch

        pairs = [(3, c) for c in range(5)] + [(9, 0), (9, 7)]
        demand = batch._presqueeze_words(params)
        monkeypatch.setattr(batch, "_presqueeze_words", lambda _params: 10 * demand)
        full_values, full_rejected, full_stream = batch._derive_layer_arrays(params, pairs)
        monkeypatch.setattr(batch, "_presqueeze_words", lambda _params: 1)
        grown_values, grown_rejected, grown_stream = batch._derive_layer_arrays(params, pairs)

        assert grown_stream.blocks > 1  # started at one block, so it grew
        assert full_stream.blocks == -(-10 * demand // full_stream.rate_words)  # never grew
        for full_layer, grown_layer in zip(full_values, grown_values):
            for full, grown in zip(full_layer, grown_layer):
                assert np.array_equal(full, grown)
        assert np.array_equal(full_rejected, grown_rejected)
        assert np.array_equal(full_stream.pos, grown_stream.pos)
        for lane, (nonce, counter) in enumerate(pairs):
            scalar = generate_block_materials(params, nonce, counter)
            assert int(grown_rejected[lane]) == scalar.stats.rejected


class TestKeystreamTelemetry:
    @pytest.mark.parametrize("cache_size", [0, 8])
    def test_span_reports_xof_volume(self, cache_size):
        from repro.obs import get_tracer

        key = random_key(PASTA_TOY)
        pairs = [(2, 0), (2, 1), (5, 3), (6, 0)]
        engine = KeystreamEngine(PASTA_TOY, cache_size=cache_size)
        engine.keystream_pairs(key, pairs)
        engine.keystream_pairs(key, pairs)
        cold, second = get_tracer().spans_named("pasta.keystream")

        materials = [generate_block_materials(PASTA_TOY, n, c) for n, c in pairs]
        words = sum(m.stats.accepted + m.stats.rejected for m in materials)
        assert cold.attributes["xof_words"] == words
        assert cold.attributes["xof_permutations"] == sum(m.permutations for m in materials)
        # A warm cache serves the second call without touching the XOF.
        expected_second = (0, 0) if cache_size else (words, cold.attributes["xof_permutations"])
        got_second = (second.attributes["xof_words"], second.attributes["xof_permutations"])
        assert got_second == expected_second


class TestConcurrentAccess:
    """The shared engine is hit from service worker threads concurrently.

    Before the lock, interleaved ``move_to_end`` / ``popitem`` calls could
    corrupt the LRU order, raise KeyError mid-eviction, or lose counter
    increments. The regression: many barrier-started threads hammering
    overlapping schedules must produce exact keystreams and consistent
    cache accounting.
    """

    def test_concurrent_keystreams_are_exact(self):
        import threading

        key = random_key(PASTA_TOY, seed=b"threads")
        cipher = Pasta(PASTA_TOY, key)
        engine = KeystreamEngine(PASTA_TOY, cache_size=8)  # smaller than the
        # working set, so eviction churns while other threads look up
        n_threads = 8
        schedules = [
            [(7, (i + k) % 12) for k in range(6)] for i in range(n_threads)
        ]
        expected = {
            pair: [int(x) for x in cipher.keystream_block(*pair)]
            for sched in schedules for pair in sched
        }
        barrier = threading.Barrier(n_threads)
        failures = []

        def worker(sched):
            barrier.wait()
            try:
                for _ in range(5):
                    ks = engine.keystream_pairs(key, sched)
                    for row, pair in zip(ks, sched):
                        if [int(x) for x in row] != expected[pair]:
                            failures.append((pair, [int(x) for x in row]))
            except Exception as exc:  # KeyError from racing eviction, etc.
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in schedules]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not failures, failures[:3]

        info = engine.cache_info()
        total_lookups = sum(len(s) for s in schedules) * 5
        assert info.hits + info.misses == total_lookups
        assert 0 < info.size <= info.maxsize == 8

    def test_concurrent_get_engine_returns_one_instance(self):
        import threading

        from repro.pasta.batch import _ENGINES
        from repro.pasta.params import PastaParams

        params = PASTA_TOY
        fresh = PastaParams(
            name="toy-threads", t=params.t, rounds=params.rounds, p=params.p, secure=False
        )
        _ENGINES.pop(fresh, None)
        barrier = threading.Barrier(8)
        seen = []

        def worker():
            barrier.wait()
            seen.append(get_engine(fresh))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        _ENGINES.pop(fresh, None)
        assert len(seen) == 8 and all(e is seen[0] for e in seen)


class TestNonceReuseGuard:
    def test_reuse_raises(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        cipher.encrypt(list(range(PASTA_TOY.t)), nonce=1)
        with pytest.raises(ParameterError, match="nonce"):
            cipher.encrypt(list(range(PASTA_TOY.t)), nonce=1)

    def test_distinct_nonces_fine(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        cipher.encrypt([1, 2, 3], nonce=1)
        cipher.encrypt([1, 2, 3], nonce=2)

    def test_override_reproduces_ciphertext(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        first = cipher.encrypt([5, 6, 7], nonce=9)
        second = cipher.encrypt([5, 6, 7], nonce=9, allow_nonce_reuse=True)
        assert [int(x) for x in first] == [int(x) for x in second]

    def test_decrypt_not_guarded(self, toy_key):
        cipher = Pasta(PASTA_TOY, toy_key)
        ct = cipher.encrypt([1, 2, 3], nonce=4)
        assert [int(x) for x in cipher.decrypt(ct, 4)] == [1, 2, 3]
        assert [int(x) for x in cipher.decrypt(ct, 4)] == [1, 2, 3]

    def test_guard_is_per_instance(self, toy_key):
        Pasta(PASTA_TOY, toy_key).encrypt([1], nonce=3)
        Pasta(PASTA_TOY, toy_key).encrypt([1], nonce=3)

    def test_encrypt_block_not_guarded(self, toy_key):
        """The low-level block API stays guard-free (HHE tests drive it)."""
        cipher = Pasta(PASTA_TOY, toy_key)
        msg = list(range(PASTA_TOY.t))
        ct1 = cipher.encrypt_block(msg, 8, 0)
        ct2 = cipher.encrypt_block(msg, 8, 0)
        assert [int(x) for x in ct1] == [int(x) for x in ct2]
