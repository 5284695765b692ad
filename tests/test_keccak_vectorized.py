"""Batched SHAKE vs the numpy lockstep sponge vs hashlib (ground truth).

The batched engine is only admissible because :class:`BatchedShake` (one
``hashlib`` object per lane) yields, lane for lane, the bytes and the
permutation count of a real sponge. The reference here is the numpy
lockstep sponge in ``keccak_batch_reference.py``, itself pinned to the
scalar :func:`repro.keccak.permutation.keccak_f1600` (which the suite
cross-checks against FIPS 202 vectors) and to ``hashlib``'s SHAKE, over
hypothesis-generated batch sizes and messages.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.keccak import (
    SHAKE128_RATE_BYTES,
    SHAKE256_RATE_BYTES,
    BatchedShake,
    Shake,
    batched_shake128,
    keccak_f1600,
    shake128,
)

from keccak_batch_reference import ReferenceBatchedShake, keccak_f1600_batch, keccak_f1600_many

_U64 = (1 << 64) - 1
_HASHLIB = {SHAKE128_RATE_BYTES: hashlib.shake_128, SHAKE256_RATE_BYTES: hashlib.shake_256}


def _scalar_rows(states):
    return [keccak_f1600(list(row)) for row in states]


def _reference_words(rate_bytes, seeds, blocks):
    """``(N, blocks * rate_words)`` words and permutation count of the numpy sponge."""
    ref = ReferenceBatchedShake(rate_bytes, seeds)
    chunks = [ref.squeeze_words_block() for _ in range(blocks)]
    words = np.concatenate(chunks, axis=1) if chunks else np.empty((len(seeds), 0), np.uint64)
    return words, ref.permutation_count


class TestBatchPermutation:
    def test_zero_state_matches_scalar(self):
        batch = keccak_f1600_batch(np.zeros((1, 25), dtype=np.uint64))
        assert [int(x) for x in batch[0]] == keccak_f1600([0] * 25)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            keccak_f1600_batch(np.zeros((25,), dtype=np.uint64))
        with pytest.raises(ValueError):
            keccak_f1600_batch(np.zeros((2, 24), dtype=np.uint64))

    def test_input_not_mutated(self):
        states = np.arange(50, dtype=np.uint64).reshape(2, 25)
        before = states.copy()
        keccak_f1600_batch(states)
        assert np.array_equal(states, before)

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=_U64), min_size=25, max_size=25),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_scalar_lane_for_lane(self, states):
        batch = keccak_f1600_batch(np.array(states, dtype=np.uint64))
        expected = _scalar_rows(states)
        for n in range(len(states)):
            assert [int(x) for x in batch[n]] == expected[n]

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=_U64), min_size=25, max_size=25),
            min_size=1,
            max_size=4,
        )
    )
    def test_many_wrapper(self, states):
        assert keccak_f1600_many(states) == _scalar_rows(states)

    def test_batch_rows_independent(self):
        """Permuting a row alone or inside a batch gives the same result."""
        rng = np.random.default_rng(7)
        states = rng.integers(0, 1 << 64, size=(6, 25), dtype=np.uint64)
        full = keccak_f1600_batch(states)
        for n in range(6):
            alone = keccak_f1600_batch(states[n : n + 1])
            assert np.array_equal(full[n], alone[0])


class TestBatchedShake:
    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BatchedShake(SHAKE128_RATE_BYTES, [])

    def test_rejects_long_seed(self):
        with pytest.raises(ValueError):
            BatchedShake(SHAKE128_RATE_BYTES, [b"x" * SHAKE128_RATE_BYTES])

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BatchedShake(7, [b"x"])

    def test_rejects_rate_hashlib_cannot_serve(self):
        """SHA3-512's rate is a multiple of 8 below 200 but no SHAKE rate."""
        with pytest.raises(ValueError):
            BatchedShake(72, [b"x"])
        with pytest.raises(ValueError):
            Shake(72)

    def test_rejects_negative_blocks(self):
        with pytest.raises(ValueError):
            batched_shake128([b"x"]).squeeze_words(-1)

    @given(
        st.lists(st.binary(min_size=0, max_size=SHAKE128_RATE_BYTES - 1), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_scalar_word_stream(self, seeds, blocks):
        got = batched_shake128(seeds).squeeze_words(blocks)
        for n, seed in enumerate(seeds):
            words = shake128(seed).words()
            expected = [next(words) for _ in range(got.shape[1])]
            assert [int(w) for w in got[n]] == expected

    @given(st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=4))
    def test_matches_hashlib_shake128(self, seeds):
        """Squeezed bytes equal hashlib's SHAKE128 digest for every lane."""
        words = batched_shake128(seeds).squeeze_words(2)
        for n, seed in enumerate(seeds):
            raw = words[n].astype("<u8").tobytes()
            assert raw == hashlib.shake_128(seed).digest(len(raw))

    def test_permutation_cadence_matches_scalar(self):
        """One permutation per 21-word block, absorb included — the exact
        count the scalar sponge reports after consuming the same words."""
        batch = batched_shake128([b"a", b"b"])
        assert batch.permutation_count == 1
        batch.squeeze_words(1)
        assert batch.permutation_count == 1  # absorb permutation exposed first
        batch.squeeze_words(1)
        assert batch.permutation_count == 2

        scalar = shake128(b"a")
        words = scalar.words()
        for _ in range(2 * batch.rate_words):
            next(words)
        assert scalar.permutation_count == batch.permutation_count

    @given(
        st.sampled_from([SHAKE128_RATE_BYTES, SHAKE256_RATE_BYTES]),
        st.data(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_uneven_squeezes_match_reference_and_hashlib(self, rate, data, a, b):
        """``squeeze_words(a)`` then ``(b)`` equals ``squeeze_words(a + b)``,
        the numpy sponge and hashlib, in bytes and permutation count."""
        seeds = data.draw(
            st.lists(st.binary(min_size=0, max_size=rate - 1), min_size=1, max_size=8)
        )
        split = BatchedShake(rate, seeds)
        first = split.squeeze_words(a)
        second = split.squeeze_words(b)
        whole = BatchedShake(rate, seeds)
        got = whole.squeeze_words(a + b)
        assert got.shape == (len(seeds), (a + b) * rate // 8)
        assert np.array_equal(np.concatenate([first, second], axis=1), got)

        expected, reference_count = _reference_words(rate, seeds, a + b)
        assert np.array_equal(got, expected)
        assert split.permutation_count == whole.permutation_count == reference_count
        for n, seed in enumerate(seeds):
            raw = got[n].astype("<u8").tobytes()
            assert raw == _HASHLIB[rate](seed).digest(len(raw))
            scalar = Shake(rate, seed)
            scalar.read(len(raw))
            assert scalar.permutation_count == reference_count


class TestScalarAgainstHashlib:
    """Anchor the scalar reference itself to hashlib under hypothesis."""

    @given(st.binary(min_size=0, max_size=500), st.integers(min_value=1, max_value=300))
    def test_shake128(self, message, out_len):
        assert shake128(message).read(out_len) == hashlib.shake_128(message).digest(out_len)
