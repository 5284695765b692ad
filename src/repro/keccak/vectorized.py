"""Batched SHAKE: N independent XOF lanes squeezed block by block in lockstep.

The batched keystream engine (:mod:`repro.pasta.batch`) needs one SHAKE128
word stream per block it derives. :class:`BatchedShake` keeps one
``hashlib`` SHAKE object per lane and serves a bulk squeeze of ``b`` rate
blocks as one ``(N, b * rate_words)`` ``uint64`` matrix: each lane asks
hashlib for a longer prefix of its output (``digest(n)`` is
prefix-consistent) and keeps the new part, and the bytes of all lanes are
decoded with one ``np.frombuffer``. Row ``n`` is exactly
``shake128(seeds[n]).words()``; the lanes only share *when* they are
squeezed, never what each one reads. This is the software analogue of the
paper's XOF unit feeding rejection sampling (Sec. IV-B): the permutation
runs in hashlib's C code, and the batch axis is what the sampler and the
affine layers vectorize over.

:attr:`BatchedShake.permutation_count` is the sponge's count per lane: the
seeds fit in one rate block, so the absorb permutation exposes the first
block and every later block costs one more. The numpy lockstep sponge in
``tests/keccak_batch_reference.py`` pins both, byte for byte and
permutation for permutation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.keccak.shake import _HASHLIB_SHAKE, SHAKE128_RATE_BYTES, SHAKE256_RATE_BYTES

__all__ = [
    "BatchedShake",
    "batched_shake128",
]


class BatchedShake:
    """N independent SHAKE XOF streams squeezed in lockstep.

    Each row is seeded with its own message, which must fit in a single
    rate block (true for every PASTA per-block seed, which is 43 bytes
    against SHAKE128's 168-byte rate). Row ``n``'s word stream is bit-exact
    with ``Shake(rate_bytes, seeds[n]).words()``.

    Parameters
    ----------
    rate_bytes:
        Sponge rate: 168 for SHAKE128, 136 for SHAKE256.
    seeds:
        One short byte string per batch row.
    """

    def __init__(self, rate_bytes: int, seeds: Sequence[bytes]):
        if rate_bytes not in _HASHLIB_SHAKE:
            raise ValueError(
                f"SHAKE rate must be {SHAKE128_RATE_BYTES} or {SHAKE256_RATE_BYTES} "
                f"bytes, got {rate_bytes}"
            )
        if not seeds:
            raise ValueError("at least one seed is required")
        for i, seed in enumerate(seeds):
            if len(seed) >= rate_bytes:
                raise ValueError(
                    f"seed {i} has {len(seed)} bytes; single-block absorb requires"
                    f" < {rate_bytes}"
                )
        self.rate_bytes = rate_bytes
        self.rate_words = rate_bytes // 8
        self.n = len(seeds)
        new = _HASHLIB_SHAKE[rate_bytes]
        self._lanes = [new(seed) for seed in seeds]
        self._emitted_blocks = 0

    @property
    def permutation_count(self) -> int:
        """Keccak-f permutations each lane's sponge has performed so far."""
        return max(1, self._emitted_blocks)

    def squeeze_words(self, blocks: int) -> np.ndarray:
        """Return the next ``(N, blocks * rate_words)`` 64-bit output words.

        ``squeeze_words(a)`` then ``squeeze_words(b)`` returns the same
        words as ``squeeze_words(a + b)``. The result is read-only.
        """
        if blocks < 0:
            raise ValueError(f"cannot squeeze a negative number of blocks ({blocks})")
        start = self._emitted_blocks * self.rate_bytes
        end = start + blocks * self.rate_bytes
        raw = b"".join([memoryview(lane.digest(end))[start:] for lane in self._lanes])
        self._emitted_blocks += blocks
        return np.frombuffer(raw, dtype="<u8").reshape(self.n, blocks * self.rate_words)


def batched_shake128(seeds: Sequence[bytes]) -> BatchedShake:
    """SHAKE128 lockstep batch (rate 1344 bits — PASTA's XOF)."""
    return BatchedShake(SHAKE128_RATE_BYTES, seeds)
