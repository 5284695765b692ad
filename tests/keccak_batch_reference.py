"""The numpy lockstep sponge: N Keccak-f[1600] states permuted at once.

:func:`keccak_f1600_batch` is the FIPS 202 permutation expressed over a
``(N, 25)`` ``uint64`` array: every xor, rotation and chi-step broadcasts
across the batch axis, so one pass through the 24 rounds advances N
independent sponges. :class:`ReferenceBatchedShake` absorbs N
single-rate-block seeds into such states and squeezes them one rate block
at a time. Tests hold :class:`repro.keccak.vectorized.BatchedShake` (one
``hashlib`` object per lane) to this reference in bytes and permutation
count, and the reference itself to the scalar
:func:`repro.keccak.permutation.keccak_f1600` and to ``hashlib``.

Lane layout matches FIPS 202: index ``x + 5*y`` along the last axis, so a
``(N, 25)`` array reshaped to ``(N, 5, 5)`` is indexed ``[lane, y, x]``.
"""

from typing import List, Sequence

import numpy as np

from repro.keccak.permutation import RHO_OFFSETS, ROUND_CONSTANTS

_RC = np.array(ROUND_CONSTANTS, dtype=np.uint64)

# rho+pi as one gather: target lane i takes source lane _PI_SRC[i] rotated
# left by _PI_ROT[i].  b[y + 5*((2x+3y)%5)] = rotl(a[x+5y], rho[x+5y]).
_PI_SRC = np.zeros(25, dtype=np.intp)
_PI_ROT = np.zeros(25, dtype=np.uint64)
for _x in range(5):
    for _y in range(5):
        _src = _x + 5 * _y
        _dst = _y + 5 * ((2 * _x + 3 * _y) % 5)
        _PI_SRC[_dst] = _src
        _PI_ROT[_dst] = RHO_OFFSETS[_src]
# Complementary right-shift counts; (64 - r) % 64 keeps the r = 0 lane legal
# (shifting a uint64 by 64 is undefined in the underlying C loop).
_PI_ROT_C = (np.uint64(64) - _PI_ROT) % np.uint64(64)

_ONE = np.uint64(1)
_SIXTY_THREE = np.uint64(63)

# Cyclic x-index gathers (cheaper than np.roll's Python-side dispatch).
_X_M1 = np.array([(x - 1) % 5 for x in range(5)], dtype=np.intp)
_X_P1 = np.array([(x + 1) % 5 for x in range(5)], dtype=np.intp)
_X_P2 = np.array([(x + 2) % 5 for x in range(5)], dtype=np.intp)


def _rotl_batch(lanes: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-lane rotate-left with precomputed (left, right) shift counts."""
    return (lanes << left) | (lanes >> right)


def keccak_f1600_batch(states: np.ndarray) -> np.ndarray:
    """Apply Keccak-f[1600] to every row of a ``(N, 25)`` uint64 array.

    Returns a new array; the input is not modified. Row ``n`` of the result
    equals ``keccak_f1600(states[n])`` exactly.
    """
    s = np.asarray(states, dtype=np.uint64)
    if s.ndim != 2 or s.shape[1] != 25:
        raise ValueError(f"batched Keccak state must have shape (N, 25), got {s.shape}")
    s = s.copy()
    n = s.shape[0]
    grid = s.reshape(n, 5, 5)  # [lane, y, x]
    for rc in _RC:
        # theta: column parities, broadcast back over y.
        c = grid[:, 0] ^ grid[:, 1] ^ grid[:, 2] ^ grid[:, 3] ^ grid[:, 4]  # (N, 5) by x
        d = c[:, _X_M1] ^ _rotl_batch(c[:, _X_P1], _ONE, _SIXTY_THREE)
        grid ^= d[:, None, :]
        # rho + pi: one gather + per-lane rotation.
        b = _rotl_batch(s[:, _PI_SRC], _PI_ROT, _PI_ROT_C)
        # chi: row-wise nonlinear step along x.
        bg = b.reshape(n, 5, 5)
        s = (bg ^ (~bg[:, :, _X_P1] & bg[:, :, _X_P2])).reshape(n, 25)
        # iota
        s[:, 0] ^= rc
        grid = s.reshape(n, 5, 5)
    return s


def keccak_f1600_many(states: Sequence[Sequence[int]]) -> List[List[int]]:
    """Batch-permute plain Python lane lists."""
    arr = np.array(
        [[lane & 0xFFFFFFFFFFFFFFFF for lane in state] for state in states], dtype=np.uint64
    )
    return [[int(lane) for lane in row] for row in keccak_f1600_batch(arr)]


class ReferenceBatchedShake:
    """N SHAKE sponges (suffix 0x1F) squeezed in lockstep through numpy.

    Each seed must fit in one rate block. The first
    :meth:`squeeze_words_block` returns the words the absorb permutation
    exposed; each later call costs one more batched permutation, the
    cadence of the scalar sponge.
    """

    def __init__(self, rate_bytes: int, seeds: Sequence[bytes]):
        if not 0 < rate_bytes < 200 or rate_bytes % 8 != 0:
            raise ValueError(f"rate must be a positive multiple of 8 below 200, got {rate_bytes}")
        if not seeds:
            raise ValueError("at least one seed is required")
        self.rate_bytes = rate_bytes
        self.rate_words = rate_bytes // 8
        self.n = len(seeds)
        blocks = np.zeros((self.n, 200), dtype=np.uint8)
        for i, seed in enumerate(seeds):
            if len(seed) >= rate_bytes:
                raise ValueError(
                    f"seed {i} has {len(seed)} bytes; single-block absorb requires"
                    f" < {rate_bytes}"
                )
            blocks[i, : len(seed)] = np.frombuffer(seed, dtype=np.uint8)
            blocks[i, len(seed)] = 0x1F  # SHAKE domain suffix + pad10*1 start
            blocks[i, rate_bytes - 1] ^= 0x80  # pad10*1 end
        # Absorb = xor into the all-zero state, then one permutation.
        self._state = keccak_f1600_batch(blocks.view("<u8").reshape(self.n, 25))
        self.permutation_count = 1
        self._emitted_blocks = 1

    def squeeze_words_block(self) -> np.ndarray:
        """Return the next ``(N, rate_words)`` matrix of 64-bit output words."""
        if self._emitted_blocks > self.permutation_count:
            self._state = keccak_f1600_batch(self._state)
            self.permutation_count += 1
        self._emitted_blocks += 1
        return self._state[:, : self.rate_words].copy()
