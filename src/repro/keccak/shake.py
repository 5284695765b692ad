"""SHAKE128 / SHAKE256 extendable-output functions.

:class:`Shake` takes its output bytes from :mod:`hashlib` (``shake_128`` /
``shake_256``) through a read-ahead buffer: a read past the buffer asks
hashlib for a longer prefix of the same output stream (``digest(n)`` is
prefix-consistent), keeps it from the current position on, and at least
doubles the length asked for each time, so a stream of small reads costs
amortized linear time. The bytes are those of the in-repo sponge model,
:class:`repro.keccak.sponge.KeccakSponge` with the XOF suffix 0x1F, which
stays the paper's model of the permutation and the substrate of the
hardware model; ``tests/test_keccak.py`` pins the two together byte for
byte and permutation for permutation.

:attr:`Shake.permutation_count` is the sponge's exact count, worked out
arithmetically: one per full absorbed block, then, once squeezing starts,
one per output block begun (at least one: the padded final block).
:meth:`Shake.words` exposes the output as a stream of 64-bit little-endian
words — exactly the granularity at which the paper's hardware squeezes the
state (21 words per permutation at rate 1344 bits).
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from repro.keccak.sponge import KeccakSponge

SHAKE128_RATE_BYTES = 168  # 1344-bit rate -> 21 64-bit words per squeeze
SHAKE256_RATE_BYTES = 136

_HASHLIB_SHAKE = {
    SHAKE128_RATE_BYTES: hashlib.shake_128,
    SHAKE256_RATE_BYTES: hashlib.shake_256,
}


class Shake:
    """Incremental SHAKE XOF (``rate_bytes`` 168 for SHAKE128, 136 for SHAKE256)."""

    def __init__(self, rate_bytes: int, data: bytes = b""):
        if rate_bytes not in _HASHLIB_SHAKE:
            raise ValueError(
                f"SHAKE rate must be {SHAKE128_RATE_BYTES} or {SHAKE256_RATE_BYTES} "
                f"bytes, got {rate_bytes}"
            )
        self.rate_bytes = rate_bytes
        self._hash = _HASHLIB_SHAKE[rate_bytes]()
        self._absorbed = 0
        self._squeezing = False
        #: Output bytes from stream offset ``_base`` on; ``_pos`` indexes it.
        self._buffer = b""
        self._base = 0
        self._pos = 0
        if data:
            self.absorb(data)

    def absorb(self, data: bytes) -> None:
        if self._squeezing:
            raise RuntimeError("cannot absorb after squeezing has started")
        self._hash.update(data)
        self._absorbed += len(data)

    def read(self, count: int) -> bytes:
        """Squeeze ``count`` bytes (finalizes on first call)."""
        if count < 0:
            raise ValueError(f"cannot read a negative number of bytes ({count})")
        self._squeezing = True
        start = self._pos
        end = start + count
        if end > len(self._buffer):
            position = self._base + start
            length = max(position + count, 2 * (self._base + len(self._buffer)))
            self._buffer = self._hash.digest(length)[position:]
            self._base = position
            start, end = 0, count
        self._pos = end
        return self._buffer[start:end]

    def words(self) -> Iterator[int]:
        """Infinite stream of 64-bit little-endian output words."""
        while True:
            yield int.from_bytes(self.read(8), "little")

    @property
    def permutation_count(self) -> int:
        """Keccak-f permutations the sponge has performed so far (absorb + squeeze)."""
        rate = self.rate_bytes
        if not self._squeezing:
            return self._absorbed // rate
        squeezed = self._base + self._pos
        return self._absorbed // rate + max(1, -(-squeezed // rate))

    @property
    def words_per_permutation(self) -> int:
        return self.rate_bytes // 8


def shake128(data: bytes = b"") -> Shake:
    """SHAKE128 instance (rate 1344 bits, as used by PASTA)."""
    return Shake(SHAKE128_RATE_BYTES, data)


def shake256(data: bytes = b"") -> Shake:
    """SHAKE256 instance (rate 1088 bits)."""
    return Shake(SHAKE256_RATE_BYTES, data)


def sha3_256(data: bytes) -> bytes:
    """SHA3-256 digest (used only for cross-validating the permutation)."""
    sponge = KeccakSponge(136, domain_suffix=0x06)
    sponge.absorb(data)
    return sponge.squeeze(32)


def sha3_512(data: bytes) -> bytes:
    """SHA3-512 digest (used only for cross-validating the permutation)."""
    sponge = KeccakSponge(72, domain_suffix=0x06)
    sponge.absorb(data)
    return sponge.squeeze(64)
