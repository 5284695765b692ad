"""Deterministic randomness for the FHE substrate, drawn from SHAKE256.

Keeping the sampler inside the repository (instead of ``random``/``secrets``)
makes every FHE test and example reproducible bit-for-bit. This is a
*functional* sampler for a research model — not a hardened CSPRNG
deployment.

Each sampler reads its bytes from :class:`repro.keccak.shake.Shake` in a
few large reads and decodes them in bulk (numpy bit fields for the ternary
and binomial samplers; one Python int per candidate for ``uniform_mod``,
whose BFV moduli are hundreds of bits wide), but it consumes exactly the bytes
the per-coefficient definition would: the same outputs, and the stream left
at the same position. ``tests/rng_reference.py`` keeps that per-coefficient
definition and the tests hold the two equal.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ParameterError
from repro.keccak.shake import shake256

#: The four 2-bit fields of a byte, lowest first.
_TRIT_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


def _require_non_negative(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ParameterError(f"{name} must be non-negative, got {value}")


class PolyRng:
    """Seeded sampler for the polynomial distributions BFV needs."""

    def __init__(self, seed: bytes):
        self._shake = shake256(b"repro-fhe-rng|" + seed)

    def uniform_mod(self, modulus: int, count: int) -> List[int]:
        """Uniform integers in [0, modulus) by rejection sampling.

        Each candidate is ``nbytes`` little-endian bytes, accepted below the
        largest multiple of ``modulus`` that fits. A round reads one
        candidate per value still missing, so it can never read past the
        candidate that completes the output.
        """
        if modulus < 1:
            raise ParameterError(f"modulus must be positive, got {modulus}")
        _require_non_negative(count=count)
        nbytes = (modulus.bit_length() + 7) // 8 + 1
        bound = (1 << (8 * nbytes)) // modulus * modulus
        out: List[int] = []
        while len(out) < count:
            data = self._shake.read((count - len(out)) * nbytes)
            values = (
                int.from_bytes(data[i : i + nbytes], "little")
                for i in range(0, len(data), nbytes)
            )
            out += [value % modulus for value in values if value < bound]
        return out

    def ternary(self, count: int) -> List[int]:
        """Uniform ternary secrets in {-1, 0, 1}.

        Each byte gives four 2-bit symbols, lowest first; the symbol 3 is
        rejected for uniformity. A round reads ``ceil(missing / 4)`` bytes:
        fewer could not complete the output, so none of them is read past
        the byte that does.
        """
        _require_non_negative(count=count)
        out: List[int] = []
        while len(out) < count:
            missing = count - len(out)
            data = np.frombuffer(self._shake.read(-(-missing // 4)), dtype=np.uint8)
            trits = ((data[:, None] >> _TRIT_SHIFTS) & 0x3).ravel()
            out += (trits[trits < 3][:missing].astype(np.int64) - 1).tolist()
        return out

    def centered_binomial(self, eta: int, count: int) -> List[int]:
        """Centered binomial noise with parameter ``eta`` (variance eta/2).

        Each sample reads ``ceil(2 eta / 8)`` bytes: the popcount of bits
        ``[0, eta)`` minus that of bits ``[eta, 2 eta)``, little-endian.
        """
        _require_non_negative(eta=eta, count=count)
        if count == 0:
            return []
        nbytes = (2 * eta + 7) // 8
        data = np.frombuffer(self._shake.read(count * nbytes), dtype=np.uint8)
        bits = np.unpackbits(data.reshape(count, nbytes), axis=1, bitorder="little")
        a = bits[:, :eta].sum(axis=1, dtype=np.int64)
        b = bits[:, eta : 2 * eta].sum(axis=1, dtype=np.int64)
        return (a - b).tolist()
