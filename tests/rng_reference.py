"""The per-coefficient ``PolyRng`` samplers, over the in-repo sponge model.

:class:`ReferencePolyRng` is the definition the vectorized
:class:`repro.fhe.rng.PolyRng` must reproduce: one small read per
coefficient, straight from :class:`repro.keccak.sponge.KeccakSponge`
(SHAKE256, suffix 0x1F) under the same domain-separated seed. Tests compare
outputs and the stream position left behind, and swap it into a
:class:`repro.fhe.Bfv` scheme as its ``_rng``.
"""

from typing import List

from repro.keccak.shake import SHAKE256_RATE_BYTES
from repro.keccak.sponge import KeccakSponge


class ReferencePolyRng:
    """Seeded sampler for the polynomial distributions BFV needs."""

    def __init__(self, seed: bytes):
        self.sponge = KeccakSponge(SHAKE256_RATE_BYTES, domain_suffix=0x1F)
        self.sponge.absorb(b"repro-fhe-rng|" + seed)

    def _read_int(self, nbytes: int) -> int:
        return int.from_bytes(self.sponge.squeeze(nbytes), "little")

    def uniform_mod(self, modulus: int, count: int) -> List[int]:
        """Uniform integers in [0, modulus) by rejection sampling."""
        nbytes = (modulus.bit_length() + 7) // 8 + 1
        bound = (1 << (8 * nbytes)) // modulus * modulus
        out: List[int] = []
        while len(out) < count:
            value = self._read_int(nbytes)
            if value < bound:
                out.append(value % modulus)
        return out

    def ternary(self, count: int) -> List[int]:
        """Uniform ternary secrets in {-1, 0, 1}."""
        out: List[int] = []
        while len(out) < count:
            byte = self._read_int(1)
            for shift in (0, 2, 4, 6):
                trit = (byte >> shift) & 0x3
                if trit < 3:  # reject the 4th symbol for uniformity
                    out.append(trit - 1)
                    if len(out) == count:
                        break
        return out

    def centered_binomial(self, eta: int, count: int) -> List[int]:
        """Centered binomial noise with parameter ``eta`` (variance eta/2)."""
        out: List[int] = []
        while len(out) < count:
            bits = self._read_int((2 * eta + 7) // 8)
            a = sum((bits >> i) & 1 for i in range(eta))
            b = sum((bits >> (eta + i)) & 1 for i in range(eta))
            out.append(a - b)
        return out

