"""The HHE protocol of paper Fig. 1, end to end.

Roles:

* :class:`HheClient` — the edge device. Generates the PASTA key, encrypts
  it **once** under the FHE public key (the only expensive client-side FHE
  operation), then encrypts data cheaply with PASTA.
* :class:`HheServer` — the cloud. Holds only public material (FHE public/
  relin keys, the encrypted PASTA key) and *transciphers*: homomorphically
  evaluates PASTA decryption, turning symmetric ciphertexts into FHE
  ciphertexts of the same messages, ready for homomorphic processing.
* The client finally decrypts FHE results with its secret key.

Run with :data:`repro.pasta.params.PASTA_TOY`-sized parameters; the
structure is identical to the full-size scheme, only t is reduced so that
pure-Python BFV finishes in seconds (see DESIGN.md Sec. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.fhe.bfv import Bfv, BfvParams, Ciphertext, RelinKey, toy_parameters
from repro.hhe.backend import BfvBackend, BfvOpCounts
from repro.pasta.cipher import Pasta, random_key
from repro.pasta.decrypt_circuit import KeystreamCircuit
from repro.pasta.params import PastaParams


@dataclass
class TranscipherResult:
    """Output of one homomorphic block decryption on the server."""

    ciphertexts: List[Ciphertext]  #: FHE encryptions of the message elements
    ops: BfvOpCounts


#: Domain-separation tags for the client's two independent secrets. The FHE
#: secret key and the PASTA key must never derive from the same entropy
#: stream: leaking either one must not compromise the other.
FHE_SEED_DOMAIN = b"hhe-v1-fhe-keygen|"
PASTA_SEED_DOMAIN = b"hhe-v1-pasta-key|"


class HheClient:
    """Client side: symmetric encryption + one-time FHE key encapsulation."""

    def __init__(
        self,
        pasta_params: PastaParams,
        bfv_params: Optional[BfvParams] = None,
        seed: bytes = b"hhe-demo",
        engine: str = "auto",
    ):
        self.pasta_params = pasta_params
        self.bfv_params = bfv_params or toy_parameters(pasta_params.p)
        if self.bfv_params.p != pasta_params.p:
            raise ParameterError("BFV plaintext modulus must equal the PASTA prime")
        # One master seed feeds two domain-separated derivations, so the
        # FHE and PASTA secrets are distinct streams even for equal seeds.
        self.scheme = Bfv(self.bfv_params, seed=FHE_SEED_DOMAIN + seed, engine=engine)
        self.sk, self.pk, self.rlk = self.scheme.keygen()
        self.key = random_key(pasta_params, PASTA_SEED_DOMAIN + seed)
        self.cipher = Pasta(pasta_params, self.key)

    def encrypted_key(self) -> List[Ciphertext]:
        """FHE-encrypt the 2t PASTA key elements (sent to the server once)."""
        return [self.scheme.encrypt(self.pk, int(k)) for k in self.key]

    def encrypt(self, message: Sequence[int], nonce: int) -> np.ndarray:
        """Cheap symmetric encryption of a message stream."""
        return self.cipher.encrypt(message, nonce)

    def decrypt_result(self, cts: Sequence[Ciphertext]) -> List[int]:
        """Decrypt FHE ciphertexts returned by the server."""
        return [self.scheme.decrypt(self.sk, ct) for ct in cts]

    def noise_budget_bits(self, ct: Ciphertext) -> float:
        return self.scheme.noise_budget_bits(self.sk, ct)


class HheServer:
    """Server side: holds public material only; transciphers PASTA -> FHE."""

    def __init__(
        self,
        pasta_params: PastaParams,
        scheme: Bfv,
        rlk: RelinKey,
        encrypted_key: Sequence[Ciphertext],
    ):
        if len(encrypted_key) != pasta_params.key_size:
            raise ParameterError(
                f"expected {pasta_params.key_size} encrypted key elements, got {len(encrypted_key)}"
            )
        self.pasta_params = pasta_params
        self.scheme = scheme
        self.rlk = rlk
        self.encrypted_key = list(encrypted_key)

    @classmethod
    def from_client(cls, client: HheClient) -> "HheServer":
        """Convenience wiring for demos (public material only crosses here)."""
        return cls(client.pasta_params, client.scheme, client.rlk, client.encrypted_key())

    def transcipher_block(
        self, ciphertext_block: Sequence[int], nonce: int, counter: int
    ) -> TranscipherResult:
        """Homomorphic HHE decryption of one symmetric block."""
        circuit = KeystreamCircuit.for_block(self.pasta_params, nonce, counter)
        cts, ops = circuit.run(
            self.encrypted_key, BfvBackend(self.scheme, self.rlk), list(ciphertext_block)
        )
        return TranscipherResult(ciphertexts=cts, ops=ops)

    def transcipher(self, ciphertext: Sequence[int], nonce: int) -> TranscipherResult:
        """Transcipher a multi-block stream (counter = block index)."""
        t = self.pasta_params.t
        all_cts: List[Ciphertext] = []
        total = BfvOpCounts()
        for counter, start in enumerate(range(0, len(ciphertext), t)):
            block = list(ciphertext[start : start + t])
            result = self.transcipher_block(block, nonce, counter)
            all_cts.extend(result.ciphertexts)
            # Fields-driven: a hand-listed attribute tuple here silently
            # dropped `rotations` when it was added; merge() cannot skip a
            # counter field.
            total.merge(result.ops)
        return TranscipherResult(ciphertexts=all_cts, ops=total)
