"""BFV-backed arithmetic backends for the PASTA decryption circuit.

Plugging :class:`BfvBackend` into
:class:`repro.pasta.decrypt_circuit.KeystreamCircuit` turns the circuit
into exactly the paper's "homomorphic HHE decryption": state elements are
BFV ciphertexts, public matrix/round-constant values are plaintext scalars,
S-boxes become ciphertext multiplications with relinearization.
:class:`SlotBackend` is the same over slot-batched ciphertexts, whose
public operands are encoded slot vectors or prepared plaintext handles.

Op counts are not kept here: the round program's driver charges each
step's cost into a per-call :class:`BfvOpCounts`.
"""

from __future__ import annotations

from typing import Sequence

from repro.fhe.bfv import Bfv, Ciphertext, RelinKey
from repro.fhe.engine import PreparedPlain
from repro.pasta.decrypt_circuit import ArithmeticBackend, BfvOpCounts

__all__ = ["BfvBackend", "BfvOpCounts", "SlotBackend"]


class BfvBackend(ArithmeticBackend[Ciphertext]):
    """Evaluate circuit operations on BFV ciphertexts."""

    def __init__(self, scheme: Bfv, rlk: RelinKey):
        self.scheme = scheme
        self.rlk = rlk

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.scheme.add(a, b)

    def add_plain(self, a: Ciphertext, constant: int) -> Ciphertext:
        return self.scheme.add_plain(a, constant)

    def mul_plain(self, a: Ciphertext, constant: int) -> Ciphertext:
        return self.scheme.mul_plain(a, constant)

    def square(self, a: Ciphertext) -> Ciphertext:
        return self.scheme.square(a, self.rlk)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.scheme.multiply(a, b, self.rlk)

    def neg(self, a: Ciphertext) -> Ciphertext:
        return self.scheme.neg(a)


class SlotBackend(BfvBackend):
    """BFV over slot vectors: plaintext operands are encoded polynomials
    or prepared handles, applied slot-wise."""

    def add_plain(self, a: Ciphertext, plain: Sequence[int] | PreparedPlain) -> Ciphertext:
        return self.scheme.add_plain_poly(a, plain)

    def mul_plain(self, a: Ciphertext, plain: Sequence[int] | PreparedPlain) -> Ciphertext:
        return self.scheme.mul_plain_poly(a, plain)
