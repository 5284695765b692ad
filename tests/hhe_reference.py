"""Reference evaluation paths that only tests and benchmarks select.

Production code has no switch for these; they are reached from here:

* :class:`UnhoistedBsgsServer` — the packed BSGS server with its baby
  rotations chained one keyswitch at a time (no shared digit
  decomposition), the comparator for hoisting parity and speed;
* :func:`bigint_digits` — digit decomposition through the object-dtype
  divmod path of ``RnsEngine._decompose_base_digits``, the bit-exact
  reference for the RNS-native int64 digits.
"""

import contextlib

from repro.hhe import BatchedHheServer


class UnhoistedBsgsServer(BatchedHheServer):
    """``BatchedHheServer`` running the chained-baby (unhoisted) kernel."""

    hoisted = False


@contextlib.contextmanager
def bigint_digits(engine):
    """Within the block, ``engine`` decomposes digits on the object path."""
    engine._digit_decomposer = lambda base, count: None
    try:
        yield engine
    finally:
        del engine._digit_decomposer
