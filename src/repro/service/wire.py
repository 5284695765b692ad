"""What crosses the modeled uplink: the wire record, tiles, packing, jitter.

These are the pieces of the streaming service (:mod:`repro.service.tenants`)
that are pure functions of their inputs: the :class:`WireFrame` one
transmission attempt travels as, the camera tiles it streams, vectorized
pixel packing into PASTA plaintext elements, and the deterministic
backoff-jitter draw that keeps retry schedules reproducible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.packing import pixels_per_element
from repro.apps.video import Resolution
from repro.errors import ParameterError
from repro.keccak.shake import shake128
from repro.obs import SpanContext

__all__ = [
    "TILE8",
    "TILE16",
    "WireFrame",
    "backoff_jitter_fraction",
    "pack_frames",
    "unpack_frames",
]

#: Camera tiles the toy-parameter service streams (a full frame is shipped
#: as independent tiles; degradation drops to the smaller tile).
TILE16 = Resolution("TILE16", 16, 16)
TILE8 = Resolution("TILE8", 8, 8)

#: Domain for the deterministic backoff jitter draw (SHAKE over
#: ``(frame_id, attempt)``), so retry schedules reproduce run to run.
BACKOFF_JITTER_DOMAIN = b"service-v1-backoff|"


def backoff_jitter_fraction(frame_id: int, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one retry's jitter.

    A pure function of ``(frame_id, attempt)`` — like the fault plan's
    verdicts — so co-dropped frames spread out while the schedule stays
    bit-reproducible across runs and thread interleavings.
    """
    digest = shake128(
        BACKOFF_JITTER_DOMAIN + struct.pack(">QQ", frame_id, attempt)
    ).read(8)
    return int.from_bytes(digest, "big") / 2**64


# -- vectorized pixel packing ----------------------------------------------------


def pack_frames(pixels: np.ndarray, p: int) -> np.ndarray:
    """Vectorized :func:`~repro.apps.packing.pack_pixels` over frame rows.

    ``pixels`` is ``(n_frames, n_pixels)`` uint8 with ``n_pixels`` a
    multiple of the per-element capacity; returns int64 elements in [0, p).
    """
    per = pixels_per_element(p)
    n_pixels = pixels.shape[1]
    if n_pixels % per:
        raise ParameterError(
            f"frame width {n_pixels} not a multiple of {per} pixels/element"
        )
    elements = np.zeros((pixels.shape[0], n_pixels // per), dtype=np.int64)
    for i in range(per):
        elements = (elements << 8) | pixels[:, i::per].astype(np.int64)
    return elements


def unpack_frames(elements: np.ndarray, p: int) -> np.ndarray:
    """Inverse of :func:`pack_frames` (big-endian within an element)."""
    per = pixels_per_element(p)
    out = np.empty((elements.shape[0], elements.shape[1] * per), dtype=np.uint8)
    for i in range(per):
        out[:, i::per] = ((elements >> (8 * (per - 1 - i))) & 0xFF).astype(np.uint8)
    return out


# -- the wire record -------------------------------------------------------------


@dataclass(frozen=True)
class WireFrame:
    """One transmission attempt as it crosses the modeled uplink."""

    frame_id: int
    attempt: int
    nonce: int
    tenant: str  #: whose key encrypted this payload
    session: int  #: which of the tenant's sessions sent it
    resolution: Resolution
    payload: bytes  #: ciphertext elements as little-endian uint32
    crc: int  #: CRC-32 of the *sent* payload (pre-corruption)
    not_before: float = 0.0  #: monotonic time before which delivery must not complete
    #: trace context of the producing encrypt span; carried through the
    #: uplink queue so worker-side spans join the producer's trace.
    trace: Optional[SpanContext] = None
