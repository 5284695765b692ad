"""Batched keystream engine: many PASTA blocks per numpy pass.

The scalar path (:mod:`repro.pasta.cipher`) derives one block at a time:
one Python Keccak permutation per 21 XOF words, one Python loop iteration
per rejection-sampled coefficient, one mat-vec per affine layer. That is
the repository's dominant cost center — every eval table, the HHE server,
and the video benchmark sit behind it. This engine converts the whole
pipeline to data-parallel execution, mirroring how the paper's hardware
overlaps XOF squeezing, rejection sampling, and MatMul across blocks:

* **XOF**: every lane is one ``hashlib`` SHAKE128 stream
  (:class:`repro.keccak.vectorized.BatchedShake`), squeezed in bulk into
  one ``(N, W)`` word matrix sized up front to cover almost every lane's
  demand, so the permutations run in C and a lane rarely needs a second
  squeeze.
* **Sampling**: each word matrix is masked and filtered once per fill
  (paper Sec. IV-B), listing the accepted words under both accept rules;
  a draw then finds each lane's first accepted word past its pointer with
  one ``searchsorted`` and gathers the next ``count`` — no Python loop
  over lanes anywhere on the sampling path.
* **MatGen / MatMul**: the sequential-matrix recurrence and the affine
  layers run across the batch axis (``einsum`` with overflow-safe
  accumulation from :meth:`repro.ff.prime.PrimeField.batched_mat_vec`).
* **Caching**: a per-``(nonce, counter)`` LRU keeps the sampled materials
  and any matrices materialized through :meth:`KeystreamEngine.matrix`,
  so a pair served twice is not derived again. The batched HHE server
  reads each call's materials from it once and builds its matrices
  itself, so its calls do not depend on what the LRU holds.

Everything is bit-exact with the scalar golden model: same word stream per
lane, same accept/reject decisions, same field arithmetic. The test suite
asserts equality block-for-block and the benchmark records the speedup
(target >= 5x at batch 64 for PASTA-3).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ParameterError
from repro.ff.sampling import SamplerStats
from repro.utils.budget import CacheBudget
from repro.keccak.vectorized import batched_shake128
from repro.pasta.cipher import BlockMaterials, LayerMaterials
from repro.pasta.matgen import generate_matrix
from repro.pasta.params import PastaParams
from repro.pasta.xof import encode_block_seed

__all__ = [
    "KeystreamEngine",
    "block_pairs",
    "generate_block_materials_batch",
    "generate_block_materials_pairs",
    "batched_sequential_matrices",
    "get_engine",
    "DEFAULT_CACHE_BLOCKS",
]

#: Default LRU capacity in cached blocks. A PASTA-3 block's materialized
#: matrices are ~1 MB (8 x 128 x 128 int64), so 64 blocks bound the cache
#: at a comfortable ~64 MB worst case.
DEFAULT_CACHE_BLOCKS = 64


class _BatchWordStream:
    """Per-lane XOF word buffers, indexed by accept rule, with consumption pointers.

    Lane ``n`` sees exactly the word stream ``shake128(seed_n).words()``
    would produce; the batch only changes *when* words are squeezed, never
    what each lane reads. Each buffer fill masks the words once and lists
    the accepted ones under both of PASTA's accept rules (``min_value`` 0
    and 1), so a draw only has to find each lane's first accepted word past
    its pointer and take the next ``count``.
    """

    def __init__(self, seeds: Sequence[bytes], sampler, words: float):
        self._shake = batched_shake128(seeds)
        self.n = len(seeds)
        self.rate_words = self._shake.rate_words
        self.sampler = sampler
        self.pos = np.zeros(self.n, dtype=np.intp)
        self._buf = np.empty((self.n, 0), dtype=np.uint64)
        self.grow(max(1, math.ceil(words / self.rate_words)))

    @property
    def blocks(self) -> int:
        return self._buf.shape[1] // self.rate_words

    def grow(self, blocks: int) -> None:
        """Squeeze ``blocks`` more rate blocks onto every lane and re-index."""
        self._buf = np.concatenate([self._buf, self._shake.squeeze_words(blocks)], axis=1)
        width = self._buf.shape[1]
        #: Flat index of each lane's first word; accepted words are listed by
        #: flat index (lane * width + word), so they come lane-grouped and in
        #: stream order within a lane.
        self._row_start = np.arange(self.n, dtype=np.intp) * width
        self._accepted = {}
        for min_value in (0, 1):
            values, ok = self.sampler.candidates_batch(self._buf, min_value)
            flat = np.flatnonzero(ok)
            lane_end = np.searchsorted(flat, self._row_start + width)
            self._accepted[min_value] = (flat, values.ravel()[flat], lane_end)

    def draw(self, count: int, min_value: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` accepted candidates on *every* lane at once.

        Returns ``(values, rejected)`` with shapes ``(N, count)`` and
        ``(N,)``. The decisions are identical to running
        ``RejectionSampler.sample`` on each lane's scalar word stream: a
        lane's draw starts at its private consumption pointer and takes its
        first ``count`` accepted words. No per-lane Python loop.
        """
        while True:
            flat, values, lane_end = self._accepted[min_value]
            first = np.searchsorted(flat, self._row_start + self.pos)
            if int((lane_end - first).min()) >= count:
                break
            # Some lane is short on accepted words: squeeze more for every
            # lane (lanes are in lockstep; extra words stay buffered).
            self.grow(max(1, self.blocks // 4))
        take = first[:, None] + np.arange(count)
        ends = flat[take[:, -1]] - self._row_start + 1
        rejected = ends - self.pos - count
        self.pos = ends
        return values[take], rejected


def _presqueeze_words(params: PastaParams) -> float:
    """XOF words to squeeze per lane before sampling: enough for almost every lane.

    A block needs ``k`` accepted words at acceptance rate ``a``: ``k / a``
    words on average, with standard deviation ``sqrt(k (1 - a)) / a``.
    Four standard deviations past the mean leave a lane short with
    probability about 3e-5, and a short lane only costs one
    :meth:`_BatchWordStream.grow`.
    """
    k = params.coefficients_per_block
    a = params.sampler.acceptance_probability
    return (k + 4.0 * math.sqrt(k * (1.0 - a))) / a


def _derive_layer_arrays(
    params: PastaParams, pairs: Sequence[Tuple[int, int]]
) -> Tuple[List[List[np.ndarray]], np.ndarray, _BatchWordStream]:
    """All sampled per-layer vectors for every pair, fully stacked.

    Returns ``(layer_values, rejected, stream)`` where
    ``layer_values[i][v]`` is the ``(N, t)`` uint64 matrix of the layer's
    v-th vector (alpha_L, alpha_R, rc_L, rc_R), ``rejected`` the per-lane
    rejection counts, and ``stream`` the word stream (its ``pos`` gives
    per-lane words consumed). No per-lane Python work happens here.
    """
    t = params.t
    seeds = [encode_block_seed(params, no, co) for no, co in pairs]
    stream = _BatchWordStream(seeds, params.sampler, _presqueeze_words(params))

    rejected = np.zeros(len(pairs), dtype=np.int64)
    layer_values: List[List[np.ndarray]] = []
    for _ in range(params.affine_layers):
        # alpha_L, alpha_R (nonzero), then rc_L, rc_R: two back-to-back
        # draws under one accept rule take the words one draw of 2t takes.
        alphas, alpha_rejected = stream.draw(2 * t, 1)
        rcs, rc_rejected = stream.draw(2 * t, 0)
        rejected += alpha_rejected + rc_rejected
        layer_values.append([alphas[:, :t], alphas[:, t:], rcs[:, :t], rcs[:, t:]])
    return layer_values, rejected, stream


def generate_block_materials_pairs(
    params: PastaParams, pairs: Sequence[Tuple[int, int]]
) -> List[BlockMaterials]:
    """Batched materials derivation over arbitrary ``(nonce, counter)`` pairs.

    The generalization of :func:`generate_block_materials_batch` that the
    streaming service leans on: lanes need not share a nonce, so one
    batched XOF/sampling pass can cover many in-flight *frames*, not
    just consecutive counters of one frame. Bit-exact with the scalar
    derivation (values, sampler statistics, and permutation counts
    included).
    """
    pairs = [(int(n), int(c)) for n, c in pairs]
    if not pairs:
        return []
    field = params.field
    layer_values, rejected, stream = _derive_layer_arrays(params, pairs)

    use_int64 = field.dtype is np.int64
    out: List[BlockMaterials] = []
    for lane, (nonce, counter) in enumerate(pairs):
        layers = []
        for vectors in layer_values:
            arrays = []
            for values in vectors:
                if use_int64:
                    arrays.append(values[lane].astype(np.int64))
                else:
                    arrays.append(field.array(int(v) for v in values[lane]))
            layers.append(
                LayerMaterials(alpha_l=arrays[0], alpha_r=arrays[1], rc_l=arrays[2], rc_r=arrays[3])
            )
        words_consumed = int(stream.pos[lane])
        out.append(
            BlockMaterials(
                params=params,
                nonce=nonce,
                counter=counter,
                layers=tuple(layers),
                stats=SamplerStats(
                    accepted=params.coefficients_per_block, rejected=int(rejected[lane])
                ),
                # Scalar sponges squeeze lazily: consuming w words costs
                # ceil(w / 21) permutations (absorb included).
                permutations=-(-words_consumed // stream.rate_words),
            )
        )
    return out


def generate_block_materials_batch(
    params: PastaParams, nonce: int, counters: Sequence[int]
) -> List[BlockMaterials]:
    """Batched :func:`repro.pasta.cipher.generate_block_materials`.

    Returns one :class:`BlockMaterials` per counter, bit-exact with the
    scalar derivation (values, sampler statistics, and permutation counts
    included).
    """
    return generate_block_materials_pairs(params, [(nonce, int(c)) for c in counters])


def block_pairs(
    nonce: Union[int, Sequence[int]], counters: Sequence[int]
) -> Tuple[Tuple[int, int], ...]:
    """``(nonce, counter)`` per block, from one nonce or one nonce per block.

    Raises :class:`ParameterError` when a nonce sequence's length differs
    from ``counters``'.
    """
    counters = [int(c) for c in counters]
    if isinstance(nonce, (int, np.integer)):
        nonces = [int(nonce)] * len(counters)
    else:
        nonces = [int(n) for n in nonce]
        if len(nonces) != len(counters):
            raise ParameterError(
                f"one nonce per block required: {len(nonces)} nonces "
                f"for {len(counters)} counters"
            )
    return tuple(zip(nonces, counters))


def batched_sequential_matrices(params: PastaParams, alphas: np.ndarray) -> np.ndarray:
    """Materialize N sequential matrices at once: ``(N, t) -> (N, t, t)``.

    Row recurrence of paper Eq. (1) (see :mod:`repro.pasta.matgen`),
    broadcast across the batch axis. Works for both the int64 and the
    big-int object dtype; the int64 update ``shifted + feedback * alpha``
    is bounded by ``(p-1)^2 + (p-1)``, within the field's accumulation
    headroom.
    """
    field = params.field
    p = field.p
    n, t = alphas.shape
    out = np.empty((n, t, t), dtype=field.dtype)
    row = alphas.copy()
    out[:, 0, :] = row
    shifted = np.empty_like(row)
    for j in range(1, t):
        feedback = row[:, -1]
        shifted[:, 1:] = row[:, :-1]
        shifted[:, 0] = 0
        row = (shifted + feedback[:, None] * alphas) % p
        out[:, j, :] = row
    return out


@dataclass
class _CacheEntry:
    """One cached block: sampled materials + lazily materialized matrices."""

    materials: BlockMaterials
    matrices: Dict[Tuple[int, str], np.ndarray] = dataclass_field(default_factory=dict)


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss counters and current occupancy of an engine's LRU."""

    hits: int
    misses: int
    size: int
    maxsize: int


class KeystreamEngine:
    """Batched keystream generation for one parameter set, with an LRU.

    The engine is shared per :class:`PastaParams` (see :func:`get_engine`)
    so every consumer — the cipher's streaming API, the batched HHE
    server, the video pipeline — hits one materials cache. Keys are
    ``(nonce, counter)``; values carry the block's sampled materials and
    any matrices already materialized for it.
    """

    def __init__(
        self,
        params: PastaParams,
        cache_size: int = DEFAULT_CACHE_BLOCKS,
        budget: Optional[CacheBudget] = None,
        owner: str = "default",
    ):
        if cache_size < 0:
            raise ParameterError(f"cache_size must be >= 0, got {cache_size}")
        self.params = params
        self.cache_size = cache_size
        #: Optional shared cross-engine bound (cost unit: one cached block).
        #: The multi-tenant service hands every tenant's engine the same
        #: :class:`CacheBudget`, so aggregate materials memory stays bounded
        #: however many tenant engines exist; ``cache_size`` remains the
        #: per-engine bound on top.
        self.budget = budget
        self.owner = owner
        self._cache: "OrderedDict[Tuple[int, int], _CacheEntry]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        if budget is not None:
            budget.register(owner, self._evict_one_block)
        # Engines are shared per parameter set (get_engine) and the
        # streaming service hits them from worker threads: every access to
        # the OrderedDict or the hit/miss counters goes through this lock.
        # ``OrderedDict.move_to_end`` + ``popitem`` are NOT atomic under
        # concurrent mutation — unguarded interleavings corrupt the LRU
        # order or raise KeyError mid-eviction. Derivation itself runs
        # outside the lock (it is deterministic, so a duplicated miss is
        # idempotent) to keep batched misses parallelizable.
        self._lock = threading.Lock()

    # -- cache plumbing ------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self._hits, misses=self._misses, size=len(self._cache), maxsize=self.cache_size
            )

    def clear_cache(self) -> None:
        with self._lock:
            freed = len(self._cache)
            self._cache.clear()
            self._hits = 0
            self._misses = 0
        if self.budget is not None and freed:
            self.budget.release(self.owner, float(freed))

    def _evict_one_block(self) -> float:
        """Shared-budget callback: drop the least-recently-used block."""
        with self._lock:
            if not self._cache:
                return 0.0
            self._cache.popitem(last=False)
            return 1.0

    def _insert(self, nonce: int, counter: int, entry: _CacheEntry) -> None:
        """Install one derived entry (takes the lock; don't call holding it).

        Budget accounting settles *after* the store lock is released — the
        budget's evictors take engine locks, so the one-way ordering
        (budget -> engine) must never be inverted here.
        """
        if self.cache_size == 0:
            return
        key = (nonce, counter)
        evicted = 0
        with self._lock:
            fresh = key not in self._cache
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                evicted += 1
        if self.budget is not None:
            if evicted:
                self.budget.release(self.owner, float(evicted))
            if fresh:
                self.budget.charge(self.owner, 1.0)

    def _entries_pairs(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> Tuple[List[_CacheEntry], List[BlockMaterials]]:
        """Cached entries for every (nonce, counter) pair, batch-deriving misses.

        Also returns the materials derived by this call (the misses).
        """
        pairs = [(int(n), int(c)) for n, c in pairs]
        entries: Dict[Tuple[int, int], _CacheEntry] = {}
        missing: List[Tuple[int, int]] = []
        with self._lock:
            for key in pairs:
                cached = self._cache.get(key)
                if cached is not None:
                    self._hits += 1
                    self._cache.move_to_end(key)
                    entries[key] = cached
                elif key not in entries:
                    self._misses += 1
                    missing.append(key)
                    entries[key] = None  # type: ignore[assignment]
        derived = generate_block_materials_pairs(self.params, missing)
        for materials in derived:
            entry = _CacheEntry(materials=materials)
            entries[(materials.nonce, materials.counter)] = entry
            self._insert(materials.nonce, materials.counter, entry)
        return [entries[key] for key in pairs], derived

    def _entries(self, nonce: int, counters: Sequence[int]) -> List[_CacheEntry]:
        """Cached entries for every counter, batch-deriving the misses."""
        return self._entries_pairs([(nonce, c) for c in counters])[0]

    # -- public API ----------------------------------------------------------

    def materials(
        self, nonce: Union[int, Sequence[int]], counters: Sequence[int]
    ) -> List[BlockMaterials]:
        """Block materials for every counter (cache-backed, batch-derived).

        ``nonce`` is one nonce for every counter or one nonce per counter;
        either way the misses are derived in one batched pass.
        """
        return self.materials_pairs(block_pairs(nonce, counters))

    def materials_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[BlockMaterials]:
        """Block materials for arbitrary (nonce, counter) pairs (cache-backed)."""
        return [e.materials for e in self._entries_pairs(pairs)[0]]

    def matrix(self, nonce: int, counter: int, layer: int, side: str) -> np.ndarray:
        """One materialized affine matrix, cached alongside its materials."""
        (entry,) = self._entries(nonce, [counter])
        key = (layer, side)
        if key not in entry.matrices:
            alpha = getattr(entry.materials.layers[layer], f"alpha_{side}")
            entry.matrices[key] = generate_matrix(self.params.field, alpha)
        return entry.matrices[key]

    def matrix_l(self, nonce: int, counter: int, layer: int) -> np.ndarray:
        return self.matrix(nonce, counter, layer, "l")

    def matrix_r(self, nonce: int, counter: int, layer: int) -> np.ndarray:
        return self.matrix(nonce, counter, layer, "r")

    def _stacked_matrices(
        self, entries: List[_CacheEntry], layer: int, side: str
    ) -> np.ndarray:
        """(N, t, t) matrices for one layer/side, filling cache gaps batched."""
        key = (layer, side)
        todo = [i for i, e in enumerate(entries) if key not in e.matrices]
        if todo:
            alphas = np.stack(
                [getattr(entries[i].materials.layers[layer], f"alpha_{side}") for i in todo]
            )
            mats = batched_sequential_matrices(self.params, alphas)
            for slot, i in enumerate(todo):
                entries[i].matrices[key] = mats[slot]
            if len(todo) == len(entries):
                # All fresh, already in batch order — skip the re-stack copy.
                return mats
        return np.stack([e.matrices[key] for e in entries])

    def keystream_blocks(
        self, key: np.ndarray, nonce: int, counter0: int, n_blocks: int
    ) -> np.ndarray:
        """Keystream for ``n_blocks`` consecutive counters as ``(n, t)``.

        Row ``i`` equals the scalar ``Pasta.keystream_block(nonce,
        counter0 + i)`` exactly; the whole batch shares each permutation,
        sampling pass, and affine ``einsum``.
        """
        return self.keystream_pairs(
            key, [(nonce, c) for c in range(counter0, counter0 + n_blocks)]
        )

    def keystream_pairs(
        self, key: np.ndarray, pairs: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        """Keystream rows for arbitrary ``(nonce, counter)`` pairs, ``(n, t)``.

        The cross-frame workhorse of the streaming service: one vectorized
        pass covers blocks of *different* nonces (frames), so steady-state
        throughput amortizes the per-pass Keccak/sampling overhead over
        every frame currently in flight, not just one frame's blocks.

        The ``pasta.keystream`` span records the call's XOF volume:
        ``xof_words`` (words consumed, summed over the lanes derived in
        this call; cache hits consume none) and ``xof_permutations``
        (``ceil(words / 21)`` per lane, summed).
        """
        from repro.obs import get_registry, get_tracer
        from repro.obs.cycles import modeled_cycle_attributes

        params = self.params
        obs = get_registry()
        obs.histogram(
            "pasta.keystream.lanes", variant=params.name, omega=params.modulus_bits
        ).observe(len(pairs))
        with get_tracer().span(
            "pasta.keystream",
            metric="pasta.keystream.seconds",
            variant=params.name,
            omega=params.modulus_bits,
            lanes=len(pairs),
            **modeled_cycle_attributes(params, len(pairs)),
        ) as span:
            keystream, xof_words, xof_permutations = self._keystream_pairs(key, pairs)
            span.set_attribute("xof_words", xof_words)
            span.set_attribute("xof_permutations", xof_permutations)
            return keystream

    def _keystream_pairs(
        self, key: np.ndarray, pairs: Sequence[Tuple[int, int]]
    ) -> Tuple[np.ndarray, int, int]:
        """Keystream rows, plus the XOF words and permutations spent on them."""
        params = self.params
        field = params.field
        n_blocks = len(pairs)
        if n_blocks <= 0:
            return field.zeros(0, params.t), 0, 0
        if self.cache_size == 0 and field.dtype is np.int64:
            # Streaming fast path: a cache-less engine serves fresh
            # (nonce, counter) pairs that will never be asked for again, so
            # skip per-block BlockMaterials assembly entirely and stay in
            # stacked array-land from XOF words to keystream rows.
            with self._lock:
                self._misses += n_blocks
            layer_values, _, stream = _derive_layer_arrays(
                params, [(int(no), int(co)) for no, co in pairs]
            )
            alphas = {}
            rcs = {}
            for layer, (al, ar, rl, rr) in enumerate(layer_values):
                alphas[(layer, "l")] = al.astype(np.int64)
                alphas[(layer, "r")] = ar.astype(np.int64)
                rcs[(layer, "l")] = rl.astype(np.int64)
                rcs[(layer, "r")] = rr.astype(np.int64)
            keystream = self._keystream_rounds(
                key,
                n_blocks,
                lambda layer, side: batched_sequential_matrices(params, alphas[(layer, side)]),
                lambda layer, side: rcs[(layer, side)],
            )
            permutations = -(-stream.pos // stream.rate_words)
            return keystream, int(stream.pos.sum()), int(permutations.sum())
        entries, derived = self._entries_pairs(pairs)
        keystream = self._keystream_rounds(
            key,
            n_blocks,
            lambda layer, side: self._stacked_matrices(entries, layer, side),
            lambda layer, side: np.stack(
                [getattr(e.materials.layers[layer], f"rc_{side}") for e in entries]
            ),
        )
        xof_words = sum(m.stats.accepted + m.stats.rejected for m in derived)
        return keystream, xof_words, sum(m.permutations for m in derived)

    def _keystream_rounds(self, key, n_blocks: int, mats_of, rc_of) -> np.ndarray:
        """The PASTA round schedule over stacked per-block state rows.

        ``mats_of(layer, side)`` / ``rc_of(layer, side)`` supply the
        ``(N, t, t)`` matrices and ``(N, t)`` round constants; both the
        cache-backed and the fused streaming path feed this one loop.
        """
        params = self.params
        field = params.field
        p = field.p
        t = params.t

        state = np.tile(np.asarray(key).reshape(1, -1), (n_blocks, 1))
        xl = state[:, :t] % p
        xr = state[:, t:] % p

        def affine(x: np.ndarray, layer: int, side: str) -> np.ndarray:
            return (field.batched_mat_vec(mats_of(layer, side), x) + rc_of(layer, side)) % p

        for i in range(params.rounds):
            xl = affine(xl, i, "l")
            xr = affine(xr, i, "r")
            s = (xl + xr) % p
            xl = (xl + s) % p
            xr = (xr + s) % p
            full = np.concatenate([xl, xr], axis=1)
            if i < params.rounds - 1:
                squares = (full[:, :-1] * full[:, :-1]) % p
                full[:, 1:] = (full[:, 1:] + squares) % p
            else:
                full = ((full * full % p) * full) % p
            xl, xr = full[:, :t], full[:, t:]
        last = params.rounds
        xl = affine(xl, last, "l")
        xr = affine(xr, last, "r")
        s = (xl + xr) % p
        xl = (xl + s) % p
        return xl


_ENGINES: Dict[Tuple[PastaParams, Optional[str]], KeystreamEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(
    params: PastaParams,
    cache_size: Optional[int] = None,
    tenant: Optional[str] = None,
    budget: Optional[CacheBudget] = None,
) -> KeystreamEngine:
    """The shared per-(parameter-set, tenant) engine (created on first use).

    ``cache_size``/``budget`` only apply when the engine is first created;
    pass them to :class:`KeystreamEngine` directly for a private instance.
    ``tenant=None`` (the default) is the anonymous single-tenant engine the
    non-service callers share. Distinct tenants get distinct engines —
    cache entries and keystream state never cross a tenant boundary — and
    the multi-tenant service passes one :class:`CacheBudget` so their
    aggregate materials stay globally bounded. Safe to call from concurrent
    threads: a check-then-create race would otherwise hand two callers
    *different* engines, splitting the shared cache.
    """
    with _ENGINES_LOCK:
        key = (params, tenant)
        engine = _ENGINES.get(key)
        if engine is None:
            engine = KeystreamEngine(
                params,
                DEFAULT_CACHE_BLOCKS if cache_size is None else cache_size,
                budget=budget,
                owner=tenant if tenant is not None else "default",
            )
            _ENGINES[key] = engine
        return engine
