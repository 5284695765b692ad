"""Batched (SIMD) transciphering: many PASTA blocks per circuit evaluation.

The scalar server (:mod:`repro.hhe.protocol`) evaluates one PASTA
decryption circuit per block. Real HHE deployments — including the PASTA
paper's own server-side evaluation — amortize: with BFV batching, slot
``b`` of every ciphertext carries block ``b``'s state, so ONE evaluation
of the t-element circuit transciphers ``B`` blocks at once. The circuit
structure is identical; only the affine constants differ per slot, turning
scalar plaintext multiplications into plaintext-*polynomial*
multiplications of encoded constant vectors.

Cost intuition (reported by the ``hhe_cost`` experiment): the homomorphic
operation count per evaluation is unchanged, so the per-block cost drops
by ~B at the price of polynomially heavier plain multiplications.

Every evaluation engine runs the one round program
(:func:`repro.pasta.decrypt_circuit.run_program`) on its own state layout
— kernels plus a per-step op-cost table — and every call gets its own op
counts:

* ``engine="scalar"`` — the list layout
  :class:`~repro.pasta.decrypt_circuit.KeystreamCircuit` runs,
  over a :class:`~repro.hhe.backend.SlotBackend` with prepared-handle
  constants: one ciphertext per state element, one scheme call per op.
  Runs on the big-int engine too; the bit-exact reference for ``tensor``.
* ``engine="tensor"`` — each state side is one ``(t, 2, L, N)`` NTT-domain
  :class:`~repro.fhe.engine.CiphertextTensor`; an affine side is one
  prepared-matrix einsum per residue prime plus a broadcast round-constant
  add, the S-boxes batched square/multiply kernels. Requires the RNS
  engine; same residues and op counts as ``scalar``.
* ``engine="bsgs"`` — the *packed* layout: ONE ciphertext per state side
  carries the whole state (state j of block b at logical slot
  ``j * group + b``); each affine layer runs both sides by the hoisted
  baby-step/giant-step diagonal method — t diagonal plaintext products
  plus O(sqrt t) Galois rotations per side instead of t^2 plain muls.
  Requires the RNS engine *and* a :class:`~repro.fhe.bfv.GaloisKey`
  covering :meth:`BatchedHheServer.required_rotation_steps`;
  ``engine="auto"`` (the default) picks it whenever both are available,
  falling back to ``tensor`` then ``scalar``. A batch beyond the packed
  capacity runs on the tensor layout for that call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ParameterError
from repro.utils.budget import BudgetedLru, CacheBudget
from repro.fhe.batching import BatchEncoder
from repro.fhe.bfv import Bfv, Ciphertext, GaloisKey, PublicKey, RelinKey
from repro.fhe.engine import CiphertextTensor
from repro.fhe.galois import (
    replicate_rows_to_slots,
    rotation_element,
    slots_to_logical,
)
from repro.hhe.backend import BfvOpCounts, SlotBackend
from repro.pasta.batch import batched_sequential_matrices, block_pairs, get_engine
from repro.pasta.cipher import BlockMaterials
from repro.pasta.decrypt_circuit import (
    PACKED_SIDES,
    CircuitLayout,
    ListLayout,
    bsgs_split,
    packed_costs,
    run_program,
    slot_costs,
)
from repro.pasta.params import PastaParams

#: Default prepared-plaintext budget, in slot rows (one encoded plaintext
#: polynomial = one row; a tensor matrix costs t*t rows, a row stack t).
#: Applied per server when no shared :class:`CacheBudget` is given — the
#: multi-tenant service passes ONE budget to every tenant's server so the
#: aggregate stays bounded however many tenants are live.
DEFAULT_PREPARED_ROWS = 4096


@dataclass
class BatchedTranscipherResult:
    """t ciphertexts whose slots hold the B transciphered blocks.

    Block b was encrypted under ``(nonces[b], counters[b])``. Under the
    packed BSGS engine there is a single ciphertext instead and
    ``group_size`` is set: message element j of block b sits at logical
    slot ``j * group_size + b`` (generator slot order, row 0).
    """

    ciphertexts: List[Ciphertext]
    nonces: List[int]
    counters: List[int]
    ops: BfvOpCounts
    group_size: Optional[int] = None


def encrypt_key_batched(
    scheme: Bfv, pk: PublicKey, encoder: BatchEncoder, key: Sequence[int]
) -> List[Ciphertext]:
    """Client side: encrypt each key element replicated across all slots."""
    return [
        scheme.encrypt_poly(pk, encoder.constant(int(k)))
        for k in key
    ]


class BatchedHheServer:
    """Evaluate PASTA decryption over slot-packed BFV ciphertexts."""

    #: Share one digit decomposition across the packed layout's baby
    #: rotations (Halevi-Shoup hoisting). Production always hoists; a
    #: subclass that sets this False runs the chained per-rotation
    #: keyswitch kernel, kept as the reference the parity tests and the
    #: hoisting benchmark compare against.
    hoisted = True

    def __init__(
        self,
        params: PastaParams,
        scheme: Bfv,
        rlk: RelinKey,
        encoder: BatchEncoder,
        encrypted_key: Sequence[Ciphertext],
        engine: str = "auto",
        galois_keys: Optional[GaloisKey] = None,
        tenant: str = "default",
        prepared_budget: Optional[CacheBudget] = None,
    ):
        if scheme.params.p != params.p:
            raise ParameterError("BFV plaintext modulus must equal the PASTA prime")
        if len(encrypted_key) != params.key_size:
            raise ParameterError(f"expected {params.key_size} encrypted key elements")
        self.params = params
        self.scheme = scheme
        self.rlk = rlk
        self.encoder = encoder
        self.encrypted_key = list(encrypted_key)
        self.galois_keys = galois_keys
        scheme_engine = getattr(scheme.engine, "name", "bigint")
        packable = scheme.params.n // 2 >= params.t and (scheme.params.n // 2) % params.t == 0
        if engine == "auto":
            if scheme_engine == "rns" and galois_keys is not None and packable:
                engine = "bsgs"
            else:
                engine = "tensor" if scheme_engine == "rns" else "scalar"
        if engine not in ("scalar", "tensor", "bsgs"):
            raise ParameterError(f"unknown evaluation engine {engine!r}")
        if engine in ("tensor", "bsgs") and scheme_engine != "rns":
            raise ParameterError(
                f"engine={engine!r} requires the RNS evaluation engine, "
                f"scheme uses {scheme_engine!r}"
            )
        if engine == "bsgs":
            if not packable:
                raise ParameterError(
                    f"engine='bsgs' needs t={params.t} to divide the slot-row "
                    f"width N/2={scheme.params.n // 2}"
                )
            if galois_keys is None:
                raise ParameterError(
                    "engine='bsgs' requires Galois rotation keys "
                    "(Bfv.rotation_keygen over required_rotation_steps)"
                )
            required = self.required_rotation_steps(params, scheme.params.n)
            missing = sorted(
                {
                    rotation_element(scheme.params.n, step)
                    for step in required
                }
                - set(galois_keys.keys)
                - {1}
            )
            if missing:
                raise ParameterError(
                    f"Galois key is missing elements {missing} for rotation "
                    f"steps {required} (have {sorted(galois_keys.keys)})"
                )
        #: Which circuit evaluator ``transcipher_blocks`` dispatches to
        #: ("scalar" | "tensor" | "bsgs"). Named ``eval_engine`` because
        #: ``engine`` is the keystream engine below.
        self.eval_engine = engine
        #: Shared batched keystream engine: each call derives its blocks'
        #: materials from it once, in one batched ``materials`` pass.
        self.engine = get_engine(params)

        # Prepared-plaintext caches keyed by the public schedule ((nonce,
        # counter) pairs, layer, side[, row, col]): re-serving a schedule
        # skips the slot encode and, under the RNS engine, the forward NTT
        # of every matrix/round-constant plaintext. Each layout fills its
        # own kinds. Entries are costed in slot rows (one encoded
        # polynomial = one row) against ONE shared CacheBudget — per server by default,
        # process-global when the multi-tenant front end passes its budget
        # in — with eviction pressure on whichever tenant holds the most
        # rows, so a hot tenant cannot push a cold one below its fair share.
        self.tenant = tenant
        self.prepared_budget = prepared_budget or CacheBudget(DEFAULT_PREPARED_ROWS)
        t = params.t
        rows = {"matrix": 1, "rc": 1, "matrix_tensor": t * t, "rc_tensor": t}
        if engine == "bsgs":
            bs, giants = bsgs_split(t)
            rows.update(diags_bsgs=bs * giants, rc_bsgs=2)
        self._caches: Dict[str, BudgetedLru] = {
            kind: BudgetedLru(
                owner=tenant,
                budget=self.prepared_budget,
                cost_of=lambda key, value, n=float(n): n,
            )
            for kind, n in rows.items()
        }
        if engine == "bsgs":
            self._init_bsgs()

    def prepared_cache_info(self) -> Dict[str, Dict[str, float]]:
        """Per-cache hit/miss/size/cost plus the shared budget snapshot."""
        info = {kind: lru.cache_info() for kind, lru in self._caches.items()}
        info["budget"] = dict(self.prepared_budget.snapshot())
        return info

    # -- packed BSGS layout --------------------------------------------------------

    @staticmethod
    def required_rotation_steps(params: PastaParams, ring_n: int) -> List[int]:
        """Left-rotation steps the packed BSGS evaluator key-switches by.

        Hoisted baby steps rotate the *source* directly by every multiple
        ``k * group`` (k = 1..bs-1) of the state-group size — the unhoisted
        chain only ever needed the single ``group`` step; Horner giant
        steps advance ``bs`` groups, and the Feistel S-box shifts the
        squared state one group *right* (``N/2 - group`` left). Steps whose
        factor collapses to 1 for the parameter set are omitted, so bs = 2
        parameter sets keep the exact pre-hoisting key schedule (and its
        keygen draw order).
        """
        half = ring_n // 2
        group = half // params.t
        bs, giants = bsgs_split(params.t)
        steps: List[int] = [k * group for k in range(1, bs)]
        if giants > 1:
            steps.append(bs * group)
        if params.rounds > 1:
            steps.append(half - group)
        return sorted(set(steps))

    @property
    def packed_capacity(self) -> int:
        """Blocks per packed ciphertext (= slots per state group)."""
        return self._group_size

    def _encode_logical_rows(self, rows: np.ndarray) -> np.ndarray:
        """(R, N/2) logical rows -> (R, N) encoded plaintext polynomials."""
        slots = replicate_rows_to_slots(self.scheme.params.n, rows)
        return self.encoder.encode_rows(slots)

    def _init_bsgs(self) -> None:
        t = self.params.t
        half = self.scheme.params.n // 2
        #: Slots per state group == packed block capacity.
        self._group_size = half // t
        self._bsgs = bsgs_split(t)

        # Pack the 2t slot-replicated key ciphertexts into [L, R]: one
        # (2, 2t, L, N) mask tensor contracted against the (2t, 2, L, N) key
        # stack — a single einsum, once per server instance (key-setup cost,
        # excluded from the per-evaluation op counts like key packing in
        # encrypt_key_batched itself).
        B = self._group_size
        masks = np.zeros((2, 2 * t, half), dtype=np.int64)
        for j in range(t):
            masks[0, j, j * B : (j + 1) * B] = 1
            masks[1, t + j, j * B : (j + 1) * B] = 1
        encoded = self._encode_logical_rows(masks.reshape(4 * t, half))
        prepared = self.scheme.prepare_matrix(
            encoded.reshape(2, 2 * t, self.scheme.params.n)
        )
        key_stack = self.scheme.stack_ciphertexts(self.encrypted_key)
        self._packed_key = self.scheme.tensor_affine(key_stack, prepared)

        # Feistel masks: "not the first state group" (both sides) and "the
        # first state group" (cross term from L's last group into R's first).
        not_first = np.ones((2, half), dtype=np.int64)
        not_first[:, :B] = 0
        first = np.zeros((1, half), dtype=np.int64)
        first[0, :B] = 1
        self._mask_not_first = self.scheme.prepare_mul_rows(
            self._encode_logical_rows(not_first)
        )
        self._mask_first = self.scheme.prepare_mul_rows(self._encode_logical_rows(first))

    # -- public API -----------------------------------------------------------------

    def transcipher_blocks(
        self,
        ciphertext_blocks: Sequence[Sequence[int]],
        nonce: Union[int, Sequence[int]],
        counters: Sequence[int],
    ) -> BatchedTranscipherResult:
        """Transcipher B full blocks with one circuit evaluation.

        ``ciphertext_blocks[b]`` must hold t elements encrypted under
        ``(nonce, counters[b])`` — or ``(nonce[b], counters[b])`` when
        ``nonce`` is a sequence with one nonce per block, so blocks of
        several frames share one evaluation. Slot b of output ciphertext j
        encrypts message element j of block b.
        """
        from repro.obs import get_registry, get_tracer, record_headroom
        from repro.obs.cycles import modeled_cycle_attributes
        from repro.obs.noise import HEADROOM_ATTR, NOISE_ATTR

        params = self.params
        pairs = block_pairs(nonce, counters)
        obs = get_registry()
        obs.counter(
            "hhe.transcipher.blocks", variant=params.name, omega=params.modulus_bits
        ).inc(len(pairs))
        # The modeled cycles are the accelerator's budget for deriving the
        # same keystream material — the hardware-comparable slice of the
        # homomorphic evaluation this stage performs.
        with get_tracer().span(
            "hhe.transcipher",
            metric="hhe.transcipher.seconds",
            variant=params.name,
            omega=params.modulus_bits,
            engine=self.eval_engine,
            blocks=len(pairs),
            frames=len({n for n, _ in pairs}),
            **modeled_cycle_attributes(params, len(pairs)),
        ) as span:
            result = self._evaluate(ciphertext_blocks, pairs)
            # Ledger exit point: the worst modeled bound across the result
            # ciphertexts becomes the span's noise attributes and the
            # fhe.noise.headroom_bits gauge — no secret key involved.
            model = self.scheme.noise_model
            worst = model.merge(ct.noise for ct in result.ciphertexts)
            if worst is not None:
                headroom = model.headroom_bits(worst)
                span.set_attribute(NOISE_ATTR, round(worst.bits, 3))
                span.set_attribute(HEADROOM_ATTR, round(headroom, 3))
                record_headroom(
                    headroom, engine=self.eval_engine, tenant=self.tenant
                )
            return result

    def _evaluate(
        self, ciphertext_blocks: Sequence[Sequence[int]], pairs: Tuple[Tuple[int, int], ...]
    ) -> BatchedTranscipherResult:
        """Pick this call's layout and run the round program on it."""
        t = self.params.t
        if len(ciphertext_blocks) != len(pairs):
            raise ParameterError("one counter per block required")
        if len(pairs) > self.encoder.n:
            raise ParameterError(f"at most {self.encoder.n} blocks per batch")
        for block in ciphertext_blocks:
            if len(block) != t:
                raise ParameterError("batched transciphering requires full t-element blocks")

        # One batched derivation of every block's materials; the layout
        # builds its matrices from them and never goes back to the engine,
        # so the call's cost does not depend on what the engine's LRU holds.
        nonces = [n for n, _ in pairs]
        counters = [c for _, c in pairs]
        schedule = _Schedule(self.params, pairs, self.engine.materials(nonces, counters))

        group_size = None
        if self.eval_engine == "bsgs" and len(pairs) <= self._group_size:
            layout: CircuitLayout = _PackedLayout(self, schedule)
            state = self._packed_key
            group_size = self._group_size
        elif self.eval_engine in ("tensor", "bsgs"):
            # A batch beyond the packed capacity falls back to the slot
            # layout (capacity n instead of n / 2t) for this call only.
            layout = _TensorLayout(self, schedule)
            key = self.scheme.stack_ciphertexts(self.encrypted_key)
            state = (key[:t], key[t:])
        else:
            layout = ListLayout(
                SlotBackend(self.scheme, self.rlk),
                _SlotConstants(self, schedule),
                t,
                span_engine="scalar",
                blocks=len(pairs),
            )
            state = (self.encrypted_key[:t], self.encrypted_key[t:])
        out, ops = run_program(self.params, layout, state, ciphertext_blocks)
        return BatchedTranscipherResult(
            ciphertexts=out, nonces=nonces, counters=counters, ops=ops, group_size=group_size
        )


class _Schedule:
    """One call's public ``(nonce, counter)`` pairs and their materials.

    The layouts read every matrix and round constant from here: a
    (layer, side) matrix stack is one :func:`batched_sequential_matrices`
    call over the blocks' sampled first rows, kept for the call.
    """

    def __init__(
        self,
        params: PastaParams,
        pairs: Tuple[Tuple[int, int], ...],
        materials: Sequence[BlockMaterials],
    ):
        self.params = params
        #: Key of every prepared-plaintext cache entry built for this call.
        self.pairs = pairs
        self.materials = materials
        self._matrices: Dict[Tuple[int, str], np.ndarray] = {}

    def matrices(self, layer: int, side: str) -> np.ndarray:
        """``(B, t, t)``: block b's affine matrix for ``(layer, side)``."""
        key = (layer, side)
        if key not in self._matrices:
            alphas = np.stack(
                [getattr(m.layers[layer], f"alpha_{side}") for m in self.materials]
            )
            self._matrices[key] = batched_sequential_matrices(self.params, alphas)
        return self._matrices[key]

    def round_constants(self, layer: int, side: str) -> np.ndarray:
        """``(B, t)``: block b's round constants for ``(layer, side)``."""
        return np.stack([getattr(m.layers[layer], f"rc_{side}") for m in self.materials])


class _SlotConstants:
    """The list layout's public constants as per-slot plaintexts: prepared
    handles from the server's caches, block ``b`` in slot ``b``."""

    def __init__(self, server: BatchedHheServer, schedule: _Schedule):
        self.server = server
        self.schedule = schedule

    def affine(self, layer: int, side: str):
        s, schedule = self.server, self.schedule
        key = (schedule.pairs, layer, side)

        def entry(j: int, k: int):
            def build():
                per_slot = schedule.matrices(layer, side)[:, j, k].tolist()
                return s.scheme.prepare_mul_plain(s.encoder.encode(per_slot))

            return s._caches["matrix"].get_or_create(key + (j, k), build)

        def rc(j: int):
            def build():
                per_slot = schedule.round_constants(layer, side)[:, j].tolist()
                return s.scheme.prepare_add_plain(s.encoder.encode(per_slot))

            return s._caches["rc"].get_or_create(key + (j,), build)

        return entry, rc

    def plain(self, column: Sequence[int]):
        return self.server.encoder.encode([int(c) for c in column])


class _ServerLayout(CircuitLayout):
    """A layout over one server's keys and caches, for one call's schedule."""

    def __init__(self, server: BatchedHheServer, schedule: _Schedule):
        self.server = server
        self.scheme = server.scheme
        self.params = server.params
        self.t = server.params.t
        self.schedule = schedule
        self.blocks = len(schedule.pairs)

    def _minus(self, keystream: CiphertextTensor, encoded_rows: np.ndarray) -> List[Ciphertext]:
        """``c - KS``: one batched negate plus one prepared broadcast row add."""
        negated = self.scheme.tensor_neg(keystream)
        prepared = self.scheme.prepare_add_rows(encoded_rows)
        return self.scheme.unstack_ciphertexts(
            self.scheme.tensor_add_plain_rows(negated, prepared)
        )


class _TensorLayout(_ServerLayout):
    """Each state side is one (t, 2, L, N) eval-domain residue tensor.

    An affine side is one prepared-matrix einsum per residue prime plus a
    broadcast round-constant add; the S-boxes run batched square/multiply
    kernels over the concatenated 2t state. The kernels are the
    amortization, not an op-count change: the cost table is the list
    layout's, and the residues are bit-identical to it.
    """

    span_engine = "tensor"

    def __init__(self, server: BatchedHheServer, schedule: _Schedule):
        super().__init__(server, schedule)
        self.costs = slot_costs(self.t)

    def prepare_affine(self, layer: int, side: str):
        s, schedule, t = self.server, self.schedule, self.t
        key = (schedule.pairs, layer, side)

        def matrix():
            # All t^2 entries in ONE batched slot encode (slot b carries
            # block b's entry) and ONE batched residue NTT.
            mats = np.moveaxis(schedule.matrices(layer, side), 0, -1)  # (t, t, B)
            encoded = s.encoder.encode_rows(mats.reshape(t * t, self.blocks))
            return self.scheme.prepare_matrix(encoded.reshape(t, t, s.encoder.n))

        def rc():
            rows = schedule.round_constants(layer, side).T  # (t, B)
            return self.scheme.prepare_add_rows(s.encoder.encode_rows(rows))

        return (
            side,
            s._caches["matrix_tensor"].get_or_create(key, matrix),
            s._caches["rc_tensor"].get_or_create(key, rc),
        )

    def affine(self, state, prepared):
        side, matrix, rc = prepared
        xl, xr = state
        if side == "l":
            return self.scheme.tensor_affine(xl, matrix, rc), xr
        return xl, self.scheme.tensor_affine(xr, matrix, rc)

    def mix(self, state):
        xl, xr = state
        s = self.scheme.tensor_add(xl, xr)
        return self.scheme.tensor_add(xl, s), self.scheme.tensor_add(xr, s)

    def _split(self, full: CiphertextTensor):
        return full[: self.t], full[self.t :]

    def feistel(self, state):
        full = CiphertextTensor.concat(list(state))
        squared = self.scheme.tensor_square(full[:-1], self.server.rlk)
        return self._split(
            CiphertextTensor.concat([full[:1], self.scheme.tensor_add(full[1:], squared)])
        )

    def cube(self, state):
        full = CiphertextTensor.concat(list(state))
        rlk = self.server.rlk
        return self._split(
            self.scheme.tensor_mul(self.scheme.tensor_square(full, rlk), full, rlk)
        )

    def sub(self, state, ciphertext):
        rows = np.asarray([[int(c) for c in block] for block in ciphertext]).T  # (t, B)
        return self._minus(state[0], self.server.encoder.encode_rows(rows))


class _PackedLayout(_ServerLayout):
    """ONE [L, R] ciphertext pair carries the whole state of every block.

    State element j of block b sits at logical slot ``j * group + b``, so
    each affine step runs both sides by the baby-step/giant-step diagonal
    method and the S-boxes act slot-wise on the pair; the result is a
    single ciphertext (``group_size`` on the result describes the layout).
    """

    sides = PACKED_SIDES
    span_engine = "bsgs"

    def __init__(self, server: BatchedHheServer, schedule: _Schedule):
        super().__init__(server, schedule)
        self.hoisted = server.hoisted
        self.costs = packed_costs(self.t, self.hoisted)

    # -- rotations -------------------------------------------------------------

    def _span(self, name: str, engine: str, modeled: dict, **attrs):
        from repro.obs import get_tracer

        return get_tracer().span(
            name, metric=f"{name}.seconds", engine=engine, **attrs, **modeled
        )

    def _rotate(
        self, state: CiphertextTensor, steps: int, digits: Optional[np.ndarray] = None
    ) -> CiphertextTensor:
        """Rotate both stacked ciphertexts left by ``steps``: a full keyswitch
        each, or only the apply half through ``state``'s hoisted ``digits``."""
        from repro.obs.cycles import modeled_hoisted_apply_attributes, modeled_rotation_attributes

        gk = self.server.galois_keys
        if digits is None:
            modeled = modeled_rotation_attributes(self.params, state.slots)
            with self._span("hhe.rotate", "bsgs", modeled, steps=steps):
                return self.scheme.tensor_rotate(state, steps, gk)
        modeled = modeled_hoisted_apply_attributes(self.params, state.slots)
        with self._span("hhe.rotate", "bsgs_hoisted", modeled, steps=steps):
            return self.scheme.tensor_rotate_hoisted(state, digits, steps, gk)

    def _hoisted_decompose(self, state: CiphertextTensor) -> np.ndarray:
        """Digit-decompose the c1 halves once for a batch of rotations."""
        from repro.obs.cycles import modeled_decompose_attributes

        modeled = modeled_decompose_attributes(self.params, state.slots)
        with self._span("hhe.hoist_decompose", "bsgs_hoisted", modeled):
            return self.scheme.hoisted_decompose(state)

    # -- program steps ---------------------------------------------------------

    def prepare_affine(self, layer: int, side: str):
        s, schedule, t = self.server, self.schedule, self.t
        B = s._group_size
        half = t * B
        bs, giants = s._bsgs
        n_blocks = self.blocks

        def diagonals(half_side: str):
            # The G*bs generalized diagonals of the blocked affine matrix,
            # pre-rotated for the giant-step Horner form, as ONE
            # (G, bs, L, N) prepared matmul tensor.
            def build():
                mats = schedule.matrices(layer, half_side)  # (n_blocks, t, t)
                rows = np.zeros((giants * bs, half), dtype=mats.dtype)
                j = np.arange(t)
                for d in range(min(giants * bs, t)):
                    ld = np.zeros((t, B), dtype=mats.dtype)
                    ld[:, :n_blocks] = mats[:, j, (j + d) % t].T  # ld[j, b] = M_b[j, j+d]
                    rows[d] = np.roll(ld.reshape(half), (d // bs) * bs * B)
                encoded = s._encode_logical_rows(rows)
                return self.scheme.prepare_matrix(
                    encoded.reshape(giants, bs, self.scheme.params.n)
                )

            prepared = s._caches["diags_bsgs"].get_or_create(
                (schedule.pairs, layer, half_side), build
            )
            return self.scheme._take_prepared_tensor(prepared, "matmul")

        def rc():
            vals = np.stack(
                [schedule.round_constants(layer, h).T for h in ("l", "r")]
            )  # (2, t, n_blocks)
            rows = np.zeros((2, t, B), dtype=vals.dtype)
            rows[:, :, :n_blocks] = vals
            return self.scheme.prepare_add_rows(s._encode_logical_rows(rows.reshape(2, half)))

        diags = [diagonals("l"), diagonals("r")]
        return diags, s._caches["rc_bsgs"].get_or_create((schedule.pairs, layer), rc)

    def affine(self, state: CiphertextTensor, prepared) -> CiphertextTensor:
        """Both affine layer sides on the packed [L, R] pair, BSGS-style.

        With the state-major packing the blocked t*B x t*B matrix has t
        generalized diagonals, all at multiples of the group size B:

            out = sum_d diag(d*B) . rot(d*B, v)

        Split d = g*bs + i and hoist the giant rotations out of the sum
        (Horner over g), pre-rotating the diagonals by ``g*bs*B`` right at
        preparation time:

            out = sum_g rot(g*bs*B, sum_i prep_diag[g, i] . baby_i)

        The bs babies share ONE digit decomposition of the source pair
        (Halevi-Shoup hoisting; each baby rotates the original state by
        ``i*B`` through the shared digit stack), the inner sums are ONE
        prepared-matrix einsum per side, and each Horner step is one
        regular rotation of the fresh [L, R] accumulator pair. A server
        whose ``hoisted`` is False chains the babies one keyswitch at a
        time instead (the reference kernel).
        """
        diags, rc = prepared
        bs, giants = self.server._bsgs
        B = self.server._group_size
        eng = self.scheme.engine
        use_hoisted = self.hoisted and bs > 1
        babies = [state]
        if use_hoisted:
            digits = self._hoisted_decompose(state)
            for i in range(1, bs):
                babies.append(self._rotate(state, i * B, digits))
        else:
            for _ in range(bs - 1):
                babies.append(self._rotate(babies[-1], B))
        giant_sums = [
            eng.ctx.matmul_mod(
                diags[s_idx], np.stack([b.data[s_idx] for b in babies])
            )  # (G, bs, L, N) x (bs, 2, L, N) -> (G, 2, L, N)
            for s_idx in range(2)
        ]
        acc = CiphertextTensor(
            eng.ctx, np.stack([giant_sums[0][giants - 1], giant_sums[1][giants - 1]])
        )
        for g in range(giants - 2, -1, -1):
            rotated = self._rotate(acc, bs * B)
            pair = CiphertextTensor(eng.ctx, np.stack([giant_sums[0][g], giant_sums[1][g]]))
            acc = self.scheme.tensor_add(pair, rotated)
        out = self.scheme.tensor_add_plain_rows(acc, rc)
        # The raw matmul_mod contractions above bypass the Bfv wrappers,
        # so the ledger gets the layer's closed-form bound in one step.
        out.noise = self.scheme.noise_model.bsgs_affine(
            state.noise, bs, giants, round_constant=True, hoisted=use_hoisted
        )
        return out

    def mix(self, state: CiphertextTensor) -> CiphertextTensor:
        s = self.scheme.tensor_add(state[0], state[1])
        return CiphertextTensor.concat(
            [self.scheme.tensor_add(state[0], s), self.scheme.tensor_add(state[1], s)]
        )

    def feistel(self, state: CiphertextTensor) -> CiphertextTensor:
        """Feistel over the packed 2t-element state [L, R].

        ``out[j] = x[j] + x[j-1]^2`` becomes: square both packed sides,
        rotate the squares one state group RIGHT, then mask — groups 1..t-1
        add their left neighbor's square in place, and R's group 0 picks up
        L's last group through the cross mask.
        """
        s = self.server
        half = self.scheme.params.n // 2
        sq = self.scheme.tensor_square(state, s.rlk)
        sq_rot = self._rotate(sq, half - s._group_size)  # right by one group
        masked = self.scheme.tensor_mul_plain_rows(sq_rot, s._mask_not_first)
        out = self.scheme.tensor_add(state, masked)
        cross = self.scheme.tensor_mul_plain_rows(sq_rot[0], s._mask_first)
        return CiphertextTensor.concat([out[0], self.scheme.tensor_add(out[1], cross)])

    def cube(self, state: CiphertextTensor) -> CiphertextTensor:
        rlk = self.server.rlk
        return self.scheme.tensor_mul(self.scheme.tensor_square(state, rlk), state, rlk)

    def sub(self, state, ciphertext):
        grouped = np.zeros((self.t, self.server._group_size), dtype=np.int64)
        for b, block in enumerate(ciphertext):
            grouped[:, b] = [int(c) for c in block]
        rows = self.server._encode_logical_rows(grouped.reshape(1, -1))
        return self._minus(state[0], rows)  # the left side carries KS


def decrypt_batched_result(
    scheme: Bfv, sk, encoder: BatchEncoder, result: BatchedTranscipherResult
) -> List[List[int]]:
    """Client side: decode slot b of every ciphertext into block b's message.

    Packed (BSGS) results carry one ciphertext with ``group_size`` set:
    message element j of block b is read from logical slot
    ``j * group_size + b`` of the generator-ordered slot row.
    """
    n_blocks = len(result.counters)
    if result.group_size:
        B = result.group_size
        (ct,) = result.ciphertexts
        logical = slots_to_logical(encoder.n, encoder.decode(scheme.decrypt_poly(sk, ct)))
        t = (encoder.n // 2) // B
        return [[logical[j * B + b] for j in range(t)] for b in range(n_blocks)]
    per_element_slots = [
        encoder.decode(scheme.decrypt_poly(sk, ct))[:n_blocks] for ct in result.ciphertexts
    ]
    return [[per_element_slots[j][b] for j in range(len(per_element_slots))] for b in range(n_blocks)]
