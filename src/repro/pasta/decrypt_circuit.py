"""PASTA decryption as one round program (for the HHE server).

The server holds the FHE-encrypted key and the *public* per-block material
(nonce, counter -> matrices and round constants). "Homomorphic HHE
decryption" (paper Fig. 1) evaluates the PASTA permutation over encrypted
state elements and subtracts the result from the symmetric ciphertext.

That circuit is written down once, as :func:`decrypt_program` — per round
affine (each side) -> mix -> Feistel, or cube on the last round; then the
final affine -> mix; then ``c - KS`` — and :func:`run_program` is the one
loop that walks it. Each state layout (:class:`CircuitLayout`) supplies
only kernels for the steps and a per-step op-cost table; the driver calls
the kernel, opens the step's span and adds the step's cost into counts
owned by that call. :func:`homomorphic_op_counts` walks the same program
over the same tables. :class:`ListLayout` (t backend values per side)
serves :class:`KeystreamCircuit` over :class:`PlainBackend` or
``repro.hhe.BfvBackend`` and the batched scalar engine over slot
plaintexts; the tensor and packed BSGS layouts live in
:mod:`repro.hhe.batched`.

Cost model: one affine layer costs t^2 plaintext multiplications; the
Feistel S-box costs one ciphertext-ciphertext square per element; the cube
S-box costs two. Multiplicative depth is ``rounds + 1`` (each Feistel round
adds one level, the cube adds two).
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Generic, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

from repro.errors import ParameterError
from repro.ff.prime import PrimeField
from repro.pasta.cipher import BlockMaterials, generate_block_materials
from repro.pasta.params import PastaParams

T = TypeVar("T")


class ArithmeticBackend(Generic[T]):
    """Operations the circuit needs; plug in plain or homomorphic values."""

    def add(self, a: T, b: T) -> T:
        raise NotImplementedError

    def add_plain(self, a: T, constant: int) -> T:
        raise NotImplementedError

    def mul_plain(self, a: T, constant: int) -> T:
        raise NotImplementedError

    def square(self, a: T) -> T:
        raise NotImplementedError

    def mul(self, a: T, b: T) -> T:
        raise NotImplementedError

    def neg(self, a: T) -> T:
        raise NotImplementedError


class PlainBackend(ArithmeticBackend[int]):
    """Reference backend over plain field elements."""

    def __init__(self, field: PrimeField):
        self.field = field

    def add(self, a: int, b: int) -> int:
        return self.field.add(a, b)

    def add_plain(self, a: int, constant: int) -> int:
        return self.field.add(a, constant)

    def mul_plain(self, a: int, constant: int) -> int:
        return self.field.mul(a, constant)

    def square(self, a: int) -> int:
        return self.field.square(a)

    def mul(self, a: int, b: int) -> int:
        return self.field.mul(a, b)

    def neg(self, a: int) -> int:
        return self.field.neg(a)


@dataclass
class BfvOpCounts:
    """Homomorphic-operation counters (for the HHE cost benchmark)."""

    adds: int = 0
    plain_adds: int = 0
    plain_muls: int = 0
    squares: int = 0
    muls: int = 0
    relins: int = 0
    rotations: int = 0  #: Galois automorphism + key switch (BSGS engine only)
    decompositions: int = 0  #: Hoisted digit decompositions shared by rotations

    def merge(self, other: "BfvOpCounts") -> "BfvOpCounts":
        """Field-wise in-place accumulation of ``other``; returns ``self``.

        Iterates :func:`dataclasses.fields` rather than a hand-listed
        attribute tuple, so a counter field added later (the way
        ``rotations`` was) can never be silently dropped from multi-block
        totals again.
        """
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def total(self) -> int:
        """Sum of every counter field (fields-driven, like :meth:`merge`)."""
        return sum(getattr(self, f.name) for f in dataclasses.fields(self))


@dataclass
class CircuitCost:
    """A :class:`KeystreamCircuit`'s op totals under the circuit's own names."""

    plain_muls: int = 0
    plain_adds: int = 0
    ct_adds: int = 0
    ct_squares: int = 0
    ct_muls: int = 0


def bsgs_split(t: int) -> tuple:
    """Baby-step/giant-step factorization ``(bs, giants)`` of a t-diagonal sum.

    For the power-of-two t of every PASTA variant the split is exact
    (``bs * giants == t``, no zero diagonals): ``bs = 2^ceil(log2(t)/2)``,
    the balanced square-ish factor. Non-power-of-two t fall back to
    ``bs = ceil(sqrt(t))`` with a padded last giant step.
    """
    if t < 1:
        raise ParameterError(f"BSGS needs a positive dimension, got {t}")
    if t & (t - 1) == 0:
        k = t.bit_length() - 1
        bs = 1 << ((k + 1) // 2)
        return bs, t // bs
    bs = int(t**0.5)
    while bs * bs < t:
        bs += 1
    return bs, -(-t // bs)


# -- the round program ------------------------------------------------------------

#: Affine steps per layer: one per side on the t-element layouts, one for
#: the packed [L, R] pair.
SLOT_SIDES = ("l", "r")
PACKED_SIDES = ("lr",)


class Step(NamedTuple):
    """One program step: ``op`` in affine | mix | feistel | cube | sub."""

    op: str
    layer: int
    side: str = ""  #: the affine side(s) the step covers


@lru_cache(maxsize=None)
def decrypt_program(rounds: int, sides: Tuple[str, ...] = SLOT_SIDES) -> Tuple[Step, ...]:
    """The PASTA decryption circuit ``m = c - Trunc(pi(K))`` as a step list."""
    steps: List[Step] = []
    for layer in range(rounds + 1):
        steps += [Step("affine", layer, side) for side in sides]
        steps.append(Step("mix", layer))
        if layer < rounds:
            steps.append(Step("feistel" if layer < rounds - 1 else "cube", layer))
    steps.append(Step("sub", rounds))
    return tuple(steps)


def slot_costs(t: int, width: Optional[int] = None) -> Dict[str, BfvOpCounts]:
    """Per-step op costs of the t-ciphertexts-per-side layouts (list,
    tensor). The S-boxes act on the concatenated 2t state; ``c - KS`` adds
    ``width`` ciphertext elements (t for a full block)."""
    n = 2 * t
    return {
        "affine": BfvOpCounts(plain_muls=t * t, adds=t * (t - 1), plain_adds=t),
        "mix": BfvOpCounts(adds=3 * t),
        "feistel": BfvOpCounts(squares=n - 1, relins=n - 1, adds=n - 1),
        "cube": BfvOpCounts(squares=n, muls=n, relins=2 * n),
        "sub": BfvOpCounts(plain_adds=t if width is None else width),
    }


def packed_costs(t: int, hoisted: bool) -> Dict[str, BfvOpCounts]:
    """Per-step op costs of the packed BSGS layout. One affine step covers
    both sides of the [L, R] pair: per side bs*G diagonal plain muls, bs*G-1
    adds, one rc add and (bs-1) baby + (G-1) giant rotations, plus one
    shared digit decomposition per side when hoisted and bs > 1."""
    bs, giants = bsgs_split(t)
    return {
        "affine": BfvOpCounts(
            plain_muls=2 * bs * giants,
            adds=2 * (bs * giants - 1),
            plain_adds=2,
            rotations=2 * ((bs - 1) + (giants - 1)),
            decompositions=2 if hoisted and bs > 1 else 0,
        ),
        "mix": BfvOpCounts(adds=3),
        "feistel": BfvOpCounts(squares=2, relins=2, rotations=2, plain_muls=3, adds=3),
        "cube": BfvOpCounts(squares=2, muls=2, relins=4),
        "sub": BfvOpCounts(plain_adds=1),
    }


def homomorphic_op_counts(params: PastaParams, engine: str = "slots") -> dict:
    """Closed-form BFV op counts of one homomorphic PASTA evaluation.

    :func:`decrypt_program` walked over a layout's cost table, for one
    batched evaluation (:class:`repro.hhe.batched.BatchedHheServer`) of any
    batch size: ``engine="slots"`` for t ciphertexts per state side (the
    scalar and tensor evaluators, :func:`slot_costs`), ``"bsgs"`` for the
    packed layout (:func:`packed_costs`: O(t) plain muls and O(sqrt t)
    rotations per side instead of t^2 plain muls), and ``"bsgs_hoisted"``
    for the same plus one shared digit ``decompositions`` per affine side
    (bs > 1) — the only formula carrying that key. Parity tests and the
    benchmarks assert real runs hit these exactly.
    """
    if engine == "slots":
        costs, sides = slot_costs(params.t), SLOT_SIDES
    elif engine in ("bsgs", "bsgs_hoisted"):
        costs, sides = packed_costs(params.t, engine == "bsgs_hoisted"), PACKED_SIDES
    else:
        raise ParameterError(
            f"unknown op-count engine {engine!r} ('slots', 'bsgs' or 'bsgs_hoisted')"
        )
    total = BfvOpCounts()
    for step in decrypt_program(params.rounds, sides):
        total.merge(costs[step.op])
    counts = dataclasses.asdict(total)
    if engine != "bsgs_hoisted":
        del counts["decompositions"]
    return counts


class CircuitLayout:
    """One state layout: kernels for every program step plus their op costs.

    Kernels (``state`` is whatever the layout carries between steps; the
    driver never looks inside):

    * ``prepare_affine(layer, side)`` — the step's public constants,
      fetched before the step's span opens;
    * ``affine(state, prepared)``, ``mix(state)``, ``feistel(state)``,
      ``cube(state)`` — the next state;
    * ``sub(state, ciphertext)`` — ``m = c - KS``: the output ciphertexts.
    """

    #: Affine sides, one program step each.
    sides: Tuple[str, ...] = SLOT_SIDES
    #: step op -> :class:`BfvOpCounts` one call of its kernel costs.
    costs: Dict[str, BfvOpCounts]
    #: ``engine`` attribute of the layout's ``hhe.affine`` spans; None
    #: opens none (the reference evaluations).
    span_engine: Optional[str] = None
    #: Blocks per evaluation, for the spans' modeled cycles.
    blocks: int = 1


def _affine_span(params: PastaParams, layout: CircuitLayout, step: Step):
    """``hhe.affine`` span of one affine step, carrying the MatMul stage's
    modeled cycles (``6 + t + log2 t`` per block and side) for
    :func:`repro.obs.cycles.attribute`."""
    if layout.span_engine is None:
        return contextlib.nullcontext()
    from repro.obs import get_tracer
    from repro.obs.cycles import modeled_matmul_attributes

    return get_tracer().span(
        "hhe.affine",
        metric="hhe.affine.seconds",
        engine=layout.span_engine,
        layer=step.layer,
        side=step.side,
        # A packed "lr" step covers both sides of every block.
        **modeled_matmul_attributes(params, layout.blocks * len(step.side)),
    )


def run_program(
    params: PastaParams,
    layout: CircuitLayout,
    state: Any,
    ciphertext: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[Any, BfvOpCounts]:
    """Run :func:`decrypt_program` on ``layout`` from the key ``state``.

    ``ciphertext`` holds one sequence of elements per block; every element
    must be a canonical residue in ``[0, p)`` (one check for every layout —
    nothing is silently reduced). Without it the run stops before
    ``c - KS`` and returns the final state. Returns ``(output, ops)``,
    where ``ops`` belongs to this call alone, so concurrent calls on one
    shared server cannot mix their counts.
    """
    if ciphertext is not None:
        for block in ciphertext:
            for c in block:
                if not 0 <= int(c) < params.p:
                    raise ParameterError(
                        f"ciphertext element {int(c)} is outside [0, p={params.p})"
                    )
    ops = BfvOpCounts()
    for step in decrypt_program(params.rounds, layout.sides):
        if step.op == "affine":
            prepared = layout.prepare_affine(step.layer, step.side)
            with _affine_span(params, layout, step):
                state = layout.affine(state, prepared)
        elif step.op == "sub":
            if ciphertext is None:
                break
            state = layout.sub(state, ciphertext)
        else:
            state = getattr(layout, step.op)(state)
        ops.merge(layout.costs[step.op])
    return state, ops


class ListLayout(CircuitLayout, Generic[T]):
    """t backend values per state side (``(xl, xr)`` lists), one backend
    call per scalar op. ``constants`` gives the public values in the
    backend's form: ``affine(layer, side)`` -> ``(entry(j, k), rc(j))``
    accessors, and ``plain(column)`` for one ciphertext element across the
    blocks. ``c - KS`` subtracts ``width`` elements."""

    def __init__(
        self,
        backend: ArithmeticBackend[T],
        constants,
        t: int,
        width: Optional[int] = None,
        span_engine: Optional[str] = None,
        blocks: int = 1,
    ):
        self.backend = backend
        self.constants = constants
        self.t = t
        self.width = t if width is None else width
        self.costs = slot_costs(t, self.width)
        self.span_engine = span_engine
        self.blocks = blocks

    def prepare_affine(self, layer: int, side: str):
        return (side, *self.constants.affine(layer, side))

    def affine(self, state, prepared):
        side, entry, rc = prepared
        xl, xr = state
        x = xl if side == "l" else xr
        b = self.backend
        out: List[T] = []
        for j in range(len(x)):
            acc = b.mul_plain(x[0], entry(j, 0))
            for k in range(1, len(x)):
                acc = b.add(acc, b.mul_plain(x[k], entry(j, k)))
            out.append(b.add_plain(acc, rc(j)))
        return (out, xr) if side == "l" else (xl, out)

    def mix(self, state):
        xl, xr = state
        add = self.backend.add
        s = [add(a, b) for a, b in zip(xl, xr)]
        return [add(a, m) for a, m in zip(xl, s)], [add(b, m) for b, m in zip(xr, s)]

    def feistel(self, state):
        full = state[0] + state[1]
        b = self.backend
        out = [full[0]] + [b.add(full[j], b.square(full[j - 1])) for j in range(1, len(full))]
        return out[: self.t], out[self.t :]

    def cube(self, state):
        b = self.backend
        out = [b.mul(b.square(x), x) for x in state[0] + state[1]]
        return out[: self.t], out[self.t :]

    def sub(self, state, ciphertext):
        b = self.backend
        keystream = state[0]
        return [
            b.add_plain(
                b.neg(keystream[j]), self.constants.plain([block[j] for block in ciphertext])
            )
            for j in range(self.width)
        ]


class KeystreamCircuit:
    """The keystream computation KS = Trunc(pi(K)) as a backend-generic
    circuit: the :class:`ListLayout` with this block's public materials."""

    def __init__(self, params: PastaParams, materials: BlockMaterials):
        # Structural equality, not identity: materials deserialized or built
        # from an equal-but-distinct PastaParams instance are just as valid.
        if materials.params != params:
            raise ParameterError("materials were generated for different parameters")
        self.params = params
        self.materials = materials
        #: Op totals over every run of this circuit.
        self.ops = BfvOpCounts()

    @classmethod
    def for_block(cls, params: PastaParams, nonce: int, counter: int) -> "KeystreamCircuit":
        """Build the circuit from public data only (what the server knows)."""
        return cls(params, generate_block_materials(params, nonce, counter))

    @staticmethod
    def multiplicative_depth(params: PastaParams) -> int:
        """Ciphertext-multiplication depth: one per Feistel round, two for cube."""
        return (params.rounds - 1) + 2

    @property
    def cost(self) -> CircuitCost:
        o = self.ops
        return CircuitCost(o.plain_muls, o.plain_adds, o.adds, o.squares, o.muls)

    # -- list-layout constants ------------------------------------------------

    def affine(self, layer: int, side: str):
        m = self.materials
        matrix = m.matrix_l(layer) if side == "l" else m.matrix_r(layer)
        rc = getattr(m.layers[layer], f"rc_{side}")
        return (lambda j, k: int(matrix[j, k])), (lambda j: int(rc[j]))

    @staticmethod
    def plain(column: Sequence[int]) -> int:
        (c,) = column
        return int(c)

    # -- evaluation -----------------------------------------------------------

    def run(
        self,
        key: Sequence[T],
        backend: ArithmeticBackend[T],
        ciphertext: Optional[Sequence[int]] = None,
    ) -> Tuple[List[T], BfvOpCounts]:
        """One run over ``backend``: outputs plus this run's op counts.

        Without ``ciphertext`` the outputs are the t keystream values; with
        one block of at most t public elements they are ``c_j - KS_j``.
        """
        params = self.params
        t = params.t
        if ciphertext is not None and len(ciphertext) > t:
            raise ParameterError(f"block holds at most t={t} elements")
        if len(key) != params.key_size:
            raise ParameterError(f"expected {params.key_size} key values, got {len(key)}")
        blocks = None if ciphertext is None else [ciphertext]
        layout = ListLayout(backend, self, t, None if blocks is None else len(ciphertext))
        out, ops = run_program(params, layout, (list(key[:t]), list(key[t:])), blocks)
        self.ops.merge(ops)
        return (out[0] if ciphertext is None else out), ops

    def evaluate(self, key: Sequence[T], backend: ArithmeticBackend[T]) -> List[T]:
        """Run the permutation on backend values; returns the t keystream values."""
        return self.run(key, backend)[0]

    def decrypt(
        self, key: Sequence[T], ciphertext: Sequence[int], backend: ArithmeticBackend[T]
    ) -> List[T]:
        """Homomorphic HHE decryption of one block: ``m_j = c_j - KS_j``.

        The ciphertext elements are plain (public) integers; the key values
        live in the backend's domain. The result is one backend value per
        ciphertext element, encrypting/holding the message elements.
        """
        return self.run(key, backend, ciphertext)[0]
