"""Packed BSGS transciphering vs the tensor path (repro.hhe.batched).

The ``engine="bsgs"`` evaluator packs the whole state into one ciphertext
pair and evaluates affine layers as baby-step/giant-step diagonal sums.
It must be an *amortization, not an approximation*: decrypted keystreams
identical to the tensor path for every parameter draw, op counts matching
the closed form exactly, across both prime variants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.ff.params import P33
from repro.fhe import BatchEncoder, Bfv, toy_parameters
from repro.hhe import BatchedHheServer, decrypt_batched_result, encrypt_key_batched
from repro.pasta import (
    PASTA_MICRO,
    Pasta,
    PastaParams,
    bsgs_split,
    homomorphic_op_counts,
    random_key,
)

from hhe_reference import UnhoistedBsgsServer

MICRO_33 = PastaParams(name="micro-33", t=2, rounds=2, p=P33, secure=False)
#: t=4 exercises a non-trivial split (bs=2, giants=2): the giant-step
#: Horner loop and the diagonal pre-rotation only run when giants > 1.
QUAD = PastaParams(name="quad-17", t=4, rounds=2, p=PASTA_MICRO.p, secure=False)

N = 256
HALF = N // 2


def _setup(pasta, seed=b"bsgs-tests"):
    if pasta.p == P33:
        # Wider q than the tensor-path tests' 340: every Galois key switch
        # adds the same ~62-bit base-T noise floor relinearization pays
        # once, which costs 16 more budget bits against a 33-bit plaintext.
        params = toy_parameters(P33, n=N, log2_q=400, prime_bits=26)
    else:
        params = toy_parameters(pasta.p, n=N, log2_q=230)
    scheme = Bfv(params, seed=seed)
    sk, pk, rlk = scheme.keygen()
    gk = scheme.rotation_keygen(sk, BatchedHheServer.required_rotation_steps(pasta, N))
    encoder = BatchEncoder(params.n, pasta.p)
    key = random_key(pasta, seed=seed)
    enc_key = encrypt_key_batched(scheme, pk, encoder, key)
    return scheme, sk, rlk, gk, encoder, key, enc_key


@pytest.fixture(scope="module")
def micro():
    return _setup(PASTA_MICRO)


@pytest.fixture(scope="module")
def micro_33():
    return _setup(MICRO_33)


@pytest.fixture(scope="module")
def quad():
    return _setup(QUAD)


def _transcipher(pasta, rig, engine, messages, nonce, gk=None, hoisted=True):
    scheme, sk, rlk, galois, encoder, key, enc_key = rig
    cipher = Pasta(pasta, key)
    blocks = [
        [int(x) for x in cipher.encrypt_block(m, nonce=nonce, counter=c)]
        for c, m in enumerate(messages)
    ]
    server_class = BatchedHheServer if hoisted else UnhoistedBsgsServer
    server = server_class(
        pasta, scheme, rlk, encoder, enc_key,
        engine=engine, galois_keys=galois if engine == "bsgs" else gk,
    )
    result = server.transcipher_blocks(
        blocks, nonce=nonce, counters=list(range(len(messages)))
    )
    return server, result, decrypt_batched_result(scheme, sk, encoder, result)


class TestBsgsSplit:
    @given(t=st.sampled_from([2, 4, 8, 16, 32, 64, 128]))
    @settings(max_examples=7, deadline=None)
    def test_power_of_two_split_is_exact(self, t):
        bs, giants = bsgs_split(t)
        assert bs * giants == t
        assert bs >= giants  # balanced, baby-heavy

    @given(t=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_split_covers_all_diagonals(self, t):
        bs, giants = bsgs_split(t)
        assert bs * giants >= t
        assert (giants - 1) * bs < t  # no all-zero giant step

    def test_non_positive_rejected(self):
        with pytest.raises(ParameterError):
            bsgs_split(0)


class TestBsgsVsTensor:
    """Decrypted keystreams identical across engines, both prime widths."""

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_micro_17_bit_parity(self, micro, data):
        p = PASTA_MICRO.p
        n_blocks = data.draw(st.integers(min_value=1, max_value=3))
        messages = [
            data.draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                               min_size=PASTA_MICRO.t, max_size=PASTA_MICRO.t))
            for _ in range(n_blocks)
        ]
        nonce = data.draw(st.integers(min_value=1, max_value=2**30))
        _, _, via_tensor = _transcipher(PASTA_MICRO, micro, "tensor", messages, nonce)
        _, _, via_bsgs = _transcipher(PASTA_MICRO, micro, "bsgs", messages, nonce)
        assert via_bsgs == via_tensor == messages

    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_micro_33_bit_parity(self, micro_33, data):
        p = MICRO_33.p
        messages = [
            data.draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                               min_size=MICRO_33.t, max_size=MICRO_33.t))
        ]
        nonce = data.draw(st.integers(min_value=1, max_value=2**30))
        _, _, via_tensor = _transcipher(MICRO_33, micro_33, "tensor", messages, nonce)
        _, _, via_bsgs = _transcipher(MICRO_33, micro_33, "bsgs", messages, nonce)
        assert via_bsgs == via_tensor == messages

    def test_giant_step_path_parity(self, quad):
        # t=4 -> (bs, giants) = (2, 2): the Horner giant loop actually runs.
        assert bsgs_split(QUAD.t) == (2, 2)
        messages = [[(11 * b + j) % QUAD.p for j in range(QUAD.t)] for b in range(2)]
        _, _, via_tensor = _transcipher(QUAD, quad, "tensor", messages, 77)
        server, result, via_bsgs = _transcipher(QUAD, quad, "bsgs", messages, 77)
        assert via_bsgs == via_tensor == messages
        assert result.group_size == HALF // QUAD.t
        assert len(result.ciphertexts) == 1


class TestHoistedBsgs:
    """Hoisted baby steps: same decrypted keystream, one shared decomposition.

    Hoisted rotations decrypt identically but are NOT residue-identical to
    the unhoisted chain (different keyswitch error cross terms), so parity
    is asserted on decrypted messages — the same guarantee the BSGS-vs-
    tensor tests pin.
    """

    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_hoisted_vs_unhoisted_parity_17_bit(self, micro, data):
        p = PASTA_MICRO.p
        messages = [
            data.draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                               min_size=PASTA_MICRO.t, max_size=PASTA_MICRO.t))
            for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
        ]
        nonce = data.draw(st.integers(min_value=1, max_value=2**30))
        _, _, unhoisted = _transcipher(
            PASTA_MICRO, micro, "bsgs", messages, nonce, hoisted=False
        )
        _, _, hoisted = _transcipher(PASTA_MICRO, micro, "bsgs", messages, nonce)
        assert hoisted == unhoisted == messages

    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_hoisted_vs_unhoisted_parity_33_bit(self, micro_33, data):
        p = MICRO_33.p
        messages = [
            data.draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                               min_size=MICRO_33.t, max_size=MICRO_33.t))
        ]
        nonce = data.draw(st.integers(min_value=1, max_value=2**30))
        _, _, unhoisted = _transcipher(
            MICRO_33, micro_33, "bsgs", messages, nonce, hoisted=False
        )
        _, _, hoisted = _transcipher(MICRO_33, micro_33, "bsgs", messages, nonce)
        assert hoisted == unhoisted == messages

    def test_giant_step_hoisted_parity(self, quad):
        messages = [[(13 * b + j) % QUAD.p for j in range(QUAD.t)] for b in range(2)]
        _, _, unhoisted = _transcipher(QUAD, quad, "bsgs", messages, 42, hoisted=False)
        _, _, hoisted = _transcipher(QUAD, quad, "bsgs", messages, 42)
        assert hoisted == unhoisted == messages

    def test_hoisted_run_matches_closed_form(self, micro):
        server, result, _ = _transcipher(PASTA_MICRO, micro, "bsgs", [[7, 9], [3, 4]], 5)
        expected = homomorphic_op_counts(PASTA_MICRO, engine="bsgs_hoisted")
        measured = {k: getattr(result.ops, k) for k in expected}
        assert measured == expected
        assert expected["decompositions"] == 2 * (PASTA_MICRO.rounds + 1)

    def test_giant_step_hoisted_run_matches_closed_form(self, quad):
        server, result, _ = _transcipher(QUAD, quad, "bsgs", [[1, 2, 3, 4]], 5)
        expected = homomorphic_op_counts(QUAD, engine="bsgs_hoisted")
        measured = {k: getattr(result.ops, k) for k in expected}
        assert measured == expected

    def test_unhoisted_run_reports_zero_decompositions(self, micro):
        _, result, _ = _transcipher(
            PASTA_MICRO, micro, "bsgs", [[7, 9]], 5, hoisted=False
        )
        assert result.ops.decompositions == 0
        expected = homomorphic_op_counts(PASTA_MICRO, engine="bsgs")
        measured = {k: getattr(result.ops, k) for k in expected}
        assert measured == expected

    @given(t=st.sampled_from([2, 4, 16, 64]), rounds=st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_hoisted_formula_only_adds_decompositions(self, t, rounds):
        params = PastaParams(name="x", t=t, rounds=rounds, p=PASTA_MICRO.p, secure=False)
        plain = homomorphic_op_counts(params, engine="bsgs")
        hoist = homomorphic_op_counts(params, engine="bsgs_hoisted")
        bs, _ = bsgs_split(t)
        assert hoist.pop("decompositions") == (2 * (rounds + 1) if bs > 1 else 0)
        assert hoist == plain  # rotation totals unchanged by hoisting

    def test_hoisted_superset_of_rotation_steps(self):
        # t=16 -> bs=4: hoisted babies rotate the source directly by every
        # k*B, so the key schedule must cover 2B and 3B too.
        wide = PastaParams(name="x16", t=16, rounds=2, p=PASTA_MICRO.p, secure=False)
        steps = BatchedHheServer.required_rotation_steps(wide, N)
        B = HALF // wide.t
        bs, giants = bsgs_split(wide.t)
        assert bs == 4
        expected = {k * B for k in range(1, bs)} | {bs * B, HALF - B}
        assert set(steps) == expected
        assert steps == sorted(expected)


class TestOpCounts:
    def test_bsgs_run_matches_closed_form(self, micro):
        messages = [[7, 9], [3, 4]]
        server, result, _ = _transcipher(PASTA_MICRO, micro, "bsgs", messages, 5)
        expected = homomorphic_op_counts(PASTA_MICRO, engine="bsgs")
        measured = {k: getattr(result.ops, k) for k in expected}
        assert measured == expected

    def test_giant_step_run_matches_closed_form(self, quad):
        messages = [[1, 2, 3, 4]]
        server, result, _ = _transcipher(QUAD, quad, "bsgs", messages, 5)
        expected = homomorphic_op_counts(QUAD, engine="bsgs")
        measured = {k: getattr(result.ops, k) for k in expected}
        assert measured == expected

    def test_tensor_run_reports_zero_rotations(self, micro):
        _, result, _ = _transcipher(PASTA_MICRO, micro, "tensor", [[7, 9]], 5)
        assert result.ops.rotations == 0

    @given(t=st.sampled_from([2, 4, 8, 16, 32, 64, 128]),
           rounds=st.integers(min_value=1, max_value=4))
    @settings(max_examples=12, deadline=None)
    def test_bsgs_formula_scaling(self, t, rounds):
        params = PastaParams(name="x", t=t, rounds=rounds, p=PASTA_MICRO.p, secure=False)
        counts = homomorphic_op_counts(params, engine="bsgs")
        bs, giants = bsgs_split(t)
        sides = 2 * (rounds + 1)
        # O(t) plain muls and O(sqrt t) rotations per affine side — the
        # point of the BSGS path vs the slots formula's t^2 per side.
        assert counts["plain_muls"] == sides * t + 3 * (rounds - 1)
        assert counts["rotations"] == sides * (bs + giants - 2) + 2 * (rounds - 1)
        slots = homomorphic_op_counts(params, engine="slots")
        assert slots["plain_muls"] == sides * t * t

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError, match="engine"):
            homomorphic_op_counts(PASTA_MICRO, engine="banana")


class TestEngineSelection:
    def test_auto_picks_bsgs_with_rotation_keys(self, micro):
        scheme, sk, rlk, gk, encoder, key, enc_key = micro
        server = BatchedHheServer(
            PASTA_MICRO, scheme, rlk, encoder, enc_key, galois_keys=gk
        )
        assert server.eval_engine == "bsgs"
        assert server.packed_capacity == HALF // PASTA_MICRO.t

    def test_auto_without_keys_stays_tensor(self, micro):
        scheme, sk, rlk, gk, encoder, key, enc_key = micro
        server = BatchedHheServer(PASTA_MICRO, scheme, rlk, encoder, enc_key)
        assert server.eval_engine == "tensor"

    def test_bsgs_without_keys_rejected(self, micro):
        scheme, sk, rlk, gk, encoder, key, enc_key = micro
        with pytest.raises(ParameterError, match="[Gg]alois"):
            BatchedHheServer(
                PASTA_MICRO, scheme, rlk, encoder, enc_key, engine="bsgs"
            )

    def test_bsgs_with_incomplete_keys_rejected(self, quad):
        scheme, sk, rlk, gk, encoder, key, enc_key = quad
        partial = scheme.rotation_keygen(sk, [HALF // QUAD.t])  # baby step only
        with pytest.raises(ParameterError, match="missing"):
            BatchedHheServer(
                QUAD, scheme, rlk, encoder, enc_key, engine="bsgs", galois_keys=partial
            )

    def test_overflow_batch_falls_back_to_tensor_eval(self, quad):
        # More blocks than the packed capacity: the server must still
        # answer (tensor layout), not truncate or crash.
        scheme, sk, rlk, gk, encoder, key, enc_key = quad
        capacity = HALF // QUAD.t
        n_blocks = capacity + 1
        messages = [[(b + j) % QUAD.p for j in range(QUAD.t)] for b in range(n_blocks)]
        server, result, decrypted = _transcipher(QUAD, quad, "bsgs", messages, 91)
        assert decrypted == messages
        assert result.group_size is None  # tensor layout, t cts per state
        assert len(result.ciphertexts) == QUAD.t

    def test_required_rotation_steps_are_deduped_and_sorted(self):
        steps = BatchedHheServer.required_rotation_steps(QUAD, N)
        assert steps == sorted(set(steps))
        B = HALF // QUAD.t
        bs, giants = bsgs_split(QUAD.t)
        expected = {B, bs * B, HALF - B}
        assert set(steps) <= expected
