"""The PASTA round program: one circuit, per-call op counts, one input check.

Every evaluator (the list layout of ``KeystreamCircuit`` and the batched
``engine="scalar"``, the tensor layout, the packed BSGS layout) runs
:func:`repro.pasta.decrypt_circuit.decrypt_program` through one driver
that charges each step's cost into counts owned by the call. These tests
pin the consequences: counts stay exact when worker threads share one
server, the closed forms are the same walk over the same cost tables, and
an out-of-range ciphertext element is rejected by every layout instead of
being silently reduced.
"""

import inspect
import sys
import threading

import pytest

from repro.errors import ParameterError
from repro.fhe import BatchEncoder, Bfv, toy_parameters
from repro.hhe import (
    BatchedHheServer,
    BfvOpCounts,
    HheClient,
    HheServer,
    decrypt_batched_result,
    encrypt_key_batched,
)
from repro.pasta import (
    PASTA_MICRO,
    PASTA_TOY,
    KeystreamCircuit,
    Pasta,
    PastaParams,
    PlainBackend,
    homomorphic_op_counts,
    random_key,
)
from repro.pasta.decrypt_circuit import (
    PACKED_SIDES,
    SLOT_SIDES,
    decrypt_program,
    packed_costs,
    slot_costs,
)

N = 256
THREADS = 4
CALLS_PER_THREAD = 6


@pytest.fixture(scope="module")
def rig():
    params = toy_parameters(PASTA_MICRO.p, n=N, log2_q=230)
    scheme = Bfv(params, seed=b"round-program")
    sk, pk, rlk = scheme.keygen()
    gk = scheme.rotation_keygen(
        sk, BatchedHheServer.required_rotation_steps(PASTA_MICRO, N)
    )
    encoder = BatchEncoder(params.n, PASTA_MICRO.p)
    key = random_key(PASTA_MICRO, seed=b"round-program")
    enc_key = encrypt_key_batched(scheme, pk, encoder, key)
    return scheme, sk, rlk, gk, encoder, Pasta(PASTA_MICRO, key), enc_key


def _server(rig, engine):
    scheme, _, rlk, gk, encoder, _, enc_key = rig
    return BatchedHheServer(
        PASTA_MICRO, scheme, rlk, encoder, enc_key,
        engine=engine, galois_keys=gk if engine == "bsgs" else None,
    )


class TestProgram:
    def test_round_structure(self):
        ops = [step.op for step in decrypt_program(3)]
        round_ = ["affine", "affine", "mix"]
        assert ops == (
            round_ + ["feistel"] + round_ + ["feistel"] + round_ + ["cube"] + round_ + ["sub"]
        )
        assert [s.side for s in decrypt_program(1, PACKED_SIDES) if s.op == "affine"] == [
            "lr", "lr",
        ]

    @pytest.mark.parametrize("params", [PASTA_MICRO, PASTA_TOY], ids=lambda p: p.name)
    def test_list_layout_run_matches_closed_form(self, params):
        key = [int(k) for k in random_key(params)]
        cipher = Pasta(params, key)
        block = [int(c) for c in cipher.encrypt_block(list(range(params.t)), 4, 1)]
        circuit = KeystreamCircuit.for_block(params, 4, 1)
        out, ops = circuit.run(key, PlainBackend(params.field), block)
        assert out == list(range(params.t))
        expected = homomorphic_op_counts(params, engine="slots")
        assert {k: getattr(ops, k) for k in expected} == expected
        assert ops.decompositions == 0

    def test_partial_block_charges_only_its_elements(self, toy_key):
        circuit = KeystreamCircuit.for_block(PASTA_TOY, 2, 2)
        _, ops = circuit.run([int(k) for k in toy_key], PlainBackend(PASTA_TOY.field), [5])
        full = homomorphic_op_counts(PASTA_TOY)
        assert ops.plain_adds == full["plain_adds"] - (PASTA_TOY.t - 1)

    @pytest.mark.parametrize("t,rounds", [(2, 1), (4, 2), (32, 3), (9, 2)])
    def test_closed_forms_are_the_cost_tables_walked(self, t, rounds):
        params = PastaParams(name="x", t=t, rounds=rounds, p=PASTA_MICRO.p, secure=False)
        for engine, costs, sides in (
            ("slots", slot_costs(t), SLOT_SIDES),
            ("bsgs_hoisted", packed_costs(t, True), PACKED_SIDES),
        ):
            total = BfvOpCounts()
            for step in decrypt_program(rounds, sides):
                total.merge(costs[step.op])
            counts = homomorphic_op_counts(params, engine=engine)
            assert counts == {k: getattr(total, k) for k in counts}

    def test_server_has_no_shared_counter_or_hoisting_option(self, rig):
        server = _server(rig, "tensor")
        assert not hasattr(server, "_ops")
        assert "hoisted" not in inspect.signature(BatchedHheServer).parameters
        assert BatchedHheServer.hoisted is True


class TestSharedServerThreads:
    """One server shared by worker threads (as ``HheRecovery`` shares it).

    Each call must report exactly its own op counts; a counter kept on
    the shared server would be reset and incremented by concurrent calls
    while every decryption still came out right.
    """

    @pytest.mark.parametrize(
        "engine,formula", [("tensor", "slots"), ("bsgs", "bsgs_hoisted")]
    )
    def test_concurrent_calls_keep_their_own_counts(self, rig, engine, formula):
        self._run_concurrent(rig, engine, formula, mixed=False)

    @pytest.mark.parametrize(
        "engine,formula", [("tensor", "slots"), ("bsgs", "bsgs_hoisted")]
    )
    def test_concurrent_mixed_nonce_calls_keep_their_own_counts(self, rig, engine, formula):
        self._run_concurrent(rig, engine, formula, mixed=True)

    def _run_concurrent(self, rig, engine, formula, mixed):
        scheme, sk, _, _, encoder, cipher, _ = rig
        server = _server(rig, engine)
        assert server.eval_engine == engine
        expected = homomorphic_op_counts(PASTA_MICRO, engine=formula)
        start = threading.Barrier(THREADS)
        outcomes = []
        errors = []

        def worker(index):
            try:
                start.wait()
                for call in range(CALLS_PER_THREAD):
                    nonce = 1000 + index * CALLS_PER_THREAD + call
                    messages = [[(nonce + b + j) % PASTA_MICRO.p for j in range(2)]
                                for b in range(2)]
                    # Mixed: two one-block frames packed into one call.
                    nonces = [nonce, nonce + 500] if mixed else [nonce, nonce]
                    counters = [0, 0] if mixed else [0, 1]
                    blocks = [
                        [int(x) for x in cipher.encrypt_block(m, nonce=n, counter=c)]
                        for m, n, c in zip(messages, nonces, counters)
                    ]
                    result = server.transcipher_blocks(
                        blocks, nonce=nonces if mixed else nonce, counters=counters
                    )
                    outcomes.append((messages, result))
            except Exception as exc:  # surfaced below, on the test thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers as finely as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(outcomes) == THREADS * CALLS_PER_THREAD

        wrong_counts = 0
        for messages, result in outcomes:
            measured = {k: getattr(result.ops, k) for k in expected}
            wrong_counts += measured != expected
            assert decrypt_batched_result(scheme, sk, encoder, result) == messages
            assert all(ct.noise is not None for ct in result.ciphertexts)
        assert wrong_counts == 0, f"{wrong_counts} of {len(outcomes)} calls had wrong ops"


#: c + p, a negative element and one far beyond any prime.
OUT_OF_RANGE = ("c_plus_p", "minus_one", "two_pow_70")


def _corrupt(block, how):
    p = PASTA_MICRO.p
    bad = list(block)
    bad[0] = {"c_plus_p": bad[0] + p, "minus_one": -1, "two_pow_70": 2**70}[how]
    return bad


class TestOutOfRangeCiphertext:
    @pytest.mark.parametrize("how", OUT_OF_RANGE)
    @pytest.mark.parametrize("engine", ["scalar", "tensor", "bsgs"])
    def test_every_batched_layout_rejects(self, rig, engine, how):
        cipher = rig[5]
        server = _server(rig, engine)
        assert server.eval_engine == engine
        block = [int(x) for x in cipher.encrypt_block([3, 4], nonce=77, counter=0)]
        with pytest.raises(ParameterError, match="outside"):
            server.transcipher_blocks([_corrupt(block, how)], nonce=77, counters=[0])

    @pytest.mark.parametrize("how", OUT_OF_RANGE)
    def test_list_layout_rejects(self, how):
        key = [int(k) for k in random_key(PASTA_MICRO, b"range")]
        block = [int(c) for c in Pasta(PASTA_MICRO, key).encrypt_block([1, 2], 3, 0)]
        circuit = KeystreamCircuit.for_block(PASTA_MICRO, 3, 0)
        with pytest.raises(ParameterError, match="outside"):
            circuit.decrypt(key, _corrupt(block, how), PlainBackend(PASTA_MICRO.field))

    def test_scalar_hhe_server_rejects(self):
        client = HheClient(
            PASTA_MICRO, toy_parameters(PASTA_MICRO.p, n=N, log2_q=190), seed=b"range"
        )
        server = HheServer.from_client(client)
        block = [int(c) for c in client.encrypt([5, 6], nonce=1)]
        with pytest.raises(ParameterError, match="outside"):
            server.transcipher_block(_corrupt(block, "minus_one"), nonce=1, counter=0)
