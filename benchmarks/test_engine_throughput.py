"""Bench: every transciphering evaluator on one measurement path.

An END-TO-END ``transcipher_blocks`` run of the batched HHE server, timed
for all five evaluators with one harness and one repetition policy:

* ``scalar`` — one ciphertext object per state element, one scheme call
  per homomorphic op (the object-per-op reference path);
* ``tensor_t64`` / ``tensor_t32`` — the whole state in one (t, 2, L, N)
  NTT-domain residue tensor, t^2 plain muls per affine layer side;
* ``bsgs_unhoisted`` — one packed ciphertext per state side, baby
  rotations chained one keyswitch at a time through the object-dtype
  bigint digit decomposition (``hhe_reference.UnhoistedBsgsServer`` under
  ``bigint_digits``): the pre-hoisting path, restored exactly;
* ``bsgs_hoisted`` — the shipped packed default: one RNS-native int64
  digit decomposition shared by all baby rotations of an affine side.

Two reduced instances (NOT SECURE — benchmark-only), each built once:
``t64`` (t = 64, N = 128, ~170-bit q, 16 blocks) gives the affine layers
PASTA-3-like weight with a scalar path that finishes in seconds; ``t32``
(PASTA-4's state size, BSGS split (8, 4), N = 512 so the packed capacity
is exactly 8 blocks, ~240-bit q for the Galois keyswitch noise floor) is
the packed evaluators' instance and perfbench ``hhe_session``'s.

Each evaluator makes one untimed call, then 3 timed calls round-robin
across its instance's evaluators so drift hits both sides of a ratio; the
best call is reported and all three are recorded. Every call is checked:
decrypted blocks equal the messages, measured ops equal the closed form
(:func:`repro.pasta.homomorphic_op_counts`), noise budget stays positive,
and ``scalar``/``tensor_t64`` agree to the ciphertext residue.

``prepared_hits``/``prepared_lookups`` are the prepared-plaintext cache
deltas over the timed calls. At the default 4096-row budget a t=64 tensor
matrix (t^2 = 4096 rows) and the six t=32 ones (1024 rows each) do not
stay resident, so the tensor evaluators re-prepare their matrices on every
call while the BSGS diagonals hit: a known defect, reported, not tuned away.

Floors: tensor_t64 >= 5x scalar, bsgs_hoisted >= 1.5x tensor_t32 and
>= 1.5x bsgs_unhoisted blocks/s, one test each. Results land in
``benchmarks/BENCH_engine_throughput.json`` (CI artifact, gated by
``repro perfgate`` against ``benchmarks/baselines/``).
"""

import contextlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.fhe import BatchEncoder, Bfv, toy_parameters
from repro.hhe import BatchedHheServer, decrypt_batched_result, encrypt_key_batched
from repro.pasta import PASTA_MICRO, Pasta, PastaParams, homomorphic_op_counts, random_key

from hhe_reference import UnhoistedBsgsServer, bigint_digits

BENCH_JSON = Path(__file__).parent / "BENCH_engine_throughput.json"
PRIME_BITS = 26
TIMED_CALLS = 3


@dataclass(frozen=True)
class Instance:
    pasta: PastaParams
    n: int
    log2_q: int
    blocks: int
    galois_keys: bool
    seed: bytes
    nonce: int


INSTANCES = {
    "t64": Instance(
        PastaParams(name="pasta-bench", t=64, rounds=2, p=PASTA_MICRO.p, secure=False),
        n=128, log2_q=170, blocks=16, galois_keys=False, seed=b"throughput", nonce=3,
    ),
    "t32": Instance(
        PastaParams(name="pasta-bsgs", t=32, rounds=2, p=PASTA_MICRO.p, secure=False),
        n=512, log2_q=240, blocks=8, galois_keys=True, seed=b"bsgs-bench", nonce=5,
    ),
}

#: name -> (instance, server class, evaluation engine, op-count formula)
EVALUATORS = {
    "scalar": ("t64", BatchedHheServer, "scalar", "slots"),
    "tensor_t64": ("t64", BatchedHheServer, "tensor", "slots"),
    "tensor_t32": ("t32", BatchedHheServer, "tensor", "slots"),
    "bsgs_unhoisted": ("t32", UnhoistedBsgsServer, "bsgs", "bsgs"),
    "bsgs_hoisted": ("t32", BatchedHheServer, "bsgs", "bsgs_hoisted"),
}

#: ratio -> (numerator evaluator, denominator evaluator, floor)
FLOORS = {
    "tensor_over_scalar": ("tensor_t64", "scalar", 5.0),
    "bsgs_over_tensor": ("bsgs_hoisted", "tensor_t32", 1.5),
    "hoisted_over_unhoisted": ("bsgs_hoisted", "bsgs_unhoisted", 1.5),
}


def _setup(inst):
    """One scheme, key set and block batch per instance."""
    params = inst.pasta
    bfv = toy_parameters(params.p, n=inst.n, log2_q=inst.log2_q, prime_bits=PRIME_BITS)
    scheme = Bfv(bfv, seed=inst.seed)
    sk, pk, rlk = scheme.keygen()
    gk = None
    if inst.galois_keys:
        gk = scheme.rotation_keygen(sk, BatchedHheServer.required_rotation_steps(params, inst.n))
    encoder = BatchEncoder(bfv.n, params.p)
    key = random_key(params, seed=inst.seed)
    cipher = Pasta(params, key)
    messages = [[(31 * b + j) % params.p for j in range(params.t)] for b in range(inst.blocks)]
    blocks = [
        [int(x) for x in cipher.encrypt_block(m, nonce=inst.nonce, counter=c)]
        for c, m in enumerate(messages)
    ]
    enc_key = encrypt_key_batched(scheme, pk, encoder, key)
    return scheme, sk, rlk, gk, encoder, enc_key, messages, blocks


def _prepared(server):
    """(hits, lookups) summed over the server's prepared-plaintext caches."""
    infos = [info for kind, info in server.prepared_cache_info().items() if kind != "budget"]
    hits = sum(info["hits"] for info in infos)
    return hits, hits + sum(info["misses"] for info in infos)


def _ciphertext_ints(scheme, result):
    return [[scheme.engine.to_ints(part) for part in ct.parts] for ct in result.ciphertexts]


def _run_instance(inst_name, inst):
    """Warm call, then round-robin timed calls; every call checked."""
    scheme, sk, rlk, gk, encoder, enc_key, messages, blocks = _setup(inst)
    names = [name for name, spec in EVALUATORS.items() if spec[0] == inst_name]
    servers = {}
    for name in names:
        _, server_class, engine, _ = EVALUATORS[name]
        servers[name] = server_class(
            inst.pasta, scheme, rlk, encoder, enc_key,
            engine=engine, galois_keys=gk if engine == "bsgs" else None,
        )
    counters = list(range(inst.blocks))
    expected = {
        name: homomorphic_op_counts(inst.pasta, engine=EVALUATORS[name][3]) for name in names
    }

    def call(name):
        server = servers[name]
        # The unhoisted comparator is the true pre-hoisting path: per-baby
        # keyswitch AND the object-dtype bigint digit decomposition, scoped
        # to its own calls because the scheme is shared.
        digits = contextlib.nullcontext() if server.hoisted else bigint_digits(scheme.engine)
        with digits:
            start = time.perf_counter()
            result = server.transcipher_blocks(blocks, nonce=inst.nonce, counters=counters)
            elapsed = time.perf_counter() - start
        assert decrypt_batched_result(scheme, sk, encoder, result) == messages, name
        measured = {k: getattr(result.ops, k) for k in expected[name]}
        assert measured == expected[name], (name, measured, expected[name])
        budget = min(scheme.noise_budget_bits(sk, ct) for ct in result.ciphertexts)
        assert budget > 0, f"{name} out of noise budget ({budget:.1f} bits)"
        return result, elapsed, budget

    for name in names:
        call(name)
    before = {name: _prepared(servers[name]) for name in names}
    timings = {name: [] for name in names}
    last = {}
    for _ in range(TIMED_CALLS):
        for name in names:
            result, elapsed, budget = call(name)
            timings[name].append(elapsed)
            last[name] = (result, budget)

    if inst_name == "t64":
        # The tensor path is an amortization, not an approximation: it must
        # agree with the object-per-op path to the ciphertext residue.
        assert _ciphertext_ints(scheme, last["scalar"][0]) == _ciphertext_ints(
            scheme, last["tensor_t64"][0]
        )

    report = {}
    for name in names:
        result, budget = last[name]
        hits, lookups = (a - b for a, b in zip(_prepared(servers[name]), before[name]))
        best = min(timings[name])
        report[name] = {
            "instance": inst_name,
            "eval_s": best,
            "timings_s": timings[name],
            "blocks_per_s": inst.blocks / best,
            "ciphertexts": len(result.ciphertexts),
            "noise_budget_bits": budget,
            "ops": expected[name],
            "prepared_hits": hits,
            "prepared_lookups": lookups,
        }
    return report


@pytest.fixture(scope="module")
def engine_report(request):
    evaluators = {}
    for inst_name, inst in INSTANCES.items():
        evaluators.update(_run_instance(inst_name, inst))
    ratios = {
        ratio: {
            "value": evaluators[num]["blocks_per_s"] / evaluators[den]["blocks_per_s"],
            "floor": floor,
        }
        for ratio, (num, den, floor) in FLOORS.items()
    }
    report = {
        "instances": {
            name: {
                "pasta": {"name": inst.pasta.name, "t": inst.pasta.t, "rounds": inst.pasta.rounds},
                "bfv": {"n": inst.n, "log2_q": inst.log2_q, "prime_bits": PRIME_BITS},
                "blocks": inst.blocks,
                "galois_keys": inst.galois_keys,
            }
            for name, inst in INSTANCES.items()
        },
        "evaluators": evaluators,
        "ratios": ratios,
    }
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")

    capture = request.config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled():
        print("\nHomomorphic PASTA transciphering, best of "
              f"{TIMED_CALLS} timed calls per evaluator:")
        for name, ev in evaluators.items():
            print(
                f"  {name:14s} [{ev['instance']}] {ev['eval_s']:7.2f} s/evaluation  "
                f"{ev['blocks_per_s']:8.2f} blocks/s  prepared hits "
                f"{ev['prepared_hits']}/{ev['prepared_lookups']}"
            )
        print(f"  -> {BENCH_JSON.name}")
    return report


@pytest.mark.parametrize("ratio", FLOORS)
def test_ratio_floor(engine_report, ratio, capsys):
    num, den, floor = FLOORS[ratio]
    value = engine_report["ratios"][ratio]["value"]
    verdict = "ok" if value >= floor else "FAIL"
    with capsys.disabled():
        print(f"\n  {ratio:24s} {value:6.2f}x  (floor {floor}x)  {verdict}")
    assert value >= floor, f"{num} only {value:.2f}x over {den}; floor is {floor}x"
