"""HHE workflow cost (paper Figs. 1-2): transciphering ops + communication.

Quantifies the two sides of the HHE bargain the paper's introduction sets
up: the client's ciphertext is barely larger than the plaintext (vs
~10,000x for direct FHE encryption), while the server pays a one-off
homomorphic decryption whose multiplication counts are reported here from
an actual BFV evaluation at reduced parameters.
"""

from __future__ import annotations

from repro.eval.result import ExperimentResult
from repro.fhe.bfv import toy_parameters
from repro.hhe.protocol import HheClient, HheServer
from repro.pasta.decrypt_circuit import KeystreamCircuit, homomorphic_op_counts
from repro.pasta.params import PASTA_3, PASTA_4, PASTA_MICRO, PastaParams


def symmetric_expansion(params: PastaParams) -> float:
    """HHE ciphertext bytes per plaintext byte (elements carry 2 pixels)."""
    plain_bits = 16.0  # two 8-bit pixels per element at w=17
    return params.modulus_bits / plain_bits


def fhe_expansion_rise() -> float:
    """RISE's FHE expansion: 1.5 MB ciphertext for 2^14 bytes of pixels."""
    return 1.5e6 / float(1 << 14)


def generate(run_transcipher: bool = True, **_kwargs) -> ExperimentResult:
    rows = []
    notes = []

    for params in (PASTA_3, PASTA_4):
        depth = KeystreamCircuit.multiplicative_depth(params)
        counts = homomorphic_op_counts(params)
        rows.append(
            [
                params.name,
                params.t,
                depth,
                counts["plain_muls"],
                counts["squares"] + counts["muls"],  # ct muls
                round(symmetric_expansion(params), 2),
            ]
        )
    notes.append(
        f"Direct FHE encryption (RISE parameters) expands data "
        f"{fhe_expansion_rise():.0f}x; PASTA's symmetric ciphertext only "
        f"{symmetric_expansion(PASTA_4):.2f}x — the communication advantage "
        "motivating HHE (paper Sec. I)."
    )
    notes.append(
        "With BFV slot batching (repro.hhe.batched) the server transciphers up "
        "to N blocks per circuit evaluation at this same operation count, "
        "dividing the per-block cost by the batch size."
    )

    if run_transcipher:
        from time import perf_counter

        bfv_params = toy_parameters(PASTA_MICRO.p, n=256, log2_q=190)
        timings = {}
        recovered_by_engine = {}
        for engine in ("rns", "bigint"):
            client = HheClient(PASTA_MICRO, bfv_params, engine=engine)
            server = HheServer.from_client(client)
            message = [101, 2024]
            sym_ct = client.encrypt(message, nonce=3)
            start = perf_counter()
            result = server.transcipher_block(list(sym_ct), nonce=3, counter=0)
            timings[engine] = perf_counter() - start
            recovered = client.decrypt_result(result.ciphertexts)
            assert recovered == message, (recovered, message)
            recovered_by_engine[engine] = recovered
            if engine == "rns":
                ops = result.ops
                budget = min(client.noise_budget_bits(ct) for ct in result.ciphertexts)
        assert recovered_by_engine["rns"] == recovered_by_engine["bigint"]
        rows.append(
            [
                f"{PASTA_MICRO.name} (executed)",
                PASTA_MICRO.t,
                KeystreamCircuit.multiplicative_depth(PASTA_MICRO),
                ops.plain_muls,
                ops.squares + ops.muls,
                round(symmetric_expansion(PASTA_MICRO), 2),
            ]
        )
        notes.append(
            f"Executed end-to-end at reduced size (t={PASTA_MICRO.t}): transciphered "
            f"block decrypted exactly with {budget:.0f} bits of noise budget left "
            f"({ops.relins} relinearizations)."
        )
        notes.append(
            f"Polynomial engines agree bit-exactly; RNS/CRT evaluation took "
            f"{timings['rns']:.2f}s vs {timings['bigint']:.2f}s scalar big-int "
            f"({timings['bigint'] / timings['rns']:.1f}x) — see "
            "benchmarks/test_engine_throughput.py for the full-size numbers."
        )

    return ExperimentResult(
        experiment_id="HHE cost",
        title="Homomorphic decryption cost and ciphertext expansion",
        headers=["Instance", "t", "Mult depth", "Plain muls", "Ct muls", "Expansion"],
        rows=rows,
        notes=notes,
    )
