"""Per-layer metrics: which public functions make up each layer, and the
counts read at those boundaries.

Every ``*_s`` metric is the layer's self time: the time inside its wrapped
functions minus the time in other wrapped functions they called. Where a
layer should move an end-to-end metric, README.md names the metric and the
workload.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from typing import Dict, Iterable, List, Tuple

import numpy as np

from spans import SpanRecorder

#: layer -> the public functions whose calls are its spans.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "keccak.shake": ("repro.keccak.shake:Shake.read",),
    "fhe.rng": (
        "repro.fhe.rng:PolyRng.uniform_mod",
        "repro.fhe.rng:PolyRng.ternary",
        "repro.fhe.rng:PolyRng.centered_binomial",
    ),
    "fhe.keygen": ("repro.fhe.bfv:Bfv.keygen",),
    "fhe.rotation_keygen": ("repro.fhe.bfv:Bfv.rotation_keygen",),
    "hhe.encrypt_key": ("repro.hhe.batched:encrypt_key_batched",),
    "pasta.keystream": ("repro.pasta.batch:KeystreamEngine.keystream_pairs",),
    "pasta.materials": (
        "repro.pasta.batch:KeystreamEngine.materials",
        "repro.pasta.batch:KeystreamEngine.matrix",
    ),
    "hhe.transcipher": ("repro.hhe.batched:BatchedHheServer.transcipher_blocks",),
    "hhe.prepare": (
        "repro.fhe.bfv:Bfv.prepare_matrix",
        "repro.fhe.bfv:Bfv.prepare_mul_rows",
        "repro.fhe.bfv:Bfv.prepare_add_rows",
        "repro.fhe.batching:BatchEncoder.encode_rows",
    ),
    "fhe.ntt_forward": ("repro.fhe.ntt_vec:VecNtt.forward",),
    "fhe.ntt_inverse": ("repro.fhe.ntt_vec:VecNtt.inverse",),
    "fhe.digits": (
        "repro.fhe.rns:ExactBaseDigits.digits",
        "repro.fhe.rns:MixedRadix.digits",
    ),
    "fhe.keyswitch": (
        "repro.fhe.engine:RnsEngine.tensor_keyswitch",
        "repro.fhe.engine:RnsEngine.tensor_keyswitch_hoisted",
        "repro.fhe.engine:RnsEngine.hoisted_decompose",
    ),
    "fhe.relin": ("repro.fhe.engine:RnsEngine.tensor_relin",),
    "fhe.rescale": (
        "repro.fhe.rns:ExactRescaler.rescale",
        "repro.fhe.rns:ExactBaseLift.lift_centered",
    ),
    "fhe.contract": (
        "repro.fhe.rns:RnsContext.matmul_mod",
        "repro.fhe.rns:RnsContext.weighted_sum_mod",
        "repro.fhe.engine:RnsEngine.tensor_affine",
    ),
    "service.recover": ("repro.service.tenants:TenantRuntime.recover_elements",),
}

#: Op counters reported per transciphered block.
PER_BLOCK_OPS = ("rotations", "decompositions", "relins", "plain_muls")

#: The benchmark's own output checks; wrapped calls inside are not recorded.
CHECK_LAYER = "bench.check"


def ciphertext_bytes(ct) -> int:
    """parts x limbs x N x bytes per limb, read from the ciphertext itself."""
    total = 0
    for part in ct.parts:
        limb_bytes = sum((q.bit_length() + 7) // 8 for q in part.ctx.primes)
        total += limb_bytes * part.ctx.n
    return total


def hit_ratio(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


class LayerProbe:
    """Installs the layer wrappers and turns their spans into metrics."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.counts: Counter = Counter()
        #: (server, result) of every transcipher call, for the noise, limb
        #: and size measurements made after the run.
        self.results: List[tuple] = []
        self._lock = threading.Lock()
        hooks = {
            "keccak.shake": (lambda args: args[0].permutation_count, self._after_shake),
            "pasta.keystream": (None, self._after_keystream),
            "hhe.transcipher": (None, self._after_transcipher),
            "fhe.ntt_forward": (None, self._after_ntt),
            "fhe.ntt_inverse": (None, self._after_ntt),
        }
        for layer, targets in LAYERS.items():
            before, after = hooks.get(layer, (None, None))
            for target in targets:
                self.recorder.wrap(target, layer, before=before, after=after)

    def _add(self, **counts) -> None:
        with self._lock:
            self.counts.update(counts)

    def _after_shake(self, args, result, before) -> None:
        self._add(permutations=args[0].permutation_count - before)

    def _after_keystream(self, args, result, token) -> None:
        self._add(keystream_blocks=len(args[2]))

    def _after_ntt(self, args, result, token) -> None:
        self._add(ntt_rows=np.asarray(args[1]).size // args[0].n)

    def _after_transcipher(self, args, result, token) -> None:
        from repro.pasta import homomorphic_op_counts

        server = args[0]
        if result.group_size:
            formula = "bsgs_hoisted" if server.hoisted else "bsgs"
        else:
            formula = "slots"
        expected = homomorphic_op_counts(server.params, engine=formula)
        measured = {k: getattr(result.ops, k) for k in expected}
        ops = {k: getattr(result.ops, k) for k in PER_BLOCK_OPS}
        self._add(
            transcipher_calls=1,
            transcipher_blocks=len(result.counters),
            ops_mismatch_calls=int(measured != expected),
            **ops,
        )
        with self._lock:
            self.results.append((server, result))

    # -- metrics ---------------------------------------------------------------

    def metrics(self, outcome, reference_wall_s: float) -> Tuple[Dict[str, float], dict]:
        """Per-layer metrics of one traced run, and the full layer table."""
        start, end = outcome.window
        spans = self.recorder.within(start, end)
        table = SpanRecorder.layer_table(spans)
        wall = end - start
        inputs = outcome.layer_inputs

        counts = self.counts
        blocks = counts["transcipher_blocks"]
        calls = counts["transcipher_calls"]
        m: Dict[str, float] = {}
        for layer in LAYERS.keys() - {"service.recover"}:
            m[layer + "_s"] = table.get(layer, {}).get("self_s", 0.0)
        m["keccak.permutations"] = counts["permutations"]
        m["pasta.keystream_blocks"] = counts["keystream_blocks"]
        hits, lookups = _engine_hits(inputs.get("engines", ()))
        m["pasta.cache_hit_ratio"] = hit_ratio(hits, lookups)
        m["pasta.cache_lookups"] = lookups
        m["hhe.transcipher_calls"] = calls
        m["hhe.blocks_per_call"] = blocks / calls if calls else 0.0
        hits, lookups = _prepared_hits(inputs.get("servers", ()))
        m["hhe.prepared_hit_ratio"] = hit_ratio(hits, lookups)
        m["hhe.prepared_lookups"] = lookups
        for op in PER_BLOCK_OPS:
            m[f"hhe.{op}_per_block"] = counts[op] / blocks if blocks else 0.0
        m["hhe.ops_mismatch_calls"] = counts["ops_mismatch_calls"]
        m["fhe.ntt_rows"] = counts["ntt_rows"]
        with self.recorder.suspended(CHECK_LAYER):
            m.update(self._result_metrics(inputs.get("secret_keys", {})))
        service = inputs.get("service_result")
        workers = inputs.get("workers", 0)
        busy = table.get("service.recover", {}).get("total_s", 0.0)
        m["service.worker_busy_ratio"] = busy / (workers * outcome.work_s[-1]) if workers else 0.0
        m["service.transmissions_per_frame"] = (
            sum(service.attempts.values()) / len(service.attempts) if service else 0.0
        )
        m["service.shed_frames"] = service.shed_frames if service else 0
        m["service.admission_deferred"] = service.admission_deferred if service else 0
        m["unattributed_s"] = wall - SpanRecorder.covered_seconds(spans)
        m["trace_overhead_s"] = wall - reference_wall_s
        return m, table

    def _result_metrics(self, secret_keys) -> Dict[str, float]:
        """Noise budget under the client key, limbs and bytes of the results."""
        budget = math.inf
        limbs = 0
        size = 0
        blocks = 0
        for server, result in self.results:
            scheme, sk = secret_keys[id(server)]
            for ct in result.ciphertexts:
                budget = min(budget, scheme.noise_budget_bits(sk, ct))
                limbs = max(limbs, max(len(part.ctx.primes) for part in ct.parts))
                size += ciphertext_bytes(ct)
            blocks += len(result.counters)
        return {
            "fhe.limbs": limbs,
            "fhe.noise_budget_min_bits": budget if self.results else 0.0,
            "hhe.result_bytes_per_block": size / blocks if blocks else 0.0,
        }


def _engine_hits(engines: Iterable) -> Tuple[int, int]:
    hits = lookups = 0
    for engine in engines:
        info = engine.cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    return hits, lookups


def _prepared_hits(servers: Iterable) -> Tuple[int, int]:
    hits = lookups = 0
    for server in servers:
        for kind, info in server.prepared_cache_info().items():
            if kind != "budget":
                hits += info["hits"]
                lookups += info["hits"] + info["misses"]
    return hits, lookups
