"""Traced-run self-check over all three workloads.

    python3 perfbench/selfcheck.py --seed 1 --seconds 25

Runs every workload with ``--trace 1`` (each run already fails unless its
traced and untraced runs give identical outputs and counts) and then checks
that every per-layer metric in BENCHMARK.json is nonzero on at least one
workload, so a wrapper that stopped seeing its layer shows up. Two kinds of
metric are checked differently, and their values are still printed:

* a hit ratio must have a nonzero lookup count instead: every workload
  sends each block under a fresh nonce, so at the commit that added the
  benchmark the prepared-plaintext cache never hits, and neither do the
  symmetric recovery engines;
* a count of failure events (op-count mismatches, shed frames) may be zero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("hhe_session", "hhe_service", "sym_stream")
LOOKUPS_OF = {
    "pasta.cache_hit_ratio": "pasta.cache_lookups",
    "hhe.prepared_hit_ratio": "hhe.prepared_lookups",
}
MAY_BE_ZERO = ("hhe.ops_mismatch_calls", "service.shed_frames")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]

    values = {}
    ok = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        values[workload] = {k: v["value"] for k, v in result["metrics"].items()}

    print(f"{'metric':32s} " + " ".join(f"{w:>12s}" for w in values))
    for name in names:
        row = [values[w][name] for w in values]
        print(f"{name:32s} " + " ".join(f"{v:12.6g}" for v in row))
        if name in MAY_BE_ZERO:
            continue
        probe = LOOKUPS_OF.get(name, name)
        if not any(values[w][probe] for w in values):
            print(f"  FAIL: {probe} is zero on every workload")
            ok = False
    print("self-check " + ("passed" if ok and len(values) == len(WORKLOADS) else "FAILED"))
    return 0 if ok and len(values) == len(WORKLOADS) else 1


if __name__ == "__main__":
    sys.exit(main())
