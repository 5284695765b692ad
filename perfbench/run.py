"""End-to-end HHE benchmark: one workload per process.

    python3 perfbench/run.py --workload hhe_session --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it first runs half the work untraced in a child process
as a reference, then the same work again with every layer's public
functions wrapped, and reports the per-layer metrics, the layer self-time
table, the time no layer covers and the tracing overhead. Either way the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Every output is checked;
the exit code is 1 when any operation failed or lost, and 2 on bad usage.
See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("hhe_session", "hhe_service", "sym_stream")
#: A tail percentile is the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10
REFERENCE_TIMEOUT_S = 150


def tail_latency(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no tail with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30, check=True
    ).stdout.strip()


def environment(seed: int) -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                line.split(":", 1)[1].strip() for line in info if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    sha, dirty = "none (not a git checkout)", "n/a"
    if (ROOT / ".git").exists():
        try:
            sha = _git("rev-parse", "HEAD")
            dirty = "yes" if _git("status", "--porcelain", "--untracked-files=no") else "no"
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def end_to_end(outcome) -> Dict[str, float]:
    setup_s = statistics.median(outcome.setup_s)
    tail, _ = tail_latency(outcome.latencies)
    return {
        "setup_s": setup_s,
        "session_s": setup_s + statistics.median(outcome.work_s),
        "blocks_per_s": statistics.median(b / w for b, w in zip(outcome.blocks, outcome.work_s)),
        "latency_p50_s": statistics.median(outcome.latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_untraced(outcome, metrics) -> None:
    op = outcome.operation
    ops = {"batch": "batches", "frame": "frames"}[op]
    _, pct = tail_latency(outcome.latencies)
    setups = ", ".join(f"{t:.3f}" for t in outcome.setup_s)
    print(f"  setup_s                {metrics['setup_s']:12.4f} s   (median of {setups})")
    runs = len(outcome.work_s)
    print(f"  session_s              {metrics['session_s']:12.4f} s   "
          f"(setup + {outcome.attempted // runs} {ops} of work)")
    print(f"  blocks_per_s           {metrics['blocks_per_s']:12.4f} blocks/s   (median of {runs})")
    if "frames_per_s" in outcome.report:
        print(f"  frames_per_s           {outcome.report['frames_per_s']:12.4f} frames/s")
    print(f"  {op}_latency_p50_s    {metrics['latency_p50_s']:12.4f} s   (latency_p50_s)")
    print(f"  {op}_latency_tail_s   {metrics['latency_tail_s']:12.4f} s   "
          f"(latency_tail_s: p{pct:.1f} of {len(outcome.latencies)} samples, "
          f"{TAIL_BEYOND} beyond)")
    print(f"  error_rate             {outcome.failed / outcome.attempted:12.4f} fraction "
          f"({outcome.failed} of {outcome.attempted} {ops} failed, lost or wrong)")
    if "result_bytes_per_block" in outcome.report:
        print(f"  result_bytes_per_block {outcome.report['result_bytes_per_block']:12.1f} bytes")
        print(f"  noise_budget_min_bits  {outcome.report['noise_budget_min_bits']:12.2f} bits")
    print(f"  peak_rss_mb            {metrics['peak_rss_mb']:12.1f} MB")
    for key in ("frames", "frames_lost", "transmissions", "shed_frames",
                "admission_deferred"):
        if key in outcome.report:
            print(f"  {key:22s} {outcome.report[key]:12d}")


def print_traced(outcome, metrics, table, reference: dict) -> None:
    wall = outcome.window[1] - outcome.window[0]
    print(f"  traced wall {wall:.4f} s, untraced reference wall {reference['wall_s']:.4f} s")
    print(f"  {'layer':22s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self/wall':>9s}")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {layer:22s} {row['calls']:8d} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f} {row['self_s'] / wall:9.1%}")
    print(f"  {'unattributed':22s} {'':8s} {'':10s} {metrics['unattributed_s']:10.4f} "
          f"{metrics['unattributed_s'] / wall:9.1%}")
    print("  Service threads overlap, so self times can add up to more than the wall.")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:.6g}")


def run_reference(args) -> dict:
    """The untraced half-size run, in its own process so no cache is shared."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--reference",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"reference run exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import REPEATS, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.reference:
        outcome = workload(args.seed, args.seconds / 2, 1)
        wall = outcome.window[1] - outcome.window[0]
        print(json.dumps({"wall_s": wall, "digest": outcome.digest, "failed": outcome.failed}))
        return 0

    env = environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace == 0:
        outcome = workload(args.seed, args.seconds, REPEATS[args.workload])
        metrics = end_to_end(outcome)
        print(f"evaluator: {outcome.evaluator}")
        print_untraced(outcome, metrics)
        correct = outcome.failed == 0
    else:
        from layers import LayerProbe

        reference = run_reference(args)
        probe = LayerProbe()
        outcome = workload(args.seed, args.seconds / 2, 1, probe.recorder)
        values, table = probe.metrics(outcome, reference["wall_s"])
        print(f"evaluator: {outcome.evaluator}")
        print_traced(outcome, values, table, reference)
        same = reference["digest"] == outcome.digest
        print(f"  traced and untraced outputs and counts identical: {same}")
        correct = outcome.failed == 0 and reference["failed"] == 0 and same
        metrics = values

    # BENCHMARK.json names the metrics each mode reports, in order, with units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
