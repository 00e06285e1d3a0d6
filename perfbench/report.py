"""Print the per-layer table of every workload beside its end-to-end metrics.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 0] [--seconds 38] [--workloads served-mix,fuzz]

For each workload this runs ``perfbench/run.py`` once untraced (the six
end-to-end metrics, by name and unit) and twice traced.  It prints the layer
table of the first traced run (self time, calls, share of the traced round's
wall time), the tracing overhead, and checks that every exact count -- cache
hits and misses, layer call counts, service and fuzz counters -- is identical
in both traced runs; counts the workload labels timing-dependent are listed
and skipped.  The exit code is 1 if any run fails its correctness check or an
exact count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-cold", "served-mix", "verify-deep", "fuzz")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, int]:
    """One ``run.py`` invocation: (record, result, exit code)."""
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload}: run.py printed no result (exit {completed.returncode})")
    if completed.stderr:
        sys.stderr.write(completed.stderr)
    return json.loads(lines[-2])["record"], json.loads(lines[-1]), completed.returncode


def report(workload: str, seed: int, seconds: float) -> bool:
    record, result, code = run(workload, seed, seconds, 0)
    ok = code == 0 and result["correct"]
    print(f"== {workload} (seed {seed}) ==")
    print(
        f"end-to-end, untraced: medians over {record['rounds']} round(s), {record['items']} items, "
        f"timings at reference host speed (host factor "
        f"{statistics.median(record['round_host_factor']):.3f}), CPU {record['cpu']}"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:<16} {value['value']:>12.4f} {value['unit']}")
    print(
        f"  (latency_tail_ms is p{record['tail_percentile']:g}: "
        f"{record['items_beyond_tail_per_round']} of {record['items_per_round']} items "
        f"per round lie beyond it)"
    )

    traced = [run(workload, seed, seconds, 1) for _ in range(2)]
    for trace_record, trace_result, trace_code in traced:
        ok = ok and trace_code == 0 and trace_result["correct"]
    trace_record, trace_result, _ = traced[0]
    metrics = {name: value["value"] for name, value in trace_result["metrics"].items()}
    wall = metrics["trace.wall_ms"]
    print(f"layers, traced round of {wall:.0f} ms:")
    print(f"  {'layer':<16} {'self_ms':>10} {'calls':>9} {'share':>7}")
    for layer in LAYERS:
        self_ms = metrics[f"{layer}.self_ms"]
        calls = metrics[f"{layer}.calls"]
        print(f"  {layer:<16} {self_ms:>10.1f} {calls:>9.0f} {self_ms / wall:>7.1%}")
    other = metrics["other.self_ms"]
    print(f"  {'other':<16} {other:>10.1f} {'':>9} {other / wall:>7.1%}")
    print(
        f"tracing overhead: {metrics['trace.overhead_pct']:+.1f}% "
        f"(traced {wall:.0f} ms vs untraced {metrics['untraced.wall_ms']:.0f} ms)"
    )

    first, second = (trace_record["exact_counts"] for trace_record, _, _ in traced)
    differing = sorted(
        name for name in set(first) | set(second) if first.get(name) != second.get(name)
    )
    if differing:
        ok = False
        for name in differing:
            print(f"EXACT COUNT DIFFERS: {name}: {first.get(name)} vs {second.get(name)}")
    else:
        print(f"exact counts: {len(first)} identical across two traced runs")
    if trace_record["timing_counts"]:
        print(f"timing-dependent, not compared: {', '.join(trace_record['timing_counts'])}")
    if not ok:
        print(f"FAILED: {workload} did not pass its correctness checks")
    print()
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    results = [
        report(workload, args.seed, args.seconds) for workload in args.workloads.split(",")
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
