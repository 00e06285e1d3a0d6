"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload served-mix --seed 0 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the imports
are timed in several fresh interpreters and the workload is set up several
times in this one (``setup_s`` adds the two medians), then identical cold
rounds run until ``--seconds`` is used up; each timing is reported as the
median over the rounds.  ``--trace 1`` runs one untraced and one traced round
and reports the per-layer table, exact cache and service counts, and the
tracing overhead; the spans go to
``.perfbench-out/<workload>-seed<seed>.spans.jsonl``.

End-to-end timings are given at a reference host speed (see
:class:`HostClock`): the shared host the benchmark runs on changes its
per-instruction speed by up to 1.7x, for seconds to minutes at a time, and
every workload follows it.  The record line keeps the times as read off the
wall clock beside the host factor of every interval.

Every round checks its outputs against ``perfbench/expected/``; on a mismatch
the result line carries ``"correct": false`` and the exit code is 1.  The
last line of standard output is the result object; the line before it is a
record of the run (item count, tail percentile, per-round figures, host
speed, the CPU the run was pinned to).

The whole run, with every thread and child interpreter it starts, is pinned
to one CPU, so the scheduler cannot move it mid-round.  The workloads are
bound by the interpreter lock, so a second CPU adds no throughput.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

from layers import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Fresh interpreters whose import time is measured; ``setup_s`` adds the median.
IMPORT_REPEATS = 3
#: Iterations of the fixed pure-Python loop the host clock times.
SAMPLE_ITERATIONS = 20_000
#: Seconds between two host-clock samples (a sample takes about 1 ms).
SAMPLE_INTERVAL_S = 0.05
#: Seconds one sample takes at the reference host speed.
REFERENCE_SAMPLE_S = 0.001
#: Power of the sample-time ratio by which the workloads' times grow (see HostClock).
HOST_EXPONENT = 1.3

CACHE_NAMES = (
    "chisel_parse",
    "chisel_elaborate",
    "chisel_compile",
    "firrtl_passes",
    "verilog_emit",
    "verilog_parse",
    "sim_kernel",
    "sim_trace",
    "sim_vec_kernel",
    "sim_vec",
)
SERVICE_COUNTS = (
    "service.llm_calls",
    "service.tool_calls",
    "service.sim_batches",
    "service.sim_batched_requests",
)


def time_sample() -> float:
    """Seconds the fixed pure-Python sample loop takes."""
    started = time.perf_counter()
    total = 0
    for value in range(SAMPLE_ITERATIONS):
        total += value & 7
    return time.perf_counter() - started


class HostClock:
    """Tracks the host's speed while the benchmark runs.

    A background thread times the fixed sample loop every
    :data:`SAMPLE_INTERVAL_S`.  :meth:`factor` is the mean sample time in an
    interval over :data:`REFERENCE_SAMPLE_S`, raised to
    :data:`HOST_EXPONENT`: 1.0 at the reference speed, above 1 on a slower
    host.  A time divided by the factor of its own interval is that time at
    the reference speed.  The loop is fixed code, so a faster or slower
    program moves the adjusted times exactly as much as the wall-clock ones.
    Samples cost about 2% of the CPU.

    The loop keeps its data in registers, while the workloads miss the
    innermost caches, so their times grow faster than the loop's when the
    host slows: regressing log round time on log sample time gave slopes of
    1.30-1.38 over 50-round runs of ``served-mix`` and ``fuzz``, and
    1.23-1.36 over the rounds of twenty runs of each gated workload.  A
    ~1 MB dict-lookup sample followed the rounds at slope 1.0, but a child
    interpreter's cache misses inflate it by up to 2x, so the import times
    of ``setup_s`` could not use it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-clock", daemon=True)

    def __enter__(self) -> "HostClock":
        self.samples.append((time.perf_counter(), time_sample()))
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            duration = time_sample()
            self.samples.append((time.perf_counter(), duration))

    def factor(self, start: float, end: float) -> float:
        """Host factor of ``[start, end]``, from the samples that end in it."""
        inside = [duration for ended, duration in self.samples if start <= ended <= end]
        if not inside:
            # An interval shorter than the sampling period: its nearest sample.
            middle = (start + end) / 2.0
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return (statistics.mean(inside) / REFERENCE_SAMPLE_S) ** HOST_EXPONENT

    def timed(self, call):
        """Run ``call()``: (its result, wall seconds, host factor of that interval)."""
        started = time.perf_counter()
        value = call()
        ended = time.perf_counter()
        return value, ended - started, self.factor(started, ended)


def import_time() -> float:
    """Seconds a fresh interpreter takes to import the workloads."""
    code = (
        "import sys, time\n"
        "started = time.perf_counter()\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {HERE!r}]\n"
        "import workloads\n"
        "print(time.perf_counter() - started)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return float(completed.stdout)


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolation percentile (``share`` in 0..100) of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * share / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float) -> tuple[dict, dict, list]:
    """Untraced run: time imports and set-up several times, then rounds until ``seconds`` pass."""
    with HostClock() as host:
        imports = [host.timed(import_time) for _ in range(IMPORT_REPEATS)]
        setups = [host.timed(workload.setup) for _ in range(SETUP_REPEATS)]
        rounds = []
        factors = []
        spent = 0.0
        # Start another round only while it is expected to end within the budget.
        while not rounds or spent + statistics.mean(r.wall for r in rounds) < seconds:
            # Collect the previous round's garbage outside the timed round.
            gc.collect()
            result, _, factor = host.timed(workload.run_round)
            rounds.append(result)
            factors.append(factor)
            spent += result.wall

    # Every metric is the median over rounds of that round's figure, so one
    # round slowed by the host (or by first-use warm-up) does not move it.
    # The fastest round, or each item's fastest latency, spread about twice
    # as much from run to run on the shared host.
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    tail = workload.tail_percentile
    ops = [len(r.latencies) / r.wall for r in rounds]
    p50s = [statistics.median(r.latencies) * 1000.0 for r in rounds]
    tails = [percentile(r.latencies, tail) * 1000.0 for r in rounds]
    import_s = [value for value, _, _ in imports]
    setup_s = [wall for _, wall, _ in setups]
    metrics = {
        "ops_per_s": metric(statistics.median(map(operator.mul, ops, factors)), "1/s"),
        "latency_p50_ms": metric(statistics.median(map(operator.truediv, p50s, factors)), "ms"),
        "latency_tail_ms": metric(statistics.median(map(operator.truediv, tails, factors)), "ms"),
        "setup_s": metric(
            statistics.median(value / factor for value, _, factor in imports)
            + statistics.median(wall / factor for _, wall, factor in setups),
            "s",
        ),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "round_ops_per_s": ops,
        "round_p50_ms": p50s,
        "round_tail_ms": tails,
        "round_host_factor": factors,
        "wall_clock_medians": {
            "ops_per_s": statistics.median(ops),
            "latency_p50_ms": statistics.median(p50s),
            "latency_tail_ms": statistics.median(tails),
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        },
        "items": sum(len(r.latencies) for r in rounds),
        "items_per_round": len(rounds[0].latencies),
        "tail_percentile": tail,
        "items_beyond_tail_per_round": int(len(rounds[0].latencies) * (1 - tail / 100.0)),
        "import_repeats_s": import_s,
        "import_host_factor": [factor for _, _, factor in imports],
        "setup_repeats_s": setup_s,
        "setup_host_factor": [factor for _, _, factor in setups],
        "host_samples": len(host.samples),
        "host_sample_s": statistics.mean(duration for _, duration in host.samples),
        "host_sample_iterations": SAMPLE_ITERATIONS,
        "reference_sample_s": REFERENCE_SAMPLE_S,
        "attempted": attempted,
        "failed": failed,
        "exact_counts": rounds[0].counts,
    }
    rounds[0].errors.extend(compare_counts(rounds))
    return metrics, record, rounds


def compare_counts(rounds: list) -> list[str]:
    """Errors for every exact count that differs between rounds."""
    errors = []
    first = rounds[0].counts
    for index, other in enumerate(rounds[1:], start=1):
        for name in sorted(set(first) | set(other.counts)):
            if first.get(name) != other.counts.get(name):
                errors.append(
                    f"exact count {name} differs: {first.get(name)} in round 0, "
                    f"{other.counts.get(name)} in round {index}"
                )
    return errors


def traced(workload) -> tuple[dict, dict, list]:
    """One untraced and one traced round: per-layer table, counts, overhead."""
    workload.setup()
    tracer = Tracer()
    with HostClock() as host:
        plain = workload.run_round()
        tracer.install()
        try:
            spanned = workload.run_round(tracer)
        finally:
            tracer.uninstall()

    table = tracer.layer_table()
    wall_ms = spanned.wall * 1000.0
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = metric(table[layer]["self_ms"], "ms")
        metrics[f"{layer}.calls"] = metric(table[layer]["calls"], "count")
    layered = sum(row["self_ms"] for row in table.values())
    metrics["other.self_ms"] = metric(max(0.0, wall_ms - layered), "ms")
    counts = {**spanned.counts, **spanned.timing_counts}
    for name in CACHE_NAMES:
        hits = counts.get(f"cache.{name}.hits", 0)
        misses = counts.get(f"cache.{name}.misses", 0)
        metrics[f"cache.{name}.hits"] = metric(hits, "count")
        metrics[f"cache.{name}.misses"] = metric(misses, "count")
        metrics[f"cache.{name}.hit_ratio"] = metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        )
    for name in SERVICE_COUNTS:
        metrics[name] = metric(counts.get(name, 0), "count")
    metrics["fuzz.checks"] = metric(counts.get("fuzz.checks", 0), "count")
    metrics["trace.wall_ms"] = metric(wall_ms, "ms")
    metrics["untraced.wall_ms"] = metric(plain.wall * 1000.0, "ms")
    metrics["trace.overhead_pct"] = metric((spanned.wall / plain.wall - 1.0) * 100.0, "%")
    sample_s = statistics.mean(duration for _, duration in host.samples)
    metrics["host.calibration_ms"] = metric(sample_s * 1000.0, "ms")

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{workload.name}-seed{workload.seed}.spans.jsonl")
    tracer.write(spans_path)
    record = {
        "spans": len(tracer.spans),
        "span_threads": tracer.threads(),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "host_sample_s": sample_s,
        "host_sample_iterations": SAMPLE_ITERATIONS,
        "exact_counts": {
            **spanned.counts,
            **{
                f"{layer}.calls": row["calls"]
                for layer, row in table.items()
                if layer not in workload.timing_layers
            },
        },
        "timing_counts": sorted(
            [*spanned.timing_counts, *(f"{layer}.calls" for layer in workload.timing_layers)]
        ),
    }
    plain.errors.extend(compare_counts([plain, spanned]))
    return metrics, record, [plain, spanned]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # The benchmark measures the default configuration: no REPRO_* knob of
    # the calling environment may steer a backend, cache or executor.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # Threads and child interpreters inherit the pin (see the module docstring).
    # The last CPU: a virtual machine's device interrupts usually go to the first.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        metrics, record, rounds = traced(workload)
    else:
        metrics, record, rounds = end_to_end(workload, args.seconds)
    errors = [error for r in rounds for error in r.errors]
    for error in errors[:50]:
        print(f"correctness: {error}", file=sys.stderr)
    if len(errors) > 50:
        print(f"correctness: ... and {len(errors) - 50} more", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "cpu": cpu, **record}
    print(json.dumps({"record": record}))
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
