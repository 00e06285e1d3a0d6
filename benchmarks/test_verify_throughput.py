"""Benchmark: batched verification engine vs the step-wise/full-recompile path.

The verify step is the hottest loop in every sweep, repair iteration and
served job: compile the candidate, then drive a stimulus program against the
golden reference.  Three regimes are recorded into ``BENCH_toolchain.json`` by
``python benchmarks/run_benchmarks.py``, each verifying one candidate against
the golden ALU over a deep (8192-point) stimulus program:

* ``test_verify_cold_stepwise_full_recompile`` — the baseline: every cache
  cleared each round, candidate and reference recompiled from scratch, the
  testbench driven point by point;
* ``test_verify_cold_candidate_trace`` — the engine on a *new* candidate: the
  golden/testbench side is warm (the steady state of any running sweep), the
  unseen candidate pays parse→elaborate→passes→emit→kernel→trace compilation,
  and the schedule runs as one trace call.  Asserted ≥3x the baseline;
* ``test_verify_warm_iteration`` — iteration k+1 of a repair loop: the
  revision is structurally identical outside the edit, so every stage after
  parse replays from the content-addressed caches.  Asserted ≥5x the baseline.

``test_verify_trace_vs_stepwise`` isolates the testbench backends with a warm
compiler on both sides (trace asserted ≥2x step-wise).

Each ratio test times its own baseline, alternating baseline and engine rounds
(medians of ``ROUNDS`` each), so a change in host speed during the run moves
both sides of the ratio; the recorded time of a ratio test covers both sides,
and the two medians and the ratio go into its ``extra_info``.

The regression guard lives in the assertions: CI fails if the engine loses
its edge over the seed path.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import pytest

from conftest import run_once

from repro.caching import (
    clear_registered_caches,
    restore_registered_caches,
    snapshot_registered_caches,
)
from repro.problems.registry import build_default_registry
from repro.sim.testbench import FunctionalPoint, Testbench
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import Simulator
from repro.verilog.compile_sim import clear_kernel_cache

POINTS = 8192
ROUNDS = 10
MIN_COLD_SPEEDUP = 3.0
MIN_WARM_SPEEDUP = 5.0
MIN_TRACE_SPEEDUP = 2.0

REGISTRY = build_default_registry()
PROBLEM = REGISTRY.by_id("alu_w8")
SIMULATOR = Simulator(top="TopModule")

_rng = random.Random(0)
TESTBENCH = Testbench(
    points=[
        FunctionalPoint(
            {port.verilog_name: _rng.getrandbits(port.width) for port in PROBLEM.inputs}
        )
        for _ in range(POINTS)
    ],
    reset_cycles=0,
)


def _candidate(index: int) -> str:
    """A structurally distinct candidate: forces a full candidate-side compile."""
    source = PROBLEM.golden_chisel
    brace = source.rfind("}")
    padding = f"  val pad{index} = Wire(UInt(4.W))\n  pad{index} := {index % 16}.U\n"
    return source[:brace] + padding + source[brace:]


def _revision(index: int) -> str:
    """Iteration k+1 of a repair loop: a cosmetically revised candidate."""
    return f"// attempt {index}: reviewer feedback applied\n" + PROBLEM.golden_chisel


def _verify(compiler: ChiselCompiler, source: str, backend: str) -> None:
    golden = compiler.compile(PROBLEM.golden_chisel)
    candidate = compiler.compile(source)
    os.environ["REPRO_TB_BACKEND"] = backend
    try:
        outcome = SIMULATOR.simulate(candidate.verilog, golden.verilog, TESTBENCH)
    finally:
        del os.environ["REPRO_TB_BACKEND"]
    assert outcome.success, outcome.error


def _timed(round_fn, index: int) -> float:
    start = time.perf_counter()
    round_fn(index)
    return time.perf_counter() - start


def _median_rounds(round_fn) -> float:
    return statistics.median(_timed(round_fn, index) for index in range(ROUNDS))


def _alternate(baseline_round, engine_round, restore=None) -> tuple[float, float]:
    """Median seconds of ``ROUNDS`` baseline and ``ROUNDS`` engine rounds.

    Both sides of a speedup ratio are timed in one test, in alternating
    rounds, so a swing in host speed (a busy neighbour, frequency scaling)
    slows both sides alike instead of moving the ratio.  ``restore`` runs
    untimed after each baseline round, to put back state the baseline threw
    away.
    """
    baseline, engine = [], []
    for index in range(ROUNDS):
        baseline.append(_timed(baseline_round, index))
        if restore is not None:
            restore()
        engine.append(_timed(engine_round, index))
    return statistics.median(baseline), statistics.median(engine)


_BASELINE_COMPILER = ChiselCompiler(top="TopModule", cache_size=None)


def _baseline_round(index: int) -> None:
    """Every cache cleared, candidate and reference recompiled, step-wise testbench."""
    clear_registered_caches()
    clear_kernel_cache()
    _verify(_BASELINE_COMPILER, _candidate(1000 + index), "stepwise")


def _speedup_over_baseline(benchmark, engine_round) -> tuple[float, float, float]:
    """Alternate cold baseline rounds with warm engine rounds; return the ratio.

    Each baseline round empties every cache, so the warm state the engine was
    measured in is snapshotted first and restored after each baseline round.
    """
    warm = snapshot_registered_caches()

    def run() -> tuple[float, float]:
        return _alternate(
            _baseline_round, engine_round, lambda: restore_registered_caches(warm)
        )

    baseline, engine = run_once(benchmark, run)
    speedup = baseline / engine
    benchmark.extra_info.update(baseline_s=baseline, engine_s=engine, speedup=speedup)
    return speedup, baseline, engine


@pytest.mark.cache_mutating
def test_verify_cold_stepwise_full_recompile(benchmark):
    run_once(benchmark, lambda: _median_rounds(_baseline_round))


@pytest.mark.cache_mutating
def test_verify_cold_candidate_trace(benchmark):
    compiler = ChiselCompiler(top="TopModule", cache_size=4096)
    clear_registered_caches()
    clear_kernel_cache()
    _verify(compiler, _candidate(2000), "auto")  # steady state: golden side warm

    speedup, baseline, engine = _speedup_over_baseline(
        benchmark, lambda index: _verify(compiler, _candidate(index), "auto")
    )
    assert speedup >= MIN_COLD_SPEEDUP, (
        f"cold-candidate verify speedup {speedup:.1f}x below {MIN_COLD_SPEEDUP}x "
        f"(baseline {baseline * 1000:.1f} ms, engine {engine * 1000:.1f} ms)"
    )


@pytest.mark.cache_mutating
def test_verify_warm_iteration(benchmark):
    compiler = ChiselCompiler(top="TopModule", cache_size=4096)
    _verify(compiler, _revision(0), "auto")  # iteration k fills the stage caches

    speedup, baseline, engine = _speedup_over_baseline(
        benchmark, lambda index: _verify(compiler, _revision(1 + index), "auto")
    )
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm iteration-k+1 verify speedup {speedup:.1f}x below {MIN_WARM_SPEEDUP}x "
        f"(baseline {baseline * 1000:.1f} ms, engine {engine * 1000:.1f} ms)"
    )


def test_verify_trace_vs_stepwise(benchmark):
    compiler = ChiselCompiler(top="TopModule", cache_size=4096)
    _verify(compiler, _candidate(3000), "auto")

    def run() -> tuple[float, float]:
        return _alternate(
            lambda index: _verify(compiler, _candidate(3000), "stepwise"),
            lambda index: _verify(compiler, _candidate(3000), "trace"),
        )

    stepwise_elapsed, trace_elapsed = run_once(benchmark, run)
    speedup = stepwise_elapsed / trace_elapsed
    benchmark.extra_info.update(
        stepwise_s=stepwise_elapsed, trace_s=trace_elapsed, speedup=speedup
    )
    assert speedup >= MIN_TRACE_SPEEDUP, (
        f"trace backend speedup {speedup:.1f}x below {MIN_TRACE_SPEEDUP}x "
        f"(step-wise {stepwise_elapsed * 1000:.1f} ms, trace {trace_elapsed * 1000:.1f} ms)"
    )
