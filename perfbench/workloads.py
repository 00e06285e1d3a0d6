"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in :meth:`setup`, then
runs identical *rounds*: every round starts from empty toolchain caches,
drives the same work items through the program's public API, records each
item's latency and checks every output against committed expectations in
``perfbench/expected/`` (see ``make_expected.py``).  A mismatch is returned as
an error string, never folded into a number.

Work items: one ReChisel session (``sweep-cold``), one served job
(``served-mix``), one verify (``verify-deep``) or one fuzz program (``fuzz``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field, replace

from repro.caching import cache_stats, clear_registered_caches
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EvaluationHarness
from repro.experiments.strategies import ReChiselStrategy
from repro.experiments.work import WorkerContext, WorkUnit
from repro.fuzz.config import FuzzConfig
from repro.fuzz.session import run_session
from repro.llm.profiles import PAPER_MODELS
from repro.problems.registry import build_default_registry
from repro.service import GenerationService, ServiceConfig
from repro.sim.testbench import FunctionalPoint, Testbench
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import Simulator

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

# sweep-cold and fuzz are pinned to one input set whatever the workload seed:
# their cost per seed varies far more than any bound (the sweep by 14-25%
# across samples 0-4, fuzz sessions 6.1-10.9 s across session seeds 0-9),
# so a seed-dependent draw would measure the draw, not the program.
SWEEP_SEED = 0
SWEEP_MAX_ITERATIONS = 10

#: The four-strategy mix of ``examples/serve.py``: (strategy, knobs, max iterations).
SERVE_STRATEGIES = (
    ("zero_shot", (("language", "chisel"),), 0),
    ("zero_shot", (("language", "verilog"),), 0),
    ("rechisel", ReChiselStrategy().knob_items(), SWEEP_MAX_ITERATIONS),
    ("autochip", (), SWEEP_MAX_ITERATIONS),
)
SERVE_CLIENTS = 8

VERIFY_PROBLEMS = 64
VERIFY_POINTS = 8192
VERIFY_MISMATCHES_KEPT = 4

FUZZ_SESSION_SEED = 0
FUZZ_PROGRAMS = 40
FUZZ_POINTS = 12


def payload_digest(document: object) -> str:
    """Short content digest of a JSON-serializable document."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def cache_counts() -> dict[str, int]:
    """Hit/miss counters of every registered toolchain cache."""
    counts = {}
    for name, stats in cache_stats().items():
        counts[f"cache.{name}.hits"] = stats["hits"]
        counts[f"cache.{name}.misses"] = stats["misses"]
    return counts


@dataclass
class RoundResult:
    """What one round measured and checked."""

    #: Seconds per item, in item order (the same order in every round).
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    errors: list[str] = field(default_factory=list)
    #: Counts that repeat exactly for a given seed.
    counts: dict[str, int] = field(default_factory=dict)
    #: Counts that depend on thread timing (reported, never compared).
    timing_counts: dict[str, int] = field(default_factory=dict)


class Workload:
    """Base class: seeded inputs built by :meth:`setup`, repeatable rounds."""

    name = ""
    #: The latency percentile reported as ``latency_tail_ms``: the highest
    #: one with at least ten items beyond it in a single round.
    tail_percentile = 99.0
    #: Layers whose call counts depend on thread timing on this workload.
    timing_layers: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer=None) -> RoundResult:
        raise NotImplementedError


class SweepCold(Workload):
    """Table III ReChisel sweep: 216 problems x 5 models, serial, cold caches."""

    name = "sweep-cold"
    tail_percentile = 99.0

    def setup(self) -> None:
        self.registry = build_default_registry()
        self.config = ExperimentConfig(
            samples_per_case=1,
            max_iterations=SWEEP_MAX_ITERATIONS,
            max_cases=None,
            seed=SWEEP_SEED,
        )
        self.expected = load_expected("sweep_cold")

    def run_round(self, tracer=None) -> RoundResult:
        clear_registered_caches()
        result = RoundResult()
        harness = EvaluationHarness(self.config, registry=self.registry)
        clock = time.perf_counter
        last = [0.0]
        model_name = [""]

        def progress(done: int, total: int) -> None:
            now = clock()
            result.latencies.append(now - last[0])
            last[0] = now
            if tracer is not None:
                tracer.item = f"{model_name[0]}/{done}"

        harness.engine.progress = progress
        cases_per_model = len(self.registry)
        start = clock()
        for model in PAPER_MODELS:
            model_name[0] = model
            if tracer is not None:
                tracer.item = f"{model}/0"
            result.attempted += cases_per_model
            last[0] = clock()
            try:
                cases = harness.run_rechisel(model)
            except Exception as exc:  # noqa: BLE001 — a raising sweep is a failed item set
                result.failed += cases_per_model
                result.errors.append(f"{model}: sweep raised {exc!r}")
                continue
            payloads = [sample.to_payload() for case in cases for sample in case.results]
            if payload_digest(payloads) != self.expected[model]:
                result.errors.append(
                    f"{model}: payload digest {payload_digest(payloads)} != "
                    f"committed {self.expected[model]}"
                )
        result.wall = clock() - start
        result.counts = {"work.items": len(result.latencies), **cache_counts()}
        return result


def served_universe(problem_ids: list[str]) -> list[WorkUnit]:
    """Every (strategy, model, problem) job of the served mix.

    Ordered strategy-major, then model, then problem, so the job for
    ``(strategy s, model m, problem p)`` sits at ``(s * models + m) * problems + p``.
    """
    return [
        WorkUnit(
            strategy=strategy,
            model=model,
            problem_id=problem_id,
            case_index=case_index,
            sample=0,
            seed=0,
            max_iterations=max_iterations,
            knobs=knobs,
        )
        for strategy, knobs, max_iterations in SERVE_STRATEGIES
        for model in PAPER_MODELS
        for case_index, problem_id in enumerate(problem_ids)
    ]


def served_draw(seed: int, problems: int) -> list[int]:
    """Universe indices of one seed's jobs: every (problem, model) pair once.

    Model ``m`` of problem ``p`` gets strategy ``(p + m) % 4``, so each
    problem sees all four strategies and one of them twice.  That job set is
    the same for every seed; the seed draws the order the jobs go out in,
    which decides which jobs run side by side, how simulate calls batch and
    what the caches evict.  A seeded job set changes the amount of work with
    the seed: free draws of 1000 jobs spread ``ops_per_s`` by 25% over seeds
    0-4, and a seeded strategy arrangement made seed 7 about 10% slower than
    seeds 0 and 9 in interleaved rounds.
    """
    rng = random.Random(f"served-mix:{seed}")
    models = len(PAPER_MODELS)
    strategies = len(SERVE_STRATEGIES)
    picks = [
        (((problem + model) % strategies) * models + model) * problems + problem
        for problem in range(problems)
        for model in range(models)
    ]
    rng.shuffle(picks)
    return picks


class ServedMix(Workload):
    """GenerationService under a closed loop of 8 clients on one event loop."""

    name = "served-mix"
    tail_percentile = 99.0
    # Batch composition decides how many simulate calls run and which
    # kernels they compile; LRU eviction order decides Verilog re-parses.
    timing_layers = ("verilog.parse", "kernel.codegen", "sim.run")

    def setup(self) -> None:
        clear_registered_caches()
        self.context = WorkerContext()
        problems = list(self.context.registry)
        for problem in problems:
            self.context.reference_verilog(problem)
        universe = served_universe([problem.problem_id for problem in problems])
        picks = served_draw(self.seed, len(problems))
        self.jobs = [universe[index] for index in picks]
        digests = load_expected("served_mix")["digests"]
        self.expected = [digests[index] for index in picks]

    def run_round(self, tracer=None) -> RoundResult:
        clear_registered_caches()
        return asyncio.run(self._serve())

    async def _serve(self) -> RoundResult:
        result = RoundResult(attempted=len(self.jobs), latencies=[0.0] * len(self.jobs))
        payloads: list[dict | None] = [None] * len(self.jobs)
        pending = iter(enumerate(self.jobs))
        clock = time.perf_counter
        service = GenerationService(ServiceConfig(), context=self.context)

        async def client() -> None:
            # Closed loop: the next job goes out only after this one's reply.
            for position, unit in pending:
                sent = clock()
                try:
                    payloads[position] = await service.submit(unit)
                except Exception as exc:  # noqa: BLE001 — a failed job is counted, not fatal
                    result.failed += 1
                    result.errors.append(f"job {position} ({unit.problem_id}) raised {exc!r}")
                result.latencies[position] = clock() - sent

        start = clock()
        async with service:
            await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))
        result.wall = clock() - start

        for position, (payload, expected) in enumerate(zip(payloads, self.expected)):
            if payload is not None and payload_digest(payload) != expected:
                unit = self.jobs[position]
                result.errors.append(
                    f"job {position} ({unit.strategy}/{unit.model}/{unit.problem_id}): "
                    f"payload digest {payload_digest(payload)} != committed {expected}"
                )
        snapshot = service.snapshot()
        result.counts = {
            "work.items": len(result.latencies),
            "service.llm_calls": snapshot.llm_calls,
            "service.tool_calls": snapshot.tool_calls,
            "service.sim_batched_requests": snapshot.sim_batched_requests,
        }
        # Which session resumes first depends on when the tool thread
        # finishes, so LRU eviction order -- and with it every cache counter
        # -- varies from run to run, like the number of simulate batches.
        result.timing_counts = {"service.sim_batches": snapshot.sim_batches, **cache_counts()}
        return result


def deep_testbench(problem) -> Testbench:
    """An 8192-point random testbench, seeded by the problem id alone."""
    rng = random.Random(f"verify-deep:{problem.problem_id}")
    cycles = 1 if problem.sequential else 0
    points = [
        FunctionalPoint(
            {port.verilog_name: rng.getrandbits(port.width) for port in problem.inputs},
            clock_cycles=cycles,
        )
        for _ in range(VERIFY_POINTS)
    ]
    return Testbench(points=points, reset_cycles=2 if problem.sequential else 0)


def verify_variants(problem) -> list[tuple[str, str]]:
    """``(variant id, Chisel source)``: the golden design and each functional fault."""
    variants = [("golden", problem.golden_chisel)]
    variants.extend(
        (fault.fault_id, fault.apply(problem.golden_chisel)) for fault in problem.functional_faults
    )
    return variants


def verdict(report) -> list:
    """The comparable part of a :class:`SimulationReport`."""
    return [
        report.passed,
        report.checked_points,
        report.failed_points,
        report.runtime_error,
        [
            [mismatch.point_index, mismatch.signal, mismatch.expected, mismatch.actual]
            for mismatch in report.mismatches[:VERIFY_MISMATCHES_KEPT]
        ],
    ]


class VerifyDeep(Workload):
    """Golden + functional-fault verifies of 64 problems on 8192-point testbenches."""

    name = "verify-deep"
    tail_percentile = 90.0

    def setup(self) -> None:
        clear_registered_caches()
        registry = build_default_registry()
        problems = list(registry)
        picks = sorted(
            random.Random(f"verify-deep:{self.seed}").sample(range(len(problems)), VERIFY_PROBLEMS)
        )
        compiler = ChiselCompiler(top="TopModule")
        self.items = []  # (key, DUT Verilog, golden Verilog, testbench)
        for index in picks:
            problem = problems[index]
            testbench = deep_testbench(problem)
            verilog = {}
            for variant, source in verify_variants(problem):
                compiled = compiler.compile(source)
                if not compiled.success:
                    raise RuntimeError(f"{problem.problem_id}:{variant} does not compile")
                verilog[variant] = compiled.verilog
            for variant, text in verilog.items():
                self.items.append(
                    (f"{problem.problem_id}:{variant}", text, verilog["golden"], testbench)
                )
        self.expected = load_expected("verify_deep")["verdicts"]

    def run_round(self, tracer=None) -> RoundResult:
        clear_registered_caches()
        result = RoundResult(attempted=len(self.items))
        simulator = Simulator(top="TopModule")
        # The simulator memoizes stimulus plans on the testbench object; a
        # fresh copy per round keeps every round as cold as the first.
        fresh = {id(testbench): replace(testbench) for _, _, _, testbench in self.items}
        clock = time.perf_counter
        failed_points = 0
        start = clock()
        for key, dut, golden, testbench in self.items:
            testbench = fresh[id(testbench)]
            if tracer is not None:
                tracer.item = key
            sent = clock()
            try:
                outcome = simulator.simulate(dut, golden, testbench)
            except Exception as exc:  # noqa: BLE001 — a raising verify is a failed item
                result.latencies.append(clock() - sent)
                result.failed += 1
                result.errors.append(f"{key}: simulate raised {exc!r}")
                continue
            result.latencies.append(clock() - sent)
            if outcome.error is not None:
                result.failed += 1
                result.errors.append(f"{key}: {outcome.error}")
                continue
            if outcome.report.runtime_error is not None:
                result.failed += 1
            failed_points += outcome.report.failed_points
            observed = verdict(outcome.report)
            if observed != self.expected[key]:
                result.errors.append(f"{key}: verdict {observed} != committed {self.expected[key]}")
        result.wall = clock() - start
        result.counts = {
            "work.items": len(result.latencies),
            "verify.failed_points": failed_points,
            **cache_counts(),
        }
        return result


class Fuzz(Workload):
    """One differential fuzz session: 40 programs, 12 points each, no corpus."""

    name = "fuzz"
    tail_percentile = 75.0

    @staticmethod
    def session_config() -> FuzzConfig:
        # Shrinking runs only on a finding, which already fails the run;
        # turning it off keeps a failing run inside its time limit.
        return FuzzConfig(
            seed=FUZZ_SESSION_SEED,
            iterations=FUZZ_PROGRAMS,
            points=FUZZ_POINTS,
            corpus_path=None,
            shrink_failures=False,
        )

    def setup(self) -> None:
        self.config = self.session_config()
        self.expected = load_expected("fuzz")

    def run_round(self, tracer=None) -> RoundResult:
        clear_registered_caches()
        result = RoundResult(attempted=self.config.iterations)
        clock = time.perf_counter
        last = [0.0]
        counters: dict[str, int] = {}

        def progress(index: int, session) -> None:
            now = clock()
            result.latencies.append(now - last[0])
            last[0] = now
            if tracer is not None:
                tracer.item = index + 1
            # The session's compiler (and its compile cache) is gone once
            # run_session returns, so read the counters while it is alive.
            counters.update(cache_counts())

        if tracer is not None:
            tracer.item = 0
        start = last[0] = clock()
        try:
            session = run_session(self.config, progress=progress)
        except Exception as exc:  # noqa: BLE001 — a raising session fails its programs
            result.wall = clock() - start
            result.failed = result.attempted - len(result.latencies)
            result.errors.append(f"fuzz session raised {exc!r}")
            return result
        result.wall = clock() - start
        for finding in session.findings:
            result.errors.append(f"fuzz finding: {finding.program.repro_line()}")
        if (session.programs, session.checks) != (
            self.expected["programs"],
            self.expected["checks"],
        ):
            result.errors.append(
                f"fuzz ran {session.programs} programs / {session.checks} checks, "
                f"expected {self.expected['programs']} / {self.expected['checks']}"
            )
        result.counts = {
            "work.items": session.programs,
            "fuzz.checks": session.checks,
            **counters,
        }
        return result


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (SweepCold, ServedMix, VerifyDeep, Fuzz)
}
