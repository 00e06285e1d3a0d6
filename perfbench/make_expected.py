"""Regenerate the committed expectations in ``perfbench/expected/``.

Usage (from the repository root)::

    python3 perfbench/make_expected.py [sweep_cold] [served_mix] [verify_deep] [fuzz]

With no arguments every file is rebuilt.  The expectations come from paths
independent of the ones the benchmark times wherever one exists:

* ``sweep_cold`` / ``served_mix``: digests of serial
  :func:`~repro.experiments.strategies.execute_unit` payloads for every unit
  a seed can draw -- the service's bit-identity contract;
* ``verify_deep``: verdicts of the step-wise interpreter oracle
  (``run_testbench(..., backend="stepwise")`` with ``REPRO_SIM_BACKEND=
  interpreter``), never the trace/vector path under test;
* ``fuzz``: program and conformance-check counts of each session seed.

Only regenerate them when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.experiments.strategies import ReChiselStrategy, execute_unit  # noqa: E402
from repro.experiments.work import WorkerContext, WorkUnit  # noqa: E402
from repro.fuzz.session import run_session  # noqa: E402
from repro.llm.profiles import PAPER_MODELS  # noqa: E402
from repro.sim.testbench import run_testbench  # noqa: E402
from repro.toolchain.compiler import ChiselCompiler  # noqa: E402
from repro.verilog.parser import parse_verilog  # noqa: E402

from workloads import (  # noqa: E402
    EXPECTED_DIR,
    SWEEP_MAX_ITERATIONS,
    SWEEP_SEED,
    Fuzz,
    deep_testbench,
    payload_digest,
    served_universe,
    verdict,
    verify_variants,
)


def sweep_cold() -> dict:
    context = WorkerContext()
    problem_ids = [problem.problem_id for problem in context.registry]
    knobs = ReChiselStrategy().knob_items()
    return {
        model: payload_digest(
            [
                execute_unit(
                    context,
                    WorkUnit(
                        strategy="rechisel",
                        model=model,
                        problem_id=problem_id,
                        case_index=case_index,
                        sample=0,
                        seed=SWEEP_SEED,
                        max_iterations=SWEEP_MAX_ITERATIONS,
                        knobs=knobs,
                    ),
                )
                for case_index, problem_id in enumerate(problem_ids)
            ]
        )
        for model in PAPER_MODELS
    }


def served_mix() -> dict:
    context = WorkerContext()
    universe = served_universe([problem.problem_id for problem in context.registry])
    return {"digests": [payload_digest(execute_unit(context, unit)) for unit in universe]}


def _top(source: str):
    modules = parse_verilog(source)
    return next((module for module in modules if module.name == "TopModule"), modules[-1])


def verify_deep() -> dict:
    # The oracle must not run compiled kernels: force the interpreter.
    os.environ["REPRO_SIM_BACKEND"] = "interpreter"
    context = WorkerContext()
    compiler = ChiselCompiler(top="TopModule")
    verdicts = {}
    for problem in context.registry:
        testbench = deep_testbench(problem)
        golden = None
        for variant, source in verify_variants(problem):
            module = _top(compiler.compile(source).verilog)
            golden = golden or module
            report = run_testbench(module, golden, testbench, backend="stepwise")
            verdicts[f"{problem.problem_id}:{variant}"] = verdict(report)
    del os.environ["REPRO_SIM_BACKEND"]
    return {"verdicts": verdicts}


def fuzz() -> dict:
    session = run_session(Fuzz.session_config())
    if session.findings:
        raise SystemExit("the fuzz session has findings; fix the program first")
    return {"programs": session.programs, "checks": session.checks}


BUILDERS = {
    "sweep_cold": sweep_cold,
    "served_mix": served_mix,
    "verify_deep": verify_deep,
    "fuzz": fuzz,
}


def main(names: list[str]) -> None:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for name in names or list(BUILDERS):
        started = time.perf_counter()
        document = BUILDERS[name]()
        with open(os.path.join(EXPECTED_DIR, f"{name}.json"), "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{name}: written in {time.perf_counter() - started:.1f}s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
