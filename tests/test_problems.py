"""Tests for the benchmark registry: every golden solution must compile and
self-verify, every declared fault must behave as documented."""

import pytest

from repro.problems.base import SUITES
from repro.problems.mutations import SYNTAX_FAULTS, applicable_syntax_faults
from repro.problems.registry import (
    EXPECTED_PROBLEM_COUNT,
    ProblemRegistry,
    build_default_registry,
)
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import Simulator

REGISTRY = build_default_registry()
COMPILER = ChiselCompiler(top="TopModule")
SIMULATOR = Simulator(top="TopModule")
ALL_PROBLEMS = list(REGISTRY)
PROBLEM_IDS = [p.problem_id for p in ALL_PROBLEMS]


class TestRegistryStructure:
    def test_exactly_216_cases(self):
        assert len(REGISTRY) == EXPECTED_PROBLEM_COUNT == 216

    def test_three_suites_are_populated(self):
        for suite in SUITES:
            assert len(REGISTRY.by_suite(suite)) > 10

    def test_ids_are_unique(self):
        assert len(set(PROBLEM_IDS)) == len(PROBLEM_IDS)

    def test_lookup_by_id(self):
        assert REGISTRY.by_id("vector5").name.startswith("Vector5")
        with pytest.raises(KeyError):
            REGISTRY.by_id("does_not_exist")

    def test_add_rejects_a_duplicate_id_and_keeps_the_index(self):
        first, second = ALL_PROBLEMS[:2]
        registry = ProblemRegistry()
        registry.add(first)
        with pytest.raises(ValueError, match=f"duplicate problem id {first.problem_id!r}"):
            registry.add(first)
        registry.add(second)
        assert list(registry) == [first, second]
        assert registry.by_id(first.problem_id) is first
        assert registry.by_id(second.problem_id) is second
        with pytest.raises(KeyError):
            registry.by_id("does_not_exist")

    def test_a_registry_built_from_a_list_is_indexed(self):
        first, second = ALL_PROBLEMS[:2]
        registry = ProblemRegistry([first, second])
        assert registry.by_id(second.problem_id) is second
        with pytest.raises(ValueError, match="duplicate problem id"):
            registry.add(first)

    def test_every_problem_has_a_functional_fault(self):
        for problem in ALL_PROBLEMS:
            assert problem.functional_faults, problem.problem_id

    def test_spec_text_lists_all_ports(self):
        problem = REGISTRY.by_id("adder_w8")
        spec = problem.spec_text()
        for port in problem.inputs + problem.outputs:
            assert port.name in spec

    def test_sequential_problems_mention_clocking(self):
        problem = REGISTRY.by_id("counter_w4")
        assert "reset" in problem.spec_text().lower()

    def test_testbench_is_deterministic_per_seed(self):
        problem = REGISTRY.by_id("alu_w8")
        first = problem.build_testbench(seed=3)
        second = problem.build_testbench(seed=3)
        assert [p.inputs for p in first.points] == [p.inputs for p in second.points]


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=PROBLEM_IDS)
def test_golden_solution_compiles(problem):
    result = COMPILER.compile(problem.golden_chisel)
    assert result.success, f"{problem.problem_id}: {result.render_feedback()}"


@pytest.mark.parametrize(
    "problem",
    [p for p in ALL_PROBLEMS if p.problem_id.endswith(("_w8", "_w4")) or not p.problem_id[-1].isdigit()],
    ids=lambda p: p.problem_id,
)
def test_golden_solution_passes_its_own_testbench(problem):
    verilog = COMPILER.compile(problem.golden_chisel).verilog
    outcome = SIMULATOR.simulate(verilog, verilog, problem.build_testbench(seed=1))
    assert outcome.success, f"{problem.problem_id}: {outcome.render_feedback()}"


@pytest.mark.parametrize(
    "problem",
    [REGISTRY.by_id(pid) for pid in (
        "vector5", "adder_w8", "mux4_w8", "counter_w4", "alu_w8", "seq_detect_101",
        "priority_encoder_8", "mac_w4", "rr_arbiter_2", "sat_adder_w8",
    )],
    ids=lambda p: p.problem_id,
)
def test_functional_faults_compile_but_fail_simulation(problem):
    golden_verilog = COMPILER.compile(problem.golden_chisel).verilog
    for fault in problem.functional_faults:
        assert fault.applies_to(problem.golden_chisel), fault.fault_id
        faulty = fault.apply(problem.golden_chisel)
        compiled = COMPILER.compile(faulty)
        assert compiled.success, f"{fault.fault_id} should still compile"
        outcome = SIMULATOR.simulate(compiled.verilog, golden_verilog, problem.build_testbench(seed=2))
        assert not outcome.success, f"{fault.fault_id} should change behaviour"


class TestSyntaxFaultInjectors:
    @pytest.mark.parametrize("fault", SYNTAX_FAULTS, ids=lambda f: f.fault_id)
    def test_each_injector_produces_its_error_class(self, fault):
        problem = REGISTRY.by_id("alu_w8")
        if not fault.applies(problem.golden_chisel, problem):
            problem = REGISTRY.by_id("adder_w8")
        if not fault.applies(problem.golden_chisel, problem):
            pytest.skip(f"{fault.fault_id} does not apply to the sampled problems")
        faulty = fault.apply(problem.golden_chisel, problem)
        result = COMPILER.compile(faulty)
        assert not result.success, fault.fault_id
        if fault.error_class != "PARSE":
            assert any(d.code == fault.error_class for d in result.errors), (
                fault.fault_id,
                result.render_feedback(),
            )

    def test_applicable_faults_listed_for_every_problem(self):
        for problem in ALL_PROBLEMS[:40]:
            faults = applicable_syntax_faults(problem.golden_chisel, problem)
            assert len(faults) >= 5, problem.problem_id

    def test_injectors_do_not_modify_golden_in_place(self):
        problem = REGISTRY.by_id("adder_w8")
        original = problem.golden_chisel
        for fault in applicable_syntax_faults(original, problem):
            fault.apply(original, problem)
        assert problem.golden_chisel == original
