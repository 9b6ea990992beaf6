"""Unit tests for allocation, binding, routing, feasibility and solvers."""

import json
import os
import subprocess
import sys

import pytest

from repro.activation import flatten
from repro.binding import (
    Allocation,
    Binding,
    BindingSolver,
    Router,
    allocation_of,
    binding_violations,
    is_feasible_binding,
    solve_binding,
    solve_binding_sat,
)
from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.errors import BindingError


@pytest.fixture(scope="module")
def tv_spec():
    return build_tv_decoder_spec()


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


#: Prints the SAT-backend result documents of the bridged randspecs,
#: coverage bindings included (wall-clock and cache counters removed).
SAT_DOCUMENTS = """
import json
from repro.core import explore
from repro.io import result_to_dict
from tests.randspec import random_bridged_spec
documents = []
for seed in range(40):
    result = explore(random_bridged_spec(seed), backend="sat")
    document = result_to_dict(result)
    document["stats"].pop("elapsed_seconds")
    document.pop("cache")
    documents.append(document)
print(json.dumps(documents, sort_keys=True))
"""

TV_D2U1 = {"I_D": "gamma_D2", "I_U": "gamma_U1"}
TV_D1U1 = {"I_D": "gamma_D1", "I_U": "gamma_U1"}


class TestAllocation:
    def test_cost(self, tv_spec):
        alloc = Allocation(tv_spec, {"muP", "C1", "D3"})
        assert alloc.cost == 140.0

    def test_unknown_unit_rejected(self, tv_spec):
        with pytest.raises(Exception):
            Allocation(tv_spec, {"muP", "nope"})

    def test_closed(self, tv_spec):
        assert Allocation(tv_spec, {"muP", "D3"}).closed
        allocation_of(tv_spec, {"muP"})  # does not raise

    def test_functional_comm_split(self, tv_spec):
        alloc = Allocation(tv_spec, {"muP", "C1", "D3"})
        assert alloc.functional_unit_names() == {"muP", "D3"}
        assert alloc.comm_unit_names() == {"C1"}

    def test_contains_eq_hash(self, tv_spec):
        a1 = Allocation(tv_spec, {"muP"})
        a2 = Allocation(tv_spec, {"muP"})
        assert "muP" in a1 and a1 == a2 and hash(a1) == hash(a2)


class TestBinding:
    def test_requires_mapping_edge(self, tv_spec):
        with pytest.raises(BindingError):
            Binding(tv_spec, {"P_D2": "muP"})  # P_D2 only maps to A

    def test_lookups(self, tv_spec):
        b = Binding(tv_spec, {"P_D3": "D3_res", "P_A": "muP"})
        assert b.resource_of("P_D3") == "D3_res"
        assert b.unit_of("P_D3") == "D3"
        assert b.latency_of("P_D3") == 63.0
        assert b.used_units() == {"D3", "muP"}
        assert "P_A" in b and len(b) == 2

    def test_unbound_raises(self, tv_spec):
        b = Binding(tv_spec, {})
        with pytest.raises(BindingError):
            b.resource_of("P_A")


class TestRouter:
    def test_direct_bus_route(self, tv_spec):
        router = Router(tv_spec, {"muP", "A", "C2"})
        assert router.resources_connected("muP", "A")

    def test_no_bus_no_route(self, tv_spec):
        router = Router(tv_spec, {"muP", "A"})
        assert not router.resources_connected("muP", "A")

    def test_same_resource_trivially_connected(self, tv_spec):
        router = Router(tv_spec, {"muP"})
        assert router.resources_connected("muP", "muP")

    def test_asic_fpga_not_connected(self, tv_spec):
        """The paper's infeasible-binding example: no ASIC-FPGA bus."""
        router = Router(tv_spec, set(tv_spec.units.names()))
        assert not router.resources_connected("A", "U1_res")
        # not even through muP: functional resources do not route
        assert router.resources_connected("muP", "A")
        assert router.resources_connected("muP", "U1_res")

    def test_cluster_unit_uses_interface_connectivity(self, tv_spec):
        router = Router(tv_spec, {"muP", "C1", "D3"})
        assert router.resources_connected("muP", "D3_res")

    def test_unallocated_bus_does_not_route(self, tv_spec):
        router = Router(tv_spec, {"muP", "D3"})
        assert not router.resources_connected("muP", "D3_res")

    def test_multi_hop_bus_chain(self):
        """Routes may pass through chained communication resources but
        never through a functional resource."""
        from repro.spec import (
            ArchitectureGraph, ProblemGraph, make_specification,
        )

        arch = ArchitectureGraph()
        arch.add_resource("r1", cost=1)
        arch.add_resource("r2", cost=1)
        arch.add_resource("hub", cost=1)  # functional, must not route
        arch.add_bus("b1", 1, "r1")
        arch.add_bus("b2", 1, "r2")
        arch.add_edge("b1", "b2")
        arch.add_edge("b2", "b1")
        arch.add_edge("r1", "hub")
        arch.add_edge("hub", "r2")
        problem = ProblemGraph()
        problem.add_vertex("p")
        spec = make_specification(problem, arch, [("p", "r1", 1.0)])

        full = Router(spec, {"r1", "r2", "hub", "b1", "b2"})
        assert full.resources_connected("r1", "r2")  # via b1-b2
        no_bridge = Router(spec, {"r1", "r2", "hub", "b1"})
        # only r1-hub-r2 remains, and hub is functional
        assert not no_bridge.resources_connected("r1", "r2")

    def test_reachable_from_unknown_node_empty(self, tv_spec):
        router = Router(tv_spec, {"muP"})
        assert router.reachable_from("A") == frozenset()


class TestFeasibility:
    def test_paper_infeasible_example(self, tv_spec):
        """P_D2 on ASIC + P_U1 on FPGA: no bus connects ASIC and FPGA."""
        flat = flatten(tv_spec.problem, TV_D2U1)
        alloc = Allocation(tv_spec, set(tv_spec.units.names()))
        binding = Binding(
            tv_spec,
            {"P_A": "muP", "P_C": "muP", "P_D2": "A", "P_U1": "U1_res"},
        )
        violations = binding_violations(tv_spec, alloc, flat, binding)
        assert any("rule 3" in v for v in violations)
        assert not is_feasible_binding(tv_spec, alloc, flat, binding)

    def test_feasible_example(self, tv_spec):
        flat = flatten(tv_spec.problem, TV_D2U1)
        alloc = Allocation(tv_spec, {"muP", "A", "C2"})
        binding = Binding(
            tv_spec,
            {"P_A": "muP", "P_C": "muP", "P_D2": "A", "P_U1": "A"},
        )
        assert is_feasible_binding(tv_spec, alloc, flat, binding)

    def test_unbound_process_detected(self, tv_spec):
        flat = flatten(tv_spec.problem, TV_D2U1)
        alloc = Allocation(tv_spec, set(tv_spec.units.names()))
        binding = Binding(tv_spec, {"P_A": "muP", "P_C": "muP"})
        violations = binding_violations(tv_spec, alloc, flat, binding)
        assert any("rule 2" in v for v in violations)

    def test_inactive_process_detected(self, tv_spec):
        flat = flatten(tv_spec.problem, TV_D1U1)
        alloc = Allocation(tv_spec, set(tv_spec.units.names()))
        binding = Binding(
            tv_spec,
            {
                "P_A": "muP", "P_C": "muP", "P_D1": "muP", "P_U1": "muP",
                "P_D2": "A",  # gamma_D2 is not selected
            },
        )
        violations = binding_violations(tv_spec, alloc, flat, binding)
        assert any("rule 1" in v for v in violations)

    def test_unallocated_resource_detected(self, tv_spec):
        flat = flatten(tv_spec.problem, TV_D1U1)
        alloc = Allocation(tv_spec, {"muP"})
        binding = Binding(
            tv_spec,
            {"P_A": "muP", "P_C": "muP", "P_D1": "A", "P_U1": "muP"},
        )
        violations = binding_violations(tv_spec, alloc, flat, binding)
        assert any("not allocated" in v for v in violations)

    def test_two_fpga_designs_at_once_rejected(self, settop):
        """Architecture rule 1: the FPGA holds one design at a time."""
        flat = flatten(
            settop.problem,
            {"I_App": "gamma_D", "I_D": "gamma_D3", "I_U": "gamma_U2"},
        )
        alloc = Allocation(settop, {"muP2", "C1", "D3", "U2"})
        binding = Binding(
            settop,
            {
                "P_A": "muP2", "P_C_D": "muP2",
                "P_D3": "D3_res", "P_U2": "U2_res",
            },
        )
        violations = binding_violations(settop, alloc, flat, binding)
        assert any("FPGA" in v for v in violations)


class TestSolver:
    def test_solver_finds_feasible_binding(self, tv_spec):
        flat = flatten(tv_spec.problem, TV_D1U1)
        alloc = Allocation(tv_spec, {"muP"})
        binding = solve_binding(tv_spec, alloc, flat)
        assert binding is not None
        assert binding.as_dict() == {
            "P_A": "muP", "P_C": "muP", "P_D1": "muP", "P_U1": "muP",
        }

    def test_solver_respects_routing(self, tv_spec):
        # gamma_D3 requires the FPGA and hence bus C1
        flat = flatten(
            tv_spec.problem, {"I_D": "gamma_D3", "I_U": "gamma_U1"}
        )
        assert solve_binding(
            tv_spec, Allocation(tv_spec, {"muP", "D3"}), flat
        ) is None
        assert solve_binding(
            tv_spec, Allocation(tv_spec, {"muP", "D3", "C1"}), flat
        ) is not None

    def test_solver_respects_interface_exclusivity(self, settop):
        flat = flatten(
            settop.problem,
            {"I_App": "gamma_D", "I_D": "gamma_D3", "I_U": "gamma_U2"},
        )
        # Only FPGA designs can host P_D3 and P_U2, but never together.
        alloc = Allocation(settop, {"muP2", "C1", "D3", "U2"})
        assert solve_binding(settop, alloc, flat) is None

    def test_solver_respects_utilization(self, settop):
        flat = flatten(settop.problem, {"I_App": "gamma_G", "I_G": "gamma_G1"})
        # game on muP2 alone: (95+90)/240 > 0.69 -> no feasible binding
        assert solve_binding(settop, Allocation(settop, {"muP2"}), flat) is None
        # on muP1 it fits
        assert solve_binding(settop, Allocation(settop, {"muP1"}), flat) is not None

    def test_solver_without_utilization_check(self, settop):
        flat = flatten(settop.problem, {"I_App": "gamma_G", "I_G": "gamma_G1"})
        solver = BindingSolver(
            settop, Allocation(settop, {"muP2"}), check_utilization=False
        )
        assert solver.solve(flat) is not None

    def test_iter_solutions_all_distinct(self, tv_spec):
        flat = flatten(tv_spec.problem, TV_D1U1)
        alloc = Allocation(tv_spec, set(tv_spec.units.names()))
        solver = BindingSolver(tv_spec, alloc)
        solutions = list(solver.iter_solutions(flat))
        assert len(solutions) == len(set(solutions))
        assert all(
            is_feasible_binding(tv_spec, alloc, flat, b) for b in solutions
        )
        # P_D1 on muP or A, P_U1 on muP, A or U1_res -> but A<->FPGA fails;
        # enumerate to confirm the solver found every feasible combination.
        assert len(solutions) >= 4

    def test_solutions_verified_feasible(self, settop):
        flat = flatten(
            settop.problem,
            {"I_App": "gamma_D", "I_D": "gamma_D3", "I_U": "gamma_U1"},
        )
        alloc = Allocation(settop, {"muP2", "C1", "D3"})
        binding = solve_binding(settop, alloc, flat)
        assert binding is not None
        assert is_feasible_binding(settop, alloc, flat, binding)
        assert binding.resource_of("P_D3") == "D3_res"

    def test_stats_counted(self, tv_spec):
        flat = flatten(tv_spec.problem, TV_D1U1)
        solver = BindingSolver(tv_spec, Allocation(tv_spec, {"muP"}))
        solver.solve(flat)
        assert solver.stats.invocations == 1
        assert solver.stats.assignments >= 4


class TestSatBackend:
    def test_sat_agrees_with_csp_on_feasibility(self, tv_spec):
        selections = [
            TV_D1U1,
            TV_D2U1,
            {"I_D": "gamma_D3", "I_U": "gamma_U1"},
            {"I_D": "gamma_D3", "I_U": "gamma_U2"},
        ]
        allocations = [
            {"muP"},
            {"muP", "A", "C2"},
            {"muP", "D3", "C1"},
            {"muP", "A", "D3", "U2", "C1", "C2"},
            set(tv_spec.units.names()),
        ]
        for selection in selections:
            flat = flatten(tv_spec.problem, selection)
            for units in allocations:
                alloc = Allocation(tv_spec, units)
                csp = solve_binding(tv_spec, alloc, flat)
                sat = solve_binding_sat(tv_spec, alloc, flat)
                assert (csp is None) == (sat is None), (selection, units)
                if sat is not None:
                    assert is_feasible_binding(tv_spec, alloc, flat, sat)

    def test_sat_bindings_do_not_depend_on_string_hashing(self):
        """Branching ties go to the smallest variable name, so two
        processes with different hash seeds bind alike."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.pathsep.join([os.path.join(root, "src"), root])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", SAT_DOCUMENTS],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        documents = json.loads(outputs[0])
        assert any(p["coverage"] for d in documents for p in d["points"])
        assert documents == json.loads(outputs[1])

    def test_sat_utilization_refinement(self, settop):
        flat = flatten(settop.problem, {"I_App": "gamma_G", "I_G": "gamma_G1"})
        assert solve_binding_sat(settop, Allocation(settop, {"muP2"}), flat) is None
        result = solve_binding_sat(settop, Allocation(settop, {"muP1"}), flat)
        assert result is not None
