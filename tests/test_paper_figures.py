"""The paper's figures and Table 1, regenerated and checked.

One class per artifact id of EXPERIMENTS.md (FIG1–FIG5, TAB1); each
rebuilds the artifact from the model and asserts the quantities the
paper derives from it.
"""

from itertools import combinations

import pytest

from repro.activation import flatten
from repro.binding import Allocation, Binding, binding_violations
from repro.boolexpr import evaluate_over_set
from repro.casestudies import (
    FIG5_COSTS,
    TABLE1,
    TABLE1_PROCESS_ORDER,
    build_settop_problem,
    build_settop_spec,
    build_tv_decoder_problem,
    build_tv_decoder_spec,
)
from repro.core import (
    dominates,
    explore,
    flexibility,
    max_flexibility,
    possible_allocation_expr,
)
from repro.hgraph import HierarchyIndex, count_elements, leaves
from repro.report import mapping_table, tradeoff_plot
from repro.spec import supports_problem


@pytest.fixture(scope="module")
def settop():
    """The Figure 5 / Table 1 Set-Top box specification."""
    return build_settop_spec()


@pytest.fixture(scope="module")
def tv_spec():
    """The Figure 2 digital-TV-decoder specification."""
    return build_tv_decoder_spec()


class TestFig1TvDecoder:
    """FIG1: the hierarchical TV-decoder problem graph of Figure 1."""

    #: Equation (1) applied to Figure 1, as spelled out in the text.
    PAPER_LEAVES = {"P_A", "P_C", "P_D1", "P_D2", "P_D3", "P_U1", "P_U2"}

    def test_leaf_set_equation_1(self):
        assert set(leaves(build_tv_decoder_problem())) == self.PAPER_LEAVES

    def test_element_counts(self):
        stats = count_elements(build_tv_decoder_problem())
        assert stats["vertices"] == 7
        assert stats["interfaces"] == 2  # I_D and I_U
        assert stats["clusters"] == 5  # gamma_D1..3, gamma_U1..2
        assert stats["max_depth"] == 1

    def test_decoder_flexibility(self):
        # 3 decryptions + 2 uncompressions - 1
        assert max_flexibility(build_tv_decoder_problem()) == 4.0


def enumerate_possible(spec):
    """Every subset of the units satisfying the possible-allocation
    equation, by brute force over the subset lattice."""
    expr = possible_allocation_expr(spec)
    names = list(spec.units.names())
    return [
        frozenset(subset)
        for size in range(len(names) + 1)
        for subset in combinations(names, size)
        if evaluate_over_set(expr, subset)
    ]


class TestFig2Specification:
    """FIG2: the hierarchical specification graph of Figure 2."""

    #: The prefix of A published in Section 4.
    PAPER_ALLOCATION_PREFIX = (
        {"muP"},
        {"muP", "C1"},
        {"muP", "C2"},
        {"muP", "C1", "C2"},
        {"muP", "D3"},
        {"muP", "U2"},
        {"muP", "C1", "D3"},
        {"muP", "C2", "D3"},
        {"muP", "C1", "U2"},
        {"muP", "C2", "U2"},
        {"muP", "C1", "C2", "D3"},
    )

    def test_possible_allocation_set(self, tv_spec):
        possible = enumerate_possible(tv_spec)
        for element in self.PAPER_ALLOCATION_PREFIX:
            assert frozenset(element) in possible, element
        assert frozenset(tv_spec.units.names()) in possible
        # the processor is the only host of P_A and P_C
        assert all("muP" in subset for subset in possible)
        # A = all supersets of {muP}
        assert len(possible) == 2 ** 6

    def test_equation_matches_reduction(self, tv_spec):
        for subset in enumerate_possible(tv_spec):
            assert supports_problem(tv_spec, subset)

    def test_infeasible_asic_fpga_binding(self, tv_spec):
        """P_D^2 on the ASIC with P_U^1 on the FPGA: no bus joins them."""
        flat = flatten(
            tv_spec.problem, {"I_D": "gamma_D2", "I_U": "gamma_U1"}
        )
        allocation = Allocation(tv_spec, set(tv_spec.units.names()))
        binding = Binding(
            tv_spec,
            {"P_A": "muP", "P_C": "muP", "P_D2": "A", "P_U1": "U1_res"},
        )
        violations = binding_violations(tv_spec, allocation, flat, binding)
        assert any("rule 3" in v for v in violations)


class TestFig3Flexibility:
    """FIG3: the Set-Top problem graph and its flexibility values (8,
    5 without the game and the 1 + 3 + 4 expansion are pinned by
    ``tests/test_golden_paper.py::test_golden_fig3_flexibility_values``)."""

    def test_weighted_variant_footnote_2(self):
        """Unit weights reduce the weighted sum to the plain metric."""
        problem = build_settop_problem()
        assert flexibility(problem, weighted=True) == 8.0
        index = HierarchyIndex(problem)
        index.cluster("gamma_D3").attrs["weight"] = 3.0
        assert flexibility(problem, weighted=True) == 10.0


class TestFig4Tradeoff:
    """FIG4: the cost/(1/flexibility) tradeoff curve of the case study."""

    @pytest.fixture(scope="class")
    def front(self, settop):
        return explore(settop).front()

    def test_six_pareto_points(self, front):
        assert len(front) == 6

    def test_front_monotone_reciprocal(self, front):
        costs = [c for c, _ in front]
        reciprocal = [1.0 / f for _, f in front]
        assert costs == sorted(costs)
        assert reciprocal == sorted(reciprocal, reverse=True)

    def test_points_mutually_non_dominated(self, front):
        for a in front:
            for b in front:
                assert not dominates(a, b)

    def test_plot_marks_every_pareto_point(self, front):
        assert tradeoff_plot(front).count("P") >= 6


class TestFig5Specification:
    """FIG5: the full Set-Top box specification."""

    def test_build_freezes(self, settop):
        assert settop.frozen

    def test_architecture_inventory(self, settop):
        """2 processors, 3 ASICs, 9 buses and the FPGA's 3 designs:
        17 allocatable units."""
        catalog = settop.units
        buses = {f"C{i}" for i in range(9)}  # C1, C2, C5 named in the text
        assert {u.name for u in catalog.comm_units()} == buses
        assert set(catalog.names()) == {
            "muP1", "muP2", "A1", "A2", "A3", "D3", "U2", "G1",
        } | buses
        for design in ("D3", "U2", "G1"):
            unit = catalog.unit(design)
            assert unit.kind == "cluster"
            assert unit.interface == "FPGA"

    def test_costs_reproduce_published_totals(self, settop):
        catalog = settop.units
        for name, cost in FIG5_COSTS.items():
            assert catalog.unit(name).cost == cost
        assert catalog.total_cost(["muP2"]) == 100.0
        assert catalog.total_cost(["muP1"]) == 120.0
        assert catalog.total_cost(["muP2", "G1", "U2", "C1"]) == 230.0
        assert catalog.total_cost(["muP2", "D3", "G1", "U2", "C1"]) == 290.0
        assert catalog.total_cost(["muP2", "A1", "C2"]) == 360.0
        assert catalog.total_cost(["muP2", "A1", "D3", "C1", "C2"]) == 430.0

    def test_bus_topology(self, settop):
        """C1: muP2-FPGA, C2: muP2-A1, C5: muP1-FPGA (from the text)."""
        pairs = {e.pair for e in settop.architecture.edges}
        assert ("C1", "muP2") in pairs and ("C1", "FPGA") in pairs
        assert ("C2", "muP2") in pairs and ("C2", "A1") in pairs
        assert ("C5", "muP1") in pairs and ("C5", "FPGA") in pairs
        # the infeasibility driver: no direct ASIC-FPGA connection
        assert not any({a, b} == {"A1", "FPGA"} for a, b in pairs)

    def test_problem_side_counts(self, settop):
        index = settop.p_index
        assert len(index.vertices) == 15  # the 15 Table 1 processes
        assert len(index.clusters) == 11
        assert len(index.interfaces) == 4  # I_App, I_G, I_D, I_U
        assert len(settop.mappings) == 47  # filled cells of Table 1


class TestTable1Mappings:
    """TAB1: possible mappings and core execution times."""

    #: Table 1 as printed (rows in paper order; None = '-'), kept apart
    #: from the model constants so two transcriptions are compared.
    PAPER_ROWS = {
        "P_C_I": (10, 12, None, None, None, None, None, None),
        "P_P": (15, 19, None, None, None, None, None, None),
        "P_F": (50, 75, None, None, None, None, None, None),
        "P_C_G": (25, 27, None, None, None, None, None, None),
        "P_G1": (75, 95, 15, 15, 15, None, None, 20),
        "P_G2": (None, None, 25, 22, 22, None, None, None),
        "P_G3": (None, None, 50, 45, 35, None, None, None),
        "P_D": (70, 90, 30, 30, 25, None, None, None),
        "P_C_D": (10, 10, None, None, None, None, None, None),
        "P_A": (55, 60, None, None, None, None, None, None),
        "P_D1": (85, 95, 25, 22, 22, None, None, None),
        "P_D2": (None, None, 35, 33, 32, None, None, None),
        "P_D3": (None, None, None, None, None, 63, None, None),
        "P_U1": (40, 45, 15, 12, 10, None, None, None),
        "P_U2": (None, None, 29, 27, 22, None, 59, None),
    }

    #: Column order of the published table: muP1 muP2 A1 A2 A3 D3 U2 G1.
    COLUMNS = ("muP1", "muP2", "A1", "A2", "A3", "D3_res", "U2_res", "G1_res")

    def test_every_cell(self, settop):
        text = mapping_table(settop, TABLE1_PROCESS_ORDER, self.COLUMNS)
        lines = text.splitlines()[2:]
        assert len(lines) == 15
        filled = dashes = 0
        for process, line in zip(TABLE1_PROCESS_ORDER, lines):
            cells = line.split()[1:]
            assert len(cells) == len(self.COLUMNS)
            for value, cell in zip(self.PAPER_ROWS[process], cells):
                if value is None:
                    assert cell == "-", (process, cell)
                    dashes += 1
                else:
                    assert float(cell) == float(value), (process, cell)
                    filled += 1
        assert (filled, dashes) == (47, 73)

    def test_model_constants_match_paper(self):
        """The model's TABLE1 agrees with the transcription above."""
        for process, row in self.PAPER_ROWS.items():
            modeled = TABLE1[process]
            for resource, value in zip(self.COLUMNS, row):
                assert modeled.get(resource) == value or (
                    value is None and resource not in modeled
                ), (process, resource)
