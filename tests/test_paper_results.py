"""The paper's Section 4–5 results, re-run and pinned.

One class per artifact id of EXPERIMENTS.md: RES (the six Pareto
points), STATS (the search-space reduction), SCALE (the scalability
claim), ABL (the ablations of the pruning and timing choices) and BASE
(exhaustive search and NSGA-II).  The counts are exact: they are
deterministic, so any change to them is a change to EXPLORE.
"""

import pytest

from repro.activation import flatten
from repro.binding import Allocation, BindingSolver
from repro.casestudies import (
    PAPER_PARETO,
    build_settop_spec,
    build_tv_decoder_spec,
    synthetic_spec,
)
from repro.core import (
    AllocationEnumerator,
    count_possible_allocations,
    dominates,
    estimate_flexibility,
    evaluate_allocation,
    exhaustive_front,
    explore,
    iter_possible_allocations,
    nsga2_explore,
)
from repro.report import coverage, front_summary, hypervolume
from repro.timing import meets_utilization_bound, schedule_meets_periods

#: The front of Section 5's results table.
PAPER_FRONT = [(cost, float(flex)) for _, cost, flex in PAPER_PARETO]


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


@pytest.fixture(scope="module")
def settop_result(settop):
    """One canonical EXPLORE run over the case study."""
    return explore(settop)


@pytest.fixture(scope="module")
def tv_spec():
    return build_tv_decoder_spec()


class TestResults:
    """RES: the Section 5 table of six Pareto-optimal solutions (the six
    (cost, flexibility) pairs are pinned on both engines by
    ``tests/test_compiled_kernel.py::test_settop_front_is_the_paper_front``)."""

    def test_allocations(self, settop_result):
        """Five rows match the paper; the $230 row is a documented tie."""
        observed = [frozenset(p.units) for p in settop_result.points]
        paper = [frozenset(units) for units, _, _ in PAPER_PARETO]
        differing = [row for row in range(6) if observed[row] != paper[row]]
        assert differing == [2]
        assert observed[2] == {"muP2", "D3", "G1", "C1"}

    def test_cluster_columns(self, settop_result):
        by_cost = {p.cost: p.clusters for p in settop_result.points}
        assert by_cost[100.0] == {
            "gamma_I", "gamma_D", "gamma_D1", "gamma_U1",
        }
        assert by_cost[120.0] == {
            "gamma_I", "gamma_G", "gamma_G1", "gamma_D", "gamma_D1",
            "gamma_U1",
        }
        assert by_cost[290.0] == {
            "gamma_I", "gamma_G", "gamma_G1", "gamma_D",
            "gamma_D1", "gamma_D3", "gamma_U1", "gamma_U2",
        }
        assert by_cost[360.0] == {
            "gamma_I", "gamma_G", "gamma_G1", "gamma_G2", "gamma_G3",
            "gamma_D", "gamma_D1", "gamma_D2", "gamma_U1", "gamma_U2",
        }
        assert len(by_cost[430.0]) == 11  # every cluster of the problem

    def test_narrative_muP2(self, settop):
        """Section 5 walks through {muP2}: estimated flexibility 3, the
        game rejected by the utilisation test, implemented flexibility 2."""
        assert estimate_flexibility(settop, {"muP2"}) == 3.0
        implementation = evaluate_allocation(settop, {"muP2"})
        assert implementation is not None
        assert implementation.flexibility == 2.0
        assert "gamma_G1" not in implementation.clusters

    def test_flagship_evaluation(self, settop):
        implementation = evaluate_allocation(
            settop, {"muP2", "A1", "D3", "C1", "C2"}
        )
        assert implementation is not None
        assert implementation.point == (430.0, 8.0)

    def test_keep_ties_lists_every_tied_allocation(self, settop):
        """Tie-preserving EXPLORE shows the paper's $230 row among the
        five equally optimal allocations, and its $290 row first."""
        result = explore(settop, keep_ties=True)
        rows = [(p.point, frozenset(p.units)) for p in result.points]
        assert rows == [
            ((100.0, 2.0), {"muP2"}),
            ((120.0, 3.0), {"muP1"}),
            ((230.0, 4.0), {"muP2", "C1", "D3", "G1"}),
            ((230.0, 4.0), {"muP2", "C1", "D3", "U2"}),
            ((230.0, 4.0), {"muP2", "C1", "G1", "U2"}),
            ((230.0, 4.0), {"muP1", "C5", "D3"}),
            ((230.0, 4.0), {"muP1", "C5", "U2"}),
            ((290.0, 5.0), {"muP2", "C1", "D3", "G1", "U2"}),
            ((290.0, 5.0), {"muP1", "C5", "D3", "U2"}),
            ((360.0, 7.0), {"muP2", "A1", "C2"}),
            ((430.0, 8.0), {"muP2", "A1", "C1", "C2", "D3"}),
        ]


class TestSearchReduction:
    """STATS: the Section 5 search-space-reduction narrative."""

    def test_settop_counts(self, settop_result):
        stats = settop_result.stats
        assert stats.design_space_size == 2 ** 17
        assert stats.candidates_enumerated == 8154
        assert stats.possible_allocations == 3720
        assert stats.pruned_comm == 3590
        assert stats.estimates_computed == 130
        assert stats.estimate_exceeded == 36
        assert stats.feasible_implementations == 36
        assert stats.solver_invocations == 252
        assert len(settop_result.points) == 6

    def test_possible_allocation_filter(self, settop):
        """The boolean equation rejects most subsets up to the $430
        horizon, and almost all of the raw space."""
        possible = sum(1 for _ in iter_possible_allocations(settop, 430.0))
        enumerated = sum(
            1 for cost, _ in AllocationEnumerator(settop) if cost <= 430.0
        )
        assert (possible, enumerated) == (3964, 8656)
        assert possible / settop.design_space_size() < 0.05

    def test_exact_possible_count_via_bdd(self, settop):
        """Possible allocations are exactly the subsets holding at
        least one processor, counted by BDD model counting."""
        count = count_possible_allocations(settop)
        assert count == 2 ** 17 - 2 ** 15  # 98,304
        assert count / settop.design_space_size() == 0.75

    def test_solver_reached_fraction(self, settop_result):
        """Binding is attempted for a tiny fraction only (paper:
        0.0032% of 2^25, 'typically less than 100')."""
        stats = settop_result.stats
        assert stats.estimate_exceeded / stats.design_space_size < 0.001
        assert stats.estimate_exceeded < 100

    def test_pipeline_shape(self, settop_result):
        """Counters shrink monotonically along the pruning pipeline."""
        stats = settop_result.stats
        assert (
            stats.design_space_size
            > stats.candidates_enumerated
            >= stats.possible_allocations
            > stats.estimate_exceeded
            >= stats.feasible_implementations
            >= len(settop_result.points)
        )

    def test_runtime_beats_paper(self, settop_result):
        """Paper: 'explored within minutes'."""
        assert settop_result.stats.elapsed_seconds < 30.0


#: (label, synthetic_spec kwargs, units, possible allocations,
#: binding attempts, Pareto points) of the SCALE table.
SIZES = [
    ("tiny", dict(n_apps=2, interfaces_per_app=1, alternatives=2,
                  n_procs=2, n_accels=2), 9, 1, 1, 1),
    ("small", dict(n_apps=3, interfaces_per_app=2, alternatives=3,
                   n_procs=2, n_accels=3), 12, 1789, 59, 4),
    ("medium", dict(n_apps=4, interfaces_per_app=2, alternatives=3,
                    n_procs=2, n_accels=4), 15, 10613, 108, 4),
    ("large", dict(n_apps=4, interfaces_per_app=3, alternatives=4,
                   n_procs=2, n_accels=5), 18, 102888, 592, 7),
]


class TestScalability:
    """SCALE: Section 4's claim on synthetic specifications."""

    @pytest.mark.parametrize(
        "kwargs, units, possible, attempts, points",
        [size[1:] for size in SIZES],
        ids=[size[0] for size in SIZES],
    )
    def test_reduction(self, kwargs, units, possible, attempts, points):
        spec = synthetic_spec(**kwargs)
        result = explore(spec)
        stats = result.stats
        assert len(spec.units) == units
        assert stats.possible_allocations == possible
        assert stats.estimate_exceeded == attempts
        assert len(result.points) == points
        # the published reduction claims, at every size
        assert stats.estimate_exceeded < 1000
        assert stats.estimate_exceeded / stats.design_space_size < 0.05
        costs = [c for c, _ in result.front()]
        assert costs == sorted(costs)

    def test_crossover_vs_exhaustive(self):
        """EXPLORE matches exhaustive search with far fewer than 2^n
        implementations attempted."""
        spec = synthetic_spec(**SIZES[0][1])
        result = explore(spec)
        assert result.front() == [impl.point for impl in exhaustive_front(spec)]
        assert result.stats.estimate_exceeded * 4 < spec.design_space_size()


#: (configuration, explore() keywords, binding attempts, solver calls)
#: of the ABL table.
ABLATIONS = [
    ("paper", {}, 36, 252),
    ("no-estimation", dict(use_estimation=False), 130, 732),
    ("no-comm-pruning", dict(prune_comm=False), 104, 731),
    ("no-possible-filter", dict(use_possible_filter=False), 36, 252),
]

#: The three elementary applications of Section 5's walk-through.
SELECTIONS = [
    {"I_App": "gamma_I"},
    {"I_App": "gamma_G", "I_G": "gamma_G1"},
    {"I_App": "gamma_D", "I_D": "gamma_D1", "I_U": "gamma_U1"},
]


class TestAblation:
    """ABL: the pruning and timing choices of Sections 4 and 5."""

    @pytest.mark.parametrize(
        "options, attempts, solver_calls",
        [ablation[1:] for ablation in ABLATIONS],
        ids=[ablation[0] for ablation in ABLATIONS],
    )
    def test_pruning_is_safe(
        self, settop, options, attempts, solver_calls
    ):
        """Disabling a pruning never changes the front; it only costs
        binding attempts and solver calls."""
        result = explore(settop, **options)
        assert result.front() == PAPER_FRONT
        assert result.stats.estimate_exceeded == attempts
        assert result.stats.solver_invocations == solver_calls

    def test_estimate_is_safe(self, settop):
        """Whatever the 69% estimate accepts, the exact schedule accepts."""
        solver = BindingSolver(
            settop, Allocation(settop, {"muP1", "muP2", "C0"})
        )
        for selection in SELECTIONS:
            flat = flatten(settop.problem, selection)
            for binding in solver.iter_solutions(flat, limit=20):
                assert meets_utilization_bound(settop, flat, binding.as_dict())
                assert schedule_meets_periods(settop, flat, binding.as_dict())

    def test_estimate_is_conservative(self, settop):
        """The game on muP2 fails the 69% bound (95 + 90 > 0.69 * 240)
        but fits an exact one-period schedule (185 <= 240)."""
        flat = flatten(
            settop.problem, {"I_App": "gamma_G", "I_G": "gamma_G1"}
        )
        binding = {"P_C_G": "muP2", "P_G1": "muP2", "P_D": "muP2"}
        assert not meets_utilization_bound(settop, flat, binding)
        assert schedule_meets_periods(settop, flat, binding)

    def test_exact_schedule_exploration(self, settop):
        """Exact scheduling shifts the cheap end of the curve left."""
        result = explore(settop, timing_mode="schedule")
        assert result.front() == [
            (100.0, 3.0), (170.0, 4.0), (230.0, 5.0),
            (360.0, 7.0), (430.0, 8.0),
        ]

    def test_exact_acceptance_count(self, settop):
        """On the muP2-only box the estimate accepts browser and TV,
        the exact schedule also the game."""
        solver = BindingSolver(
            settop, Allocation(settop, {"muP2"}), check_utilization=False
        )
        estimate_ok = exact_ok = 0
        for selection in SELECTIONS:
            flat = flatten(settop.problem, selection)
            for binding in solver.iter_solutions(flat):
                mapping = binding.as_dict()
                estimate_ok += meets_utilization_bound(settop, flat, mapping)
                exact_ok += schedule_meets_periods(settop, flat, mapping)
        assert (estimate_ok, exact_ok) == (2, 3)


class TestBaselines:
    """BASE: EXPLORE against exhaustive search and NSGA-II."""

    TV_FRONT = [(100.0, 1.0), (135.0, 2.0), (160.0, 3.0), (200.0, 4.0)]

    @pytest.fixture(scope="class")
    def tv_nsga(self, tv_spec):
        return nsga2_explore(
            tv_spec, population_size=40, generations=30, seed=1
        )

    @pytest.fixture(scope="class")
    def settop_nsga(self, settop):
        return nsga2_explore(
            settop, population_size=50, generations=30, seed=5
        )

    def test_exhaustive_tv(self, tv_spec):
        assert [impl.point for impl in exhaustive_front(tv_spec)] == (
            self.TV_FRONT
        )

    def test_explore_equals_exhaustive(self, tv_spec):
        assert explore(tv_spec).front() == self.TV_FRONT

    def test_nsga2_tv(self, tv_nsga):
        assert sorted(tv_nsga.points()) == self.TV_FRONT

    def test_nsga2_settop_quality(self, settop_nsga):
        """Every NSGA-II point is on or dominated by the exact front;
        it finds four of the six exact points."""
        approx = settop_nsga.points()
        for point in approx:
            assert any(p == point or dominates(p, point) for p in PAPER_FRONT)
        assert sum(1 for p in PAPER_FRONT if p in approx) == 4

    def test_front_quality_metrics(self, settop_nsga):
        """Hypervolume and C-metric coverage of the two fronts."""
        approx = settop_nsga.points()
        reference = (max(c for c, _ in PAPER_FRONT), 0.0)
        assert hypervolume(PAPER_FRONT, reference) == 1450.0
        assert hypervolume(approx, reference) == 1410.0
        assert coverage(PAPER_FRONT, approx) == 1.0
        # muP1 is the bang-per-buck box
        assert front_summary(PAPER_FRONT)["knee"] == (120.0, 3.0)

    def test_effort_comparison(self, tv_spec, tv_nsga):
        """Implementations evaluated: EXPLORE 11, NSGA-II 120,
        exhaustive 2^7."""
        attempts = explore(tv_spec).stats.estimate_exceeded
        assert (attempts, tv_nsga.evaluations) == (11, 120)
        assert tv_spec.design_space_size() == 128
