"""Property-based tests for the compiled kernel and its satellites.

* The cross-candidate memoization of :class:`CompiledEvaluator` is
  order-independent: evaluating candidates against a warm cache, in any
  shuffled order, yields outcomes identical to a cold evaluator — and
  both match the reference engine (the projection-cache keying
  soundness argument of ``docs/performance.md``, exercised here).
* :func:`repro.core.pareto.final_front` equals the quadratic all-pairs
  ``dominates`` filter on every sequence shaped like EXPLORE's
  incumbent list.
* The hoisted binding-solver preparation (neighbor map + task set per
  flat problem) changes no solver statistics.
* The possible-resource-allocation expression is compiled once per
  frozen specification.
* A dropped specification frees its compiled tables and verdict memo,
  and once its intern entry is popped, refcounting alone frees them.
"""

import functools
import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .randspec import random_spec
from repro.activation import flatten
from repro.binding import Allocation, BindingSolver, SolverStats
import repro.compiled
from repro.casestudies import (
    build_settop_spec,
    build_tv_decoder_spec,
    synthetic_spec,
)
from repro.compiled import batch, compiled_evaluator, compiled_spec_for
from repro.core import explore, final_front, make_evaluator
from repro.core.candidates import (
    AllocationEnumerator,
    possible_allocation_expr,
)
from repro.core.ecs import iter_selections
from repro.spec.reduce import activatable_clusters
from repro.core.pareto import dominates
from repro.core.result import Implementation


def outcome_of(evaluator, units):
    """Every observable of one candidate evaluation, order-sensitively."""
    counter = [0]
    implementation = evaluator.evaluate(units, solver_counter=counter)
    record = {
        "possible": evaluator.possible(units),
        "comm_pruned": evaluator.comm_pruned(units),
        "estimate": evaluator.estimate(units),
        "solver_calls": counter[0],
        "feasible": implementation is not None,
    }
    if implementation is not None:
        record["cost"] = implementation.cost
        record["flexibility"] = implementation.flexibility
        record["clusters"] = sorted(implementation.clusters)
        record["coverage"] = [
            (list(r.selection.items()), list(r.binding.items()))
            for r in implementation.coverage
        ]
    return record


def candidate_sets(spec, limit=40):
    """The first ``limit`` candidates of the canonical enumeration."""
    sets = []
    for _, units in AllocationEnumerator(
        spec, list(spec.units.names()), include_empty=True
    ):
        sets.append(units)
        if len(sets) >= limit:
            break
    return sets


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 11), order_seed=st.integers(0, 10_000))
def test_warm_cache_evaluation_is_order_independent(seed, order_seed):
    """Satellite property: shuffled-order evaluation against a warm
    cache is byte-identical to cold evaluation, and to the reference."""
    spec = random_spec(seed)
    candidates = candidate_sets(spec)
    cold = make_evaluator(spec, "compiled")
    baseline = [outcome_of(cold, units) for units in candidates]
    reference = make_evaluator(spec, "reference")
    assert baseline == [outcome_of(reference, units) for units in candidates]

    order = list(range(len(candidates)))
    random.Random(order_seed).shuffle(order)
    warm = compiled_evaluator(spec)  # interned: caches survive reuse
    shuffled = {pos: outcome_of(warm, candidates[pos]) for pos in order}
    assert [shuffled[pos] for pos in range(len(candidates))] == baseline
    # and once more with everything already cached
    assert [outcome_of(warm, units) for units in candidates] == baseline


def _impl(cost, flexibility, tag=""):
    return Implementation(
        frozenset({f"u{cost}{tag}"}), cost, flexibility, frozenset(), []
    )


@st.composite
def incumbent_lists(draw):
    """Sequences shaped like EXPLORE's discovery-ordered points:
    cost and flexibility non-decreasing; equal flexibility only within
    one cost group; same-cost groups may end with a strict improvement
    (the corner case the final pass exists for)."""
    points = []
    cost, flexibility = 0.0, 0.0
    for index in range(draw(st.integers(0, 12))):
        advance = draw(st.booleans()) or not points
        if advance:
            cost += draw(st.floats(1.0, 50.0, allow_nan=False))
            flexibility += draw(st.floats(0.5, 4.0, allow_nan=False))
        else:
            # keep_ties tie (same cost+flex) or a same-cost improvement
            if draw(st.booleans()):
                flexibility += draw(st.floats(0.5, 2.0, allow_nan=False))
        points.append(_impl(cost, flexibility, f"-{index}"))
    return points


@settings(max_examples=200, deadline=None)
@given(points=incumbent_lists())
def test_final_front_equals_quadratic_filter(points):
    expected = [
        p
        for p in points
        if not any(dominates(q.point, p.point) for q in points)
    ]
    assert final_front(points) == expected


def test_final_front_same_cost_tie_corner():
    """A later same-cost point of strictly greater flexibility must
    evict the earlier tie group — the corner the linear scan targets."""
    tie_a = _impl(230.0, 4.0, "a")
    tie_b = _impl(230.0, 4.0, "b")
    better = _impl(230.0, 5.0, "c")
    assert final_front([tie_a, tie_b, better]) == [better]
    assert final_front([tie_a, tie_b]) == [tie_a, tie_b]
    assert final_front([]) == []
    earlier = _impl(100.0, 2.0)
    assert final_front([earlier, tie_a, better]) == [earlier, better]


def _stats_dict(stats: SolverStats):
    return {name: getattr(stats, name) for name in SolverStats.__slots__}


def test_binding_solver_preparation_is_hoisted_and_stable():
    """Satellite 1: per-flat preparation happens once per flat problem;
    solutions and every solver statistic are unchanged."""
    spec = build_settop_spec()
    allocation = Allocation(
        spec, frozenset({"muP2", "C1", "D3", "G1"})
    )
    index = spec.p_index
    allowed = frozenset(activatable_clusters(spec, allocation.units))
    selections = [
        selection
        for _, selection in zip(
            range(6), iter_selections(spec.problem, index, allowed)
        )
    ]
    flats = [
        flatten(spec.problem, selection, index) for selection in selections
    ]

    hoisted = BindingSolver(spec, allocation)
    fresh = BindingSolver(spec, allocation)
    for flat in flats:
        expected = list(fresh.iter_solutions(flat))
        before = len(hoisted._prepared)
        first = list(hoisted.iter_solutions(flat))
        second = list(hoisted.iter_solutions(flat))
        assert first == expected
        assert second == expected
        # at most one prepared entry per flat (none for un-bindable
        # flats — their domain check returns before preparation) and
        # nothing new on the repeat pass.
        assert len(hoisted._prepared) <= before + 1
    # The hoisted solver ran every flat twice, the fresh one once; every
    # counter — invocations, assignments, backtracks, solutions,
    # util_rejections — must scale exactly, i.e. hoisting changed none.
    assert _stats_dict(hoisted.stats) == {
        name: 2 * value for name, value in _stats_dict(fresh.stats).items()
    }


def test_possible_allocation_expr_cached_on_frozen_spec():
    spec = build_settop_spec()
    first = possible_allocation_expr(spec)
    assert spec._possible_expr is first
    assert possible_allocation_expr(spec) is first


def test_possible_allocation_expr_cache_is_per_spec():
    a, b = build_settop_spec(), build_settop_spec()
    assert possible_allocation_expr(a) is not possible_allocation_expr(b)


@pytest.mark.parametrize("build", [build_tv_decoder_spec, build_settop_spec])
def test_dropped_spec_frees_its_compiled_tables(build):
    """The intern table is keyed weakly by the specification; nothing
    it keeps may hold the key, or no explored spec is ever freed."""
    spec = build()
    explore(spec)
    refs = [
        weakref.ref(spec),
        weakref.ref(compiled_spec_for(spec)),
        weakref.ref(compiled_evaluator(spec)),
    ]
    del spec
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


@pytest.mark.parametrize(
    "build",
    [
        build_settop_spec,
        functools.partial(
            synthetic_spec,
            seed=7,
            n_apps=2,
            interfaces_per_app=2,
            alternatives=4,
            n_procs=2,
            n_accels=4,
        ),
    ],
    ids=["settop", "synthetic-15u"],
)
def test_popped_spec_frees_its_compiled_tables_by_refcount(build):
    """Nothing a CompiledSpec owns points back at it, so once its
    intern entry is popped and the spec dropped, refcounting frees the
    tables, evaluators and block kernel without a collection, while
    the result's bindings stay readable."""
    spec = build()
    gc.collect()
    gc.disable()
    try:
        result = explore(spec)
        cspec = compiled_spec_for(spec)
        refs = [weakref.ref(cspec), weakref.ref(compiled_evaluator(spec))]
        if batch.active_numpy() is not None:
            refs.append(weakref.ref(batch.kernel_for(cspec)))
        del cspec
        repro.compiled._COMPILED.pop(spec)
        del spec
        assert [ref() for ref in refs] == [None] * len(refs)
        bindings = [
            record.binding
            for point in result.points
            for record in point.coverage
        ]
    finally:
        gc.enable()
    assert bindings and all(bindings)
