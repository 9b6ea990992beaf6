"""Monotone binding verdicts, checked directly and through EXPLORE.

The compiled evaluator answers a verdict-memo miss without the solver
when a subset of its usable projection is already known feasible for
the same elementary cluster-activation (ECS), and binds such a
coverage record only when it is read (``docs/performance.md``).  Both
rest on one rule, checked here against brute force rather than assumed:

* **oracle** — for every ECS and every pair of usable projections
  ``P ⊆ Q``, a feasible ``P`` has a feasible ``Q`` (direct
  ``_compute_verdict`` calls, all four utilisation/none × csp/sat
  modes); schedule mode, whose bounded search is not monotone, never
  answers by implication;
* **front points** — the compiled engine's result document, coverage
  bindings included, equals the reference engine's, and every coverage
  binding satisfies binding rules 1–4 and the 69% utilisation bound.
"""

import functools

import pytest

from .randspec import random_spec
from repro.activation import flatten
from repro.binding import Allocation, Binding, is_feasible_binding
from repro.casestudies import (
    build_automotive_spec,
    build_settop_spec,
    build_tv_decoder_spec,
)
from repro.compiled import CompiledEvaluator, compiled_spec_for
from repro.core import explore
from repro.io import result_to_dict
from repro.timing import PAPER_UTILIZATION_BOUND, utilization_by_resource

#: The randspec corpus (<= 10 units each, so every usable projection
#: of every ECS can be solved).
SEEDS = list(range(30))

MODES = [
    (timing_mode, backend)
    for timing_mode in ("utilization", "none")
    for backend in ("csp", "sat")
]

#: The oracle corpus: the randspecs and two case studies.
ORACLE = {
    "automotive": build_automotive_spec,
    "tv_decoder": build_tv_decoder_spec,
    **{
        f"rand{seed}": functools.partial(random_spec, seed)
        for seed in SEEDS
    },
}

#: The front-point corpus adds the set-top box (17 units).
FRONTS = {"settop": build_settop_spec, **ORACLE}


def feasible_projections(cs, evaluator, sel_mask):
    """``{projection: feasible}`` over every usable projection of one
    ECS, each solved directly."""
    info = cs.ecs_info(sel_mask)
    projections = {
        cs.usable_mask(mask) & info.support
        for mask in range(1 << cs.unit_count)
    }
    return {
        p: evaluator._compute_verdict(info, p).binding is not None
        for p in projections
    }


@pytest.mark.parametrize("name", ORACLE)
def test_feasibility_is_monotone_in_the_usable_projection(name):
    spec = ORACLE[name]()
    cs = compiled_spec_for(spec)
    assert cs.unit_count <= 12
    all_clusters = sum(cs.cluster_bit.values())
    ecs_masks = list(cs.iter_selection_masks(all_clusters, None))
    assert ecs_masks
    for timing_mode, backend in MODES:
        evaluator = CompiledEvaluator(
            cs, backend=backend, timing_mode=timing_mode
        )
        for sel_mask in ecs_masks:
            verdicts = feasible_projections(cs, evaluator, sel_mask)
            feasible = [p for p, ok in verdicts.items() if ok]
            for q, ok in verdicts.items():
                if not ok:
                    inside = [p for p in feasible if not p & ~q]
                    assert not inside, (
                        f"{name} {timing_mode}/{backend}: ECS {sel_mask:#x} "
                        f"feasible under {inside[0]:#x} but not under "
                        f"its superset {q:#x}"
                    )


def test_implication_answers_misses_outside_schedule_mode():
    implied = {"utilization": 0, "schedule": 0}
    for build in ORACLE.values():
        for timing_mode in implied:
            result = explore(build(), timing_mode=timing_mode)
            implied[timing_mode] += result.stats.memo_implied
    assert implied["schedule"] == 0
    assert implied["utilization"] > 0


def comparable(result):
    """The result document minus wall-clock and cache diagnostics."""
    document = result_to_dict(result)
    document["stats"].pop("elapsed_seconds")
    document.pop("cache")
    return document


@pytest.mark.parametrize("name", FRONTS)
def test_front_points_are_bound_as_the_reference_binds_them(name):
    spec = FRONTS[name]()
    compiled = explore(spec, engine="compiled")
    assert comparable(compiled) == comparable(
        explore(spec, engine="reference")
    )
    for point in compiled.points:
        allocation = Allocation(spec, point.units)
        for record in point.coverage:
            flat = flatten(spec.problem, record.selection, spec.p_index)
            binding = Binding(spec, record.binding)
            assert is_feasible_binding(spec, allocation, flat, binding)
            load = utilization_by_resource(spec, flat, record.binding)
            assert all(
                u <= PAPER_UTILIZATION_BOUND + 1e-12 for u in load.values()
            ), (name, sorted(point.units), load)
