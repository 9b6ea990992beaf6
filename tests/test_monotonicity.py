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
* **congruence** — the memo key (:func:`verdict_key`: usable option
  owners plus option-top links) holds everything a verdict reads:
  every usable mask with one key gets the identical verdict, in all
  six utilisation/none/schedule × csp/sat modes, and outside schedule
  mode feasibility is monotone under key inclusion (the oracle corpus
  plus bridged platforms, whose links run over several buses);
* **solver trie** — below the memo, a search is answered from the
  path of connectivity answers an earlier search with the same domains
  took: in three shuffled orders over every usable mask of the
  congruence corpus, each answer equals a fresh search;
* **front points** — the compiled engine's result document, coverage
  bindings included, equals the reference engine's, and every coverage
  binding satisfies binding rules 1–4 and the 69% utilisation bound.
"""

import functools
import random

import pytest

from .randspec import random_bridged_spec, random_spec
from repro.activation import flatten
from repro.binding import Allocation, Binding, is_feasible_binding
from repro.casestudies import (
    build_automotive_spec,
    build_settop_spec,
    build_tv_decoder_spec,
)
from repro.compiled import CompiledEvaluator, compiled_spec_for
from repro.compiled.evaluator import verdict_key
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

#: The congruence corpus adds bridged (bus-to-bus) platforms.
CONGRUENCE = {
    **ORACLE,
    **{
        f"bridged{seed}": functools.partial(random_bridged_spec, seed)
        for seed in range(40)
    },
}

#: The front-point corpus adds the set-top box (17 units).
FRONTS = {"settop": build_settop_spec, **ORACLE}


def support(cs, info):
    """Every unit bit an ECS's binding verdict can depend on: the
    communication units and each option's owner, with their
    ancestors."""
    mask = 0
    for i in range(cs.unit_count):
        if cs.comm_units_mask >> i & 1:
            mask |= cs.with_anc_masks[i]
    for recs in info.options:
        for rec in recs:
            mask |= rec.owner_mask
    return mask


def feasible_projections(cs, evaluator, sel_mask):
    """``{projection: feasible}`` over every usable projection of one
    ECS, each solved directly."""
    info = cs.ecs_info(sel_mask)
    relevant = support(cs, info)
    projections = {
        cs.usable_mask(mask) & relevant
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


def observable(verdict):
    """Everything of a verdict but its wall-clock: the binding in its
    key order, the solver deltas and the schedule-check counts."""
    binding = verdict.binding
    return (
        None if binding is None else list(binding.items()),
        verdict.deltas,
        verdict.timing_checks,
        verdict.timing_rejections,
    )


@pytest.mark.parametrize("name", CONGRUENCE)
def test_the_memo_key_is_a_congruence(name):
    cs = compiled_spec_for(CONGRUENCE[name]())
    assert cs.unit_count <= 12
    all_clusters = sum(cs.cluster_bit.values())
    usables = {cs.usable_mask(mask) for mask in range(1 << cs.unit_count)}
    for sel_mask in cs.iter_selection_masks(all_clusters, None):
        info = cs.ecs_info(sel_mask)
        relevant = support(cs, info)
        # key -> one usable mask per fine (warm-store) projection
        groups = {}
        for usable in usables:
            key = verdict_key(cs, info, usable, cs.comm_tops_of(usable), {})
            assert key[0] == sel_mask
            groups.setdefault(key[1], {}).setdefault(
                usable & relevant, usable
            )
        for timing_mode in ("utilization", "none", "schedule"):
            for backend in ("csp", "sat"):
                evaluator = CompiledEvaluator(
                    cs, backend=backend, timing_mode=timing_mode
                )
                feasible = {}
                for packed, members in groups.items():
                    seen = [
                        observable(evaluator._compute_verdict(info, u))
                        for u in members.values()
                    ]
                    assert seen.count(seen[0]) == len(seen), (
                        f"{name} {timing_mode}/{backend}: ECS {sel_mask:#x} "
                        f"key {packed:#x} covers differing verdicts"
                    )
                    feasible[packed] = seen[0][0] is not None
                if timing_mode == "schedule":
                    continue
                for q, ok in feasible.items():
                    if ok:
                        continue
                    inside = [
                        p for p, f in feasible.items() if f and not p & ~q
                    ]
                    assert not inside, (
                        f"{name} {timing_mode}/{backend}: ECS {sel_mask:#x} "
                        f"feasible under key {inside[0]:#x} but not under "
                        f"its superset {q:#x}"
                    )


@pytest.mark.parametrize("name", CONGRUENCE)
def test_the_solver_trie_answers_as_a_fresh_search(name):
    """Every ECS under every usable mask, in three shuffled orders
    through one evaluator's solver trie: each answer equals a fresh
    search, and only the first visit of a path searches."""
    cs = compiled_spec_for(CONGRUENCE[name]())
    all_clusters = sum(cs.cluster_bit.values())
    usables = sorted(
        {cs.usable_mask(mask) for mask in range(1 << cs.unit_count)}
    )
    visits = [
        (cs.ecs_info(sel_mask), usable)
        for sel_mask in cs.iter_selection_masks(all_clusters, None)
        for usable in usables
    ]
    roots = {(info.mask, usable & info.owners) for info, usable in visits}
    for timing_mode in ("utilization", "none", "schedule"):
        evaluator = CompiledEvaluator(cs, timing_mode=timing_mode)
        for order in range(3):
            random.Random(order).shuffle(visits)
            searches = 0
            for info, usable in visits:
                verdict, searched = evaluator._solve(info, usable)
                assert observable(verdict) == observable(
                    evaluator._compute_verdict(info, usable)
                ), (name, timing_mode, info.mask, usable)
                searches += searched
            if order:
                assert not searches, (name, timing_mode, order)
                continue
            # Each root needs a search; the trie answers the other
            # visits of a root whose questions get answers seen before.
            assert len(roots) <= searches, (name, timing_mode)
            assert searches < len(visits) or len(roots) == len(visits)


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
