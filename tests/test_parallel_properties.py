"""Property-based tests: budgets and checkpoints never change a pruning
outcome.

A budgeted, checkpointed run journals snapshots of the incumbent as it
goes, so the property worth testing is the safety of its pruning:
*every* candidate such a run prunes on the incumbent bound is dominated
by the plain run's final Pareto front — no checkpointed run ever
discards a candidate the plain loop would have kept.

Uses hypothesis when available and falls back to a seeded sweep of the
same properties otherwise, so the suite stays meaningful on minimal
installations.
"""

import os
import tempfile

import pytest

from .randspec import random_spec
from repro.core import explore
from repro.trace import Tracer

#: The audit prune reasons the incumbent bound decides.
BOUND_PRUNES = ("estimate_below_incumbent", "tie_higher_cost")


def bound_prunes(tracer, reasons=BOUND_PRUNES):
    """The audit records of candidates pruned on the incumbent bound."""
    return [
        r
        for r in tracer.records
        if r["type"] == "prune" and r["reason"] in reasons
    ]



def checkpointed(spec, every, **options):
    """``explore()`` under a non-binding deadline with a checkpoint
    journal every ``every`` candidates."""
    with tempfile.TemporaryDirectory() as directory:
        return explore(
            spec,
            deadline_seconds=1e9,
            checkpoint=os.path.join(directory, "run.ckpt"),
            checkpoint_every=every,
            **options,
        )


try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False


def assert_pruned_are_dominated(seed: int, every: int, keep_ties: bool):
    """The core property, checked for one (seed, cadence) pair.

    For every candidate the checkpointed run prunes on the incumbent
    bound there is a point in the *plain* run's final front with cost <= the
    candidate's and flexibility >= the candidate's estimate.  Since the
    estimate upper-bounds anything the candidate could implement, the
    pruned candidate is dominated and its loss cannot change the front.
    """
    spec = random_spec(seed)
    plain = explore(spec, keep_ties=keep_ties)
    tracer = Tracer(level="audit")
    observed = checkpointed(spec, every, keep_ties=keep_ties, tracer=tracer)
    assert observed.front() == plain.front()
    front = plain.front()
    pruned = bound_prunes(tracer, ("estimate_below_incumbent",))
    for event in pruned:
        assert any(
            cost <= event["cost"] and flexibility >= event["estimate"]
            for cost, flexibility in front
        ), (
            f"seed {seed}: pruned candidate {sorted(event['units'])} "
            f"(cost {event['cost']}, estimate {event['estimate']}) is not "
            f"dominated by the plain front {front}"
        )
    return len(pruned)


def assert_cadence_invariant_outcomes(seed: int, cadences=(1, 3, 8, 64)):
    """Pruning decisions are identical across checkpoint cadences."""
    spec = random_spec(seed)

    def decisions(every):
        tracer = Tracer(level="audit")
        result = checkpointed(spec, every, tracer=tracer)
        pruned = [
            (e["cost"], frozenset(e["units"]), e["estimate"], e["incumbent"])
            for e in bound_prunes(tracer, ("estimate_below_incumbent",))
        ]
        return result.front(), pruned

    reference = decisions(cadences[0])
    for every in cadences[1:]:
        assert decisions(every) == reference, (
            f"seed {seed}: pruning outcome changed at every={every}"
        )


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=500),
        every=st.integers(min_value=1, max_value=40),
        keep_ties=st.booleans(),
    )
    def test_pruned_candidates_dominated_hypothesis(seed, every, keep_ties):
        assert_pruned_are_dominated(seed, every, keep_ties)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_batch_geometry_invariant_hypothesis(seed):
        assert_cadence_invariant_outcomes(seed)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(0, 40, 2))
    def test_pruned_candidates_dominated_seeded(seed):
        assert_pruned_are_dominated(seed, every=(seed % 7) + 1,
                                    keep_ties=bool(seed % 2))

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_batch_geometry_invariant_seeded(seed):
        assert_cadence_invariant_outcomes(seed)


def test_some_seed_actually_prunes():
    """Guard the property against vacuity: the corpus must contain
    specs where the incumbent bound really prunes candidates."""
    total = sum(
        assert_pruned_are_dominated(seed, 4, False) for seed in range(20)
    )
    assert total > 0
