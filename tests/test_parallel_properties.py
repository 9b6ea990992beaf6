"""Property-based tests: batching never changes a pruning outcome.

The batched explorer speculates ahead of the incumbent bound, so the
property worth testing is the safety of its pruning replay: *every*
candidate the batched run prunes on the incumbent bound is dominated by
the serial run's final Pareto front — no batched run ever discards a
candidate the serial loop would have kept.

Uses hypothesis when available and falls back to a seeded sweep of the
same properties otherwise, so the suite stays meaningful on minimal
installations.
"""

import pytest

from .randspec import random_spec
from repro.core import explore
from repro.parallel import EvaluationCache, explore_batched
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

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False


def assert_pruned_are_dominated(seed: int, batch_size: int, keep_ties: bool):
    """The core property, checked for one (seed, batch_size) pair.

    For every candidate the batched run prunes on the incumbent bound
    there is a point in the *serial* run's final front with cost <= the
    candidate's and flexibility >= the candidate's estimate.  Since the
    estimate upper-bounds anything the candidate could implement, the
    pruned candidate is dominated and its loss cannot change the front.
    """
    spec = random_spec(seed)
    serial = explore(spec, keep_ties=keep_ties)
    tracer = Tracer(level="audit")
    batched = explore_batched(
        spec,
        batch_size=batch_size,
        keep_ties=keep_ties,
        tracer=tracer,
    )
    assert batched.front() == serial.front()
    front = serial.front()
    pruned = bound_prunes(tracer, ("estimate_below_incumbent",))
    for event in pruned:
        assert any(
            cost <= event["cost"] and flexibility >= event["estimate"]
            for cost, flexibility in front
        ), (
            f"seed {seed}: pruned candidate {sorted(event['units'])} "
            f"(cost {event['cost']}, estimate {event['estimate']}) is not "
            f"dominated by the serial front {front}"
        )
    return len(pruned)


def assert_batching_invariant_outcomes(seed: int, sizes=(1, 3, 8, 64)):
    """Pruning decisions are identical across batch geometries."""
    spec = random_spec(seed)

    def decisions(batch_size):
        tracer = Tracer(level="audit")
        result = explore_batched(
            spec, batch_size=batch_size, tracer=tracer
        )
        pruned = [
            (e["cost"], frozenset(e["units"]), e["estimate"], e["incumbent"])
            for e in bound_prunes(tracer, ("estimate_below_incumbent",))
        ]
        return result.front(), pruned

    reference = decisions(sizes[0])
    for size in sizes[1:]:
        assert decisions(size) == reference, (
            f"seed {seed}: pruning outcome changed at batch_size={size}"
        )


def assert_cache_preserves_pruning(seed: int):
    """A warm cross-run memo cache changes no pruning decision."""
    spec = random_spec(seed)
    cache = EvaluationCache()
    cold_trace, warm_trace = Tracer(level="audit"), Tracer(level="audit")
    cold = explore_batched(
        spec, cache=cache, tracer=cold_trace
    )
    warm = explore_batched(
        spec, cache=cache, tracer=warm_trace
    )
    assert cold.front() == warm.front()
    strip = lambda t: [  # noqa: E731
        (e["reason"], e["cost"], frozenset(e["units"]))
        for e in bound_prunes(t)
    ]
    assert strip(cold_trace) == strip(warm_trace)


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=500),
        batch_size=st.integers(min_value=1, max_value=40),
        keep_ties=st.booleans(),
    )
    def test_pruned_candidates_dominated_hypothesis(
        seed, batch_size, keep_ties
    ):
        assert_pruned_are_dominated(seed, batch_size, keep_ties)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_batch_geometry_invariant_hypothesis(seed):
        assert_batching_invariant_outcomes(seed)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_cache_preserves_pruning_hypothesis(seed):
        assert_cache_preserves_pruning(seed)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(0, 40, 2))
    def test_pruned_candidates_dominated_seeded(seed):
        assert_pruned_are_dominated(seed, batch_size=(seed % 7) + 1,
                                    keep_ties=bool(seed % 2))

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_batch_geometry_invariant_seeded(seed):
        assert_batching_invariant_outcomes(seed)

    @pytest.mark.parametrize("seed", range(0, 20, 4))
    def test_cache_preserves_pruning_seeded(seed):
        assert_cache_preserves_pruning(seed)


def test_some_seed_actually_prunes():
    """Guard the property against vacuity: the corpus must contain
    specs where the incumbent bound really prunes candidates."""
    total = sum(
        assert_pruned_are_dominated(seed, 4, False) for seed in range(20)
    )
    assert total > 0
