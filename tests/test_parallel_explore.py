"""Differential tests: batched EXPLORE is exactly the serial EXPLORE.

The batched replay (``explore_batched``, which runs every budgeted,
checkpointed and service-sliced exploration) must return the
same Pareto front, the same allocations, the same achieved
flexibilities, the same statistics (minus wall-clock) and the same
tie-breaking as the serial loop — on every input.  These tests prove
it differentially over a corpus of seeded random specifications plus
the paper's case studies, across batch sizes and option combinations.
"""

import pytest

from .randspec import random_spec
from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.core import explore
from repro.errors import ExplorationError
from repro.parallel import (
    BATCH_SIZE_DEFAULT,
    EvaluationCache,
    explore_batched,
)

#: The differential corpus: deterministic random specifications.
SEEDS = list(range(30))

#: Batch sizes every differential comparison runs at: one candidate
#: per batch, a size that splits cost bands, and the default.
BATCH_SIZES = [1, 5, BATCH_SIZE_DEFAULT]


def fingerprint(result):
    """Everything observable about an exploration, minus wall-clock."""
    stats = {
        k: v
        for k, v in result.stats.as_dict().items()
        if k != "elapsed_seconds"
    }
    points = [
        (sorted(p.units), p.cost, p.flexibility, sorted(p.clusters))
        for p in result.points
    ]
    return points, stats, result.max_flexibility_bound


@pytest.fixture(scope="module")
def serial_runs():
    """Serial reference runs, one per corpus seed (computed once)."""
    return {seed: explore(random_spec(seed)) for seed in SEEDS}


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_differential_random_corpus(serial_runs, batch_size):
    """Fronts, flexibility values and stats equal on ~30 random specs."""
    for seed in SEEDS:
        spec = random_spec(seed)
        reference = fingerprint(serial_runs[seed])
        observed = fingerprint(explore_batched(spec, batch_size=batch_size))
        assert observed == reference, (
            f"seed {seed} diverged at batch_size={batch_size}"
        )


@pytest.mark.parametrize("batch_size", [1, 2, 7, 64])
def test_differential_batch_sizes(serial_runs, batch_size):
    """Batch geometry never leaks into the result."""
    for seed in SEEDS[::5]:
        spec = random_spec(seed)
        observed = fingerprint(explore_batched(spec, batch_size=batch_size))
        assert observed == fingerprint(serial_runs[seed]), (
            f"seed {seed} diverged at batch_size={batch_size}"
        )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize(
    "options",
    [
        dict(keep_ties=True),
        dict(timing_mode="none"),
        dict(timing_mode="schedule"),
        dict(weighted=True),
        dict(use_estimation=False, max_candidates=300),
        dict(use_possible_filter=False, max_candidates=400),
        dict(prune_comm=False, max_candidates=400),
        dict(max_cost=300.0),
        dict(require_units=["muP2"], forbid_units=["A1"]),
        dict(backend="sat", max_candidates=150),
    ],
    ids=lambda d: "-".join(f"{k}" for k in d),
)
def test_differential_settop_options(batch_size, options):
    """Every explore() option combination survives batching."""
    spec = build_settop_spec()
    reference = fingerprint(explore(spec, **options))
    observed = fingerprint(
        explore_batched(spec, batch_size=batch_size, **options)
    )
    assert observed == reference


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_differential_tv_decoder(batch_size):
    spec = build_tv_decoder_spec()
    assert fingerprint(
        explore_batched(spec, batch_size=batch_size)
    ) == fingerprint(explore(spec))


def test_settop_front_is_the_paper_front():
    """The serial loop and every batch size reproduce the published
    six-point front."""
    expected = [
        (100.0, 2.0),
        (120.0, 3.0),
        (230.0, 4.0),
        (290.0, 5.0),
        (360.0, 7.0),
        (430.0, 8.0),
    ]
    spec = build_settop_spec()
    assert explore(spec).front() == expected
    for batch_size in BATCH_SIZES:
        assert explore_batched(spec, batch_size=batch_size).front() == (
            expected
        )


def test_explore_batched_serial_mode_runs_inline():
    """explore_batched at its defaults equals the serial loop."""
    spec = build_tv_decoder_spec()
    assert fingerprint(explore_batched(spec)) == fingerprint(explore(spec))


def test_memo_cache_reuse_across_runs():
    """A shared cache accelerates repeat runs without changing results."""
    spec = build_settop_spec()
    cache = EvaluationCache()
    first = explore_batched(spec, cache=cache)
    assert cache.misses > 0
    hits_before, misses_before = cache.hits, cache.misses
    second = explore_batched(spec, cache=cache)
    assert fingerprint(first) == fingerprint(second)
    # the second run answered every candidate from the memo: hits grew,
    # no new signature was ever computed
    assert cache.hits > hits_before
    assert cache.misses == misses_before


def test_memo_cache_bounded():
    spec = build_tv_decoder_spec()
    cache = EvaluationCache(max_entries=5)
    explore_batched(spec, cache=cache)
    assert len(cache) <= 5


def test_default_batch_size_is_sane():
    assert isinstance(BATCH_SIZE_DEFAULT, int) and BATCH_SIZE_DEFAULT >= 1


def test_unknown_parallel_mode_raises():
    """The worker-pool knobs are gone: passing one fails loudly."""
    spec = build_tv_decoder_spec()
    for knob in ("parallel", "workers", "batch_timeout", "retry"):
        with pytest.raises(TypeError, match=knob):
            explore(spec, **{knob: None})
        with pytest.raises(TypeError, match=knob):
            explore_batched(spec, **{knob: None})


def test_bad_batch_size_raises():
    spec = build_tv_decoder_spec()
    with pytest.raises(ExplorationError, match="batch_size"):
        explore(spec, batch_size=0)
    with pytest.raises(ExplorationError, match="batch_size"):
        explore_batched(spec, batch_size=0)
