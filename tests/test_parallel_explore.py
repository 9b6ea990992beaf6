"""Differential tests: budgeted and checkpointed EXPLORE is plain EXPLORE.

Deadlines, evaluation budgets and checkpoint journals run on the same
driver as a plain ``explore()``.  A budget too large to bind and a
journal at any cadence must return the same Pareto front, the same
allocations, the same achieved flexibilities, the same statistics
(minus wall-clock and ``checkpoints_written``) and the same
tie-breaking as the plain run — on every input.  These tests prove it
differentially over a corpus of seeded random specifications plus the
paper's case studies, across checkpoint cadences and option
combinations.
"""

import pytest

from .randspec import random_spec
from .routes import comparable_stats, routes
from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.core import explore
from repro.errors import CheckpointError

#: The differential corpus: deterministic random specifications.
SEEDS = list(range(30))

#: Checkpoint cadences every differential comparison runs at: a
#: snapshot per candidate, one that splits cost bands, and a sparse one.
CADENCES = [1, 5, 32]


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


def route_fingerprint(result):
    """:func:`fingerprint` without ``checkpoints_written``."""
    points, _, bound = fingerprint(result)
    return points, comparable_stats(result), bound


def assert_routes_match(spec, tmp_path, every, reference, **options):
    """Every route reproduces the plain run's ``reference`` result."""
    expected = route_fingerprint(reference)
    for name, route in routes(tmp_path, every):
        observed = route_fingerprint(explore(spec, **route, **options))
        assert observed == expected, f"{name} diverged at every={every}"


@pytest.fixture(scope="module")
def plain_runs():
    """Plain reference runs, one per corpus seed (computed once)."""
    return {seed: explore(random_spec(seed)) for seed in SEEDS}


@pytest.mark.parametrize("every", CADENCES)
def test_differential_random_corpus(plain_runs, every, tmp_path):
    """Fronts, flexibility values and stats equal on ~30 random specs."""
    for seed in SEEDS:
        assert_routes_match(
            random_spec(seed), tmp_path, every, plain_runs[seed]
        )


@pytest.mark.parametrize("every", [1, 2, 7, 64])
def test_differential_batch_sizes(plain_runs, every, tmp_path):
    """The snapshot cadence never leaks into the result."""
    for seed in SEEDS[::5]:
        assert_routes_match(
            random_spec(seed), tmp_path, every, plain_runs[seed]
        )


@pytest.mark.parametrize("every", CADENCES)
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
def test_differential_settop_options(every, options, tmp_path):
    """Every explore() option combination survives budgets and
    checkpoints."""
    spec = build_settop_spec()
    reference = explore(spec, **options)
    assert_routes_match(spec, tmp_path, every, reference, **options)


@pytest.mark.parametrize("every", CADENCES)
def test_differential_tv_decoder(every, tmp_path):
    spec = build_tv_decoder_spec()
    assert_routes_match(spec, tmp_path, every, explore(spec))


def test_settop_front_is_the_paper_front(tmp_path):
    """The plain run and every route reproduce the published six-point
    front."""
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
    for every in CADENCES:
        for _, route in routes(tmp_path, every):
            assert explore(spec, **route).front() == expected


def test_explore_batched_serial_mode_runs_inline(tmp_path):
    """A checkpoint at the default cadence equals the plain run."""
    spec = build_tv_decoder_spec()
    observed = explore(spec, checkpoint=str(tmp_path / "run.ckpt"))
    assert route_fingerprint(observed) == route_fingerprint(explore(spec))


def test_unknown_parallel_mode_raises():
    """The worker-pool and batch knobs are gone: passing one fails
    loudly."""
    spec = build_tv_decoder_spec()
    for knob in ("parallel", "workers", "batch_timeout", "retry",
                 "batch_size"):
        with pytest.raises(TypeError, match=knob):
            explore(spec, **{knob: None})


def test_bad_batch_size_raises(tmp_path):
    """``batch_size`` is no longer an option, on a fresh run or as a
    resume override."""
    from repro.resilience import resume_explore

    spec = build_tv_decoder_spec()
    with pytest.raises(TypeError, match="batch_size"):
        explore(spec, batch_size=1)
    path = str(tmp_path / "run.ckpt")
    explore(spec, checkpoint=path)
    with pytest.raises(CheckpointError, match="batch_size"):
        resume_explore(path, batch_size=1)
