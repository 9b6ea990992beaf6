"""Differential tests of the structured progress-event seam.

The progress callback (:mod:`repro.core.progress`) is the observation
seam of EXPLORE: the CLI and the exploration service both consume it.
Its contract is that events carry enumeration-order data only — no
wall-clock — so a plain run and any budgeted or checkpointed run of
the same exploration emit *identical* event sequences.  These tests extend the
PR-1 differential harness to that event stream.
"""

import pytest

from .randspec import random_spec
from repro.casestudies import build_settop_spec
from repro.core import explore
from repro.core.progress import PROGRESS_EVENT_KINDS, ProgressEmitter
from repro.errors import ExplorationError

from .routes import routes

#: Subset of the differential corpus (events are verbose; a dozen
#: seeds already cover feasible/infeasible/truncation variety).
SEEDS = list(range(12))


def collect_events(spec, **kwargs):
    events = []
    result = explore(spec, progress=events.append, **kwargs)
    return events, result


def test_event_lifecycle_shape():
    """start first, end last, kinds from the documented vocabulary."""
    events, result = collect_events(build_settop_spec(), progress_every=16)
    assert events[0]["kind"] == "explore_start"
    assert events[-1]["kind"] == "explore_end"
    assert {e["kind"] for e in events} <= set(PROGRESS_EVENT_KINDS)
    start, end = events[0], events[-1]
    assert start["design_space_size"] == 2 ** 17
    assert start["f_max"] == 8.0
    assert end["completed"] is True
    assert end["reason"] is None
    assert end["points"] == len(result.points)
    assert end["candidates"] == result.stats.candidates_enumerated
    assert end["evaluations"] == result.stats.estimate_exceeded


def test_no_wallclock_fields():
    """The determinism contract: no event carries time or rates."""
    events, _ = collect_events(build_settop_spec(), progress_every=8)
    forbidden = {"t", "time", "elapsed", "seconds", "eta", "rate"}
    for event in events:
        assert not (set(event) & forbidden), event


def test_incumbent_trajectory_matches_front():
    """Incumbent events replay exactly the recorded Pareto points."""
    events, result = collect_events(build_settop_spec())
    incumbents = [e for e in events if e["kind"] == "incumbent"]
    assert [
        (e["cost"], e["flexibility"], e["units"]) for e in incumbents
    ] == [(p.cost, p.flexibility, sorted(p.units)) for p in result.points]
    flexibilities = [e["flexibility"] for e in incumbents]
    assert flexibilities == sorted(flexibilities)


def test_progress_cadence():
    """One progress event per ``progress_every`` enumerated candidates."""
    events, result = collect_events(build_settop_spec(), progress_every=100)
    progress = [e for e in events if e["kind"] == "progress"]
    assert len(progress) == result.stats.candidates_enumerated // 100
    assert [e["candidates"] for e in progress] == [
        100 * (i + 1) for i in range(len(progress))
    ]


def test_no_cadence_means_lifecycle_only():
    """Without progress_every only start/incumbent/end events appear."""
    events, _ = collect_events(build_settop_spec())
    assert not any(e["kind"] == "progress" for e in events)


@pytest.mark.parametrize("every", [1, 5, 32])
def test_differential_event_sequences(every, tmp_path):
    """Plain, budgeted and checkpointed runs emit byte-identical event
    streams."""
    for seed in SEEDS:
        spec = random_spec(seed)
        reference, _ = collect_events(spec, progress_every=3)
        for name, route in routes(tmp_path, every):
            observed, _ = collect_events(spec, progress_every=3, **route)
            assert observed == reference, (
                f"seed {seed} diverged on {name} at every={every}"
            )


def test_differential_event_sequences_options(tmp_path):
    """Option combinations keep the streams identical too."""
    for options in (
        dict(keep_ties=True),
        dict(timing_mode="none"),
        dict(weighted=True),
    ):
        spec = random_spec(5)
        reference, _ = collect_events(spec, progress_every=2, **options)
        for name, route in routes(tmp_path, 3):
            observed, _ = collect_events(
                spec, progress_every=2, **route, **options
            )
            assert observed == reference, f"{name} diverged with {options}"


def test_tracer_does_not_perturb_events():
    """Attaching a tracer (PR-4) leaves the event stream untouched —
    tracing is a parallel observation channel, not a participant."""
    from repro.trace import Tracer

    for seed in SEEDS[:4]:
        spec = random_spec(seed)
        reference, _ = collect_events(spec, progress_every=3)
        observed, _ = collect_events(
            spec, progress_every=3, tracer=Tracer(level="audit")
        )
        assert observed == reference, f"seed {seed} perturbed by tracer"


def test_truncated_run_events():
    """An anytime-truncated run ends with completed=False + reason."""
    events, result = collect_events(
        build_settop_spec(), max_evaluations=5
    )
    assert not result.completed
    end = events[-1]
    assert end["kind"] == "explore_end"
    assert end["completed"] is False
    assert end["reason"] == "max_evaluations"


def test_validation():
    with pytest.raises(ExplorationError):
        explore(build_settop_spec(), progress="not-callable")
    with pytest.raises(ExplorationError):
        explore(
            build_settop_spec(), progress=lambda e: None, progress_every=0
        )
    # progress_every without a callback is a documented no-op.
    result = explore(build_settop_spec(), progress_every=10)
    assert result.completed


def test_emitter_inactive_is_noop():
    emitter = ProgressEmitter(None, 5)
    assert not emitter.active
    emitter.start(10, 1.0)
    emitter.candidate(5, 1, 1, 0.0)
    emitter.incumbent(1.0, 1.0, ["u"], 1, 1)
    emitter.end(True, None, 10, 5, 1)
