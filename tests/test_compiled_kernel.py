"""Differential tests: the compiled engine IS the reference engine.

The compiled candidate-evaluation kernel (:mod:`repro.compiled`) is an
aggressive performance rewrite — bitmask allocations, BDD-compiled
possible-allocation tests, precomputed binding tables, cross-candidate
memoization keyed by relevance projections.  Its contract is exactness:
``explore(engine="compiled")`` must return the same Pareto front, the
same statistics, the same progress-event stream and the same logical
trace as ``engine="reference"`` on every input.  These tests prove it
differentially over the seeded random-spec corpus, both case studies,
the full explore() option matrix, and the golden paper fixtures.
"""

import json
import os

import pytest

from .randspec import random_spec
from .routes import routes
from .test_parallel_explore import SEEDS, fingerprint, route_fingerprint
from repro.casestudies import (
    build_automotive_spec,
    build_settop_spec,
    build_tv_decoder_spec,
)
from repro.compiled import MaskAllocationEnumerator, batch, compiled_spec_for
from repro.core import DEFAULT_ENGINE, ENGINES, explore
from repro.core.candidates import AllocationEnumerator
from repro.errors import ExplorationError
from repro.resilience import read_journal
from repro.trace import Tracer, trace_fingerprint

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def reference_runs():
    """Reference-engine runs, one per corpus seed (computed once)."""
    return {
        seed: explore(random_spec(seed), engine="reference")
        for seed in SEEDS
    }


def test_engine_constants():
    assert DEFAULT_ENGINE == "compiled"
    assert set(ENGINES) == {"compiled", "reference"}


def test_unknown_engine_rejected():
    spec = build_tv_decoder_spec()
    with pytest.raises(ExplorationError, match="unknown engine"):
        explore(spec, engine="turbo")


def test_differential_random_corpus(reference_runs):
    """Fronts, flexibility values and stats equal on ~30 random specs."""
    for seed in SEEDS:
        spec = random_spec(seed)
        observed = fingerprint(explore(spec, engine="compiled"))
        assert observed == fingerprint(reference_runs[seed]), (
            f"seed {seed} diverged between engines"
        )


def observe(spec, engine, tmp_path, options):
    """Everything one option set shows: the result fingerprint of a
    plain, an observed and an audited run, the checkpoint snapshots
    (with ``checkpoint_every``), the progress events and the span and
    audit trace fingerprints."""
    options = dict(options, engine=engine)
    journal = None
    if "checkpoint_every" in options:
        journal = str(tmp_path / f"{engine}.ckpt")
        options["checkpoint"] = journal
    plain = fingerprint(explore(spec, **options))
    # The header names the engine; the snapshots must not differ.
    snapshots = journal and read_journal(journal)[0][1:]
    events = []
    spans = Tracer(level="spans")
    observed = fingerprint(
        explore(spec, progress=events.append, progress_every=7,
                tracer=spans, **options)
    )
    audit = Tracer(level="audit")
    audited = fingerprint(explore(spec, tracer=audit, **options))
    return (
        plain,
        snapshots,
        observed,
        events,
        trace_fingerprint(spans.all_records()),
        audited,
        trace_fingerprint(audit.all_records()),
    )


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
        dict(max_candidates=0),
        dict(max_candidates=5),
        dict(max_candidates=37),
        dict(max_evaluations=0),
        dict(max_evaluations=3),
        # A snapshot per candidate is an fsync per candidate: capped.
        dict(keep_ties=True, checkpoint_every=1, max_candidates=400),
        dict(keep_ties=True, checkpoint_every=7),
        dict(keep_ties=True, checkpoint_every=64),
    ],
    ids=lambda d: "-".join(f"{k}" for k in d),
)
def test_differential_settop_options(options, tmp_path):
    """Every explore() option combination survives compilation, with
    and without observers."""
    spec = build_settop_spec()
    reference = observe(spec, "reference", tmp_path, options)
    assert observe(spec, "compiled", tmp_path, options) == reference


@pytest.mark.parametrize("engine", ["compiled", "reference"])
def test_settop_front_is_the_paper_front(engine):
    expected = [
        (100.0, 2.0),
        (120.0, 3.0),
        (230.0, 4.0),
        (290.0, 5.0),
        (360.0, 7.0),
        (430.0, 8.0),
    ]
    assert explore(build_settop_spec(), engine=engine).front() == expected


def test_differential_golden_settop_front():
    """Both engines reproduce the golden settop fixture — points,
    clusters and every statistic."""
    with open(os.path.join(GOLDEN, "settop_front.json")) as handle:
        golden = json.load(handle)
    for engine in ENGINES:
        result = explore(build_settop_spec(), engine=engine)
        observed = [
            {
                "clusters": sorted(p.clusters),
                "cost": p.cost,
                "flexibility": p.flexibility,
                "units": sorted(p.units),
            }
            for p in result.points
        ]
        assert observed == golden["points"], engine
        assert result.max_flexibility_bound == golden[
            "max_flexibility_bound"
        ]
        stats = result.stats.as_dict()
        for key, value in golden["stats"].items():
            if key in stats:
                assert stats[key] == value, (engine, key)


def test_differential_tv_decoder():
    spec = build_tv_decoder_spec()
    assert fingerprint(explore(spec, engine="compiled")) == fingerprint(
        explore(spec, engine="reference")
    )


@pytest.mark.parametrize(
    "build", [build_settop_spec, build_automotive_spec],
    ids=["settop", "automotive"],
)
def test_case_study_engines_identical(build, monkeypatch):
    """Both case studies: the compiled engine, with and without the
    block kernel, reproduces the reference fronts and statistics."""
    reference = fingerprint(explore(build(), engine="reference"))
    assert fingerprint(explore(build(), engine="compiled")) == reference
    monkeypatch.setattr(batch, "_np", None)
    assert fingerprint(explore(build(), engine="compiled")) == reference


def test_progress_event_streams_identical():
    """The structured event stream is engine-independent, byte for byte."""
    spec = build_settop_spec()
    streams = {}
    for engine in ENGINES:
        events = []
        explore(spec, engine=engine, progress=events.append,
                progress_every=25, keep_ties=True)
        streams[engine] = events
    assert streams["compiled"] == streams["reference"]


@pytest.mark.parametrize("level", ["spans", "audit"])
def test_trace_fingerprints_identical(level):
    """The logical trace — every evaluate/prune/incumbent/stop record —
    is engine-independent (wall-clock channels excluded by design)."""
    fingerprints = {}
    for engine in ENGINES:
        tracer = Tracer(level=level)
        explore(build_settop_spec(), engine=engine, tracer=tracer)
        fingerprints[engine] = trace_fingerprint(tracer.all_records())
    assert fingerprints["compiled"] == fingerprints["reference"]


#: The option sets of :func:`test_trace_fingerprints_identical_random`.
RANDOM_OPTIONS = (
    {},
    dict(keep_ties=True),
    dict(max_candidates=0),
    dict(max_candidates=5),
    dict(max_candidates=37),
    dict(max_evaluations=0),
    dict(max_evaluations=3),
    dict(keep_ties=True, checkpoint_every=1),
    dict(keep_ties=True, checkpoint_every=7),
    dict(keep_ties=True, checkpoint_every=64),
)


def test_trace_fingerprints_identical_random(tmp_path):
    for seed in SEEDS[::7]:
        spec = random_spec(seed)
        for options in RANDOM_OPTIONS:
            reference = observe(spec, "reference", tmp_path, options)
            observed = observe(spec, "compiled", tmp_path, options)
            assert observed == reference, f"seed {seed} {options} diverged"


def test_mask_enumerator_matches_reference_order():
    """Cost order *and* tie order of the mask enumerator are identical."""
    spec = build_settop_spec()
    names = list(spec.units.names())
    reference = list(AllocationEnumerator(spec, names, include_empty=True))
    compiled = list(
        MaskAllocationEnumerator(
            compiled_spec_for(spec), names, include_empty=True
        )
    )
    assert compiled == reference


def test_mask_enumerator_masks_match_sets():
    spec = build_tv_decoder_spec()
    cspec = compiled_spec_for(spec)
    enumerator = MaskAllocationEnumerator(cspec, list(spec.units.names()))
    for (cost, mask), (cost2, units) in zip(
        enumerator.iter_masks(), enumerator
    ):
        assert cost == cost2
        assert cspec.names_of(mask) == units


@pytest.mark.parametrize("every", [1, 5, 32])
def test_batched_compiled_matches_serial_reference(every, tmp_path):
    """The engine seam composes with budgets and checkpoints."""
    spec = build_settop_spec()
    reference = route_fingerprint(explore(spec, engine="reference"))
    for name, route in routes(tmp_path, every):
        observed = explore(spec, engine="compiled", **route)
        assert route_fingerprint(observed) == reference, name


def test_engine_survives_checkpoint_resume(tmp_path):
    """A checkpointed compiled run resumes to the reference result."""
    from repro.resilience import resume_explore

    spec = build_settop_spec()
    path = str(tmp_path / "run.ckpt")
    truncated = explore(
        spec, engine="compiled", checkpoint=path, checkpoint_every=8,
        max_evaluations=3,
    )
    assert not truncated.completed
    resumed = resume_explore(path, max_evaluations=None)
    reference = explore(spec, engine="reference")

    def comparable(result):
        points, stats, bound = fingerprint(result)
        del stats["checkpoints_written"]
        return points, stats, bound

    assert comparable(resumed) == comparable(reference)
