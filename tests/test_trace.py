"""Differential tests of the deterministic tracing layer.

The tracer (:mod:`repro.trace`) extends the PR-1/PR-3 determinism
contract to full search introspection: every logical record is emitted
at candidate positions from deterministic data only, so a plain run,
any budgeted or checkpointed run, and a preempted service job produce
byte-identical logical traces.  The audit trail must also be complete
enough to *reconstruct* the paper's search statistics from the trace
alone, and attaching a tracer must not change the exploration at all.
"""

import json

import pytest

from .randspec import random_spec
from .routes import routes
from repro.casestudies import build_settop_spec
from repro.core import explore
from repro.errors import TraceError
from repro.service.metrics import MetricsRegistry
from repro.trace import (
    PRUNE_REASONS,
    Tracer,
    bound_tightness,
    bridge_trace_metrics,
    chrome_trace,
    compute_trace_id,
    explain_text,
    read_trace,
    recompute_stats,
    strip_wall_fields,
    trace_fingerprint,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace,
)

#: Subset of the differential corpus (audit traces are verbose; a
#: dozen seeds cover feasible/infeasible/truncation variety).
SEEDS = list(range(12))


def collect(spec, level="audit", **kwargs):
    tracer = Tracer(level=level, trace_id=compute_trace_id(spec))
    result = explore(spec, tracer=tracer, **kwargs)
    return tracer, result


# ---------------------------------------------------------------------------
# Determinism: plain == budgeted == checkpointed == service
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("every", [1, 5, 32])
def test_differential_logical_traces(every, tmp_path):
    """Plain, budgeted and checkpointed runs leave byte-identical
    logical traces."""
    for seed in SEEDS:
        spec = random_spec(seed)
        reference, _ = collect(spec)
        for name, route in routes(tmp_path, every):
            observed, _ = collect(spec, **route)
            assert (
                observed.logical_records() == reference.logical_records()
            ), f"seed {seed} diverged on {name} at every={every}"
            assert observed.fingerprint() == reference.fingerprint()


def test_differential_logical_traces_options(tmp_path):
    """Option combinations keep the traces identical too."""
    for options in (
        dict(keep_ties=True),
        dict(timing_mode="none"),
        dict(weighted=True),
        dict(use_estimation=False),
    ):
        spec = random_spec(5)
        reference, _ = collect(spec, **options)
        for name, route in routes(tmp_path, 3):
            observed, _ = collect(spec, **route, **options)
            assert observed.fingerprint() == reference.fingerprint(), (
                f"{name} diverged with {options}"
            )


def test_service_trace_matches_solo(tmp_path):
    """A job preempted over many service slices accumulates exactly
    the trace of one uninterrupted solo run."""
    from repro.io import job_io
    from repro.service import ExplorationService, ManualClock

    spec = build_settop_spec()
    with ExplorationService(
        str(tmp_path),
        slice_evaluations=8,
        clock=ManualClock(),
    ) as service:
        job = service.submit(spec, options={"trace": "audit"})
        service.run()
        assert job.state == "completed"
        assert job.preemptions > 0  # the run really was sliced
        records = read_trace(job_io.trace_path(str(tmp_path), job.job_id))
    solo, _ = collect(spec)
    assert trace_fingerprint(records) == solo.fingerprint()


def test_service_events_carry_trace_id(tmp_path):
    """Every job event is stamped with the job's deterministic trace
    id so events and spans can be joined."""
    from repro.io import job_io
    from repro.service import ExplorationService, ManualClock

    spec = random_spec(3)
    with ExplorationService(
        str(tmp_path), clock=ManualClock()
    ) as service:
        job = service.submit(spec)
        service.run()
        assert job.trace_id == compute_trace_id(spec)
        with open(job_io.events_path(str(tmp_path), job.job_id)) as handle:
            events = [json.loads(line) for line in handle if line.strip()]
    assert events
    assert all(event["trace"] == job.trace_id for event in events)


def test_service_rejects_bad_trace_option(tmp_path):
    from repro.service import ExplorationService, ManualClock
    from repro.service.job import ServiceError

    with ExplorationService(
        str(tmp_path), clock=ManualClock()
    ) as service:
        with pytest.raises(ServiceError):
            service.submit(random_spec(0), options={"trace": "verbose"})


# ---------------------------------------------------------------------------
# Zero-change contract
# ---------------------------------------------------------------------------


def test_tracing_changes_nothing():
    """Tracing on/off, at every level: identical fronts, allocations,
    stats and progress events."""

    def outcome(result):
        stats = result.stats.as_dict()
        stats.pop("elapsed_seconds")
        return [(sorted(p.units), p.point) for p in result.points], stats

    spec = build_settop_spec()
    plain_events = []
    plain = explore(spec, progress=plain_events.append, progress_every=50)
    for level in ("spans", "audit"):
        traced_events = []
        traced = explore(
            spec,
            progress=traced_events.append,
            progress_every=50,
            tracer=Tracer(level=level),
        )
        assert outcome(traced) == outcome(plain), level
        assert traced_events == plain_events, level


def test_wall_clock_stays_out_of_the_logical_trace():
    """Clock readings land only in the wall channel, never in the
    fingerprint: two runs at different speeds fingerprint-identically."""

    class FastClock:
        def __init__(self, step):
            self.step = step
            self.value = 0.0

        def now(self):
            self.value += self.step
            return self.value

    spec = random_spec(7)
    slow = Tracer(level="audit", clock=FastClock(1000.0))
    fast = Tracer(level="audit", clock=FastClock(0.001))
    explore(spec, tracer=slow)
    explore(spec, tracer=fast)
    assert slow.fingerprint() == fast.fingerprint()
    for record in slow.logical_records():
        assert "t" not in record and "t0" not in record, record


# ---------------------------------------------------------------------------
# Audit completeness: the trace explains the whole search
# ---------------------------------------------------------------------------


def test_every_candidate_is_accounted_for():
    """candidates = pruned-before-evaluation + evaluated, per trace."""
    for seed in SEEDS[:6]:
        tracer, result = collect(random_spec(seed))
        recomputed = recompute_stats(tracer.all_records())
        assert (
            recomputed["candidates_enumerated"]
            == result.stats.candidates_enumerated
        )


def test_recompute_stats_reproduces_table1():
    """The settop search statistics are reconstructible from the
    audit trail alone (the acceptance criterion of this PR)."""
    tracer, result = collect(build_settop_spec())
    recomputed = recompute_stats(tracer.all_records())
    stats = result.stats
    assert recomputed["candidates_enumerated"] == stats.candidates_enumerated
    assert recomputed["possible_allocations"] == stats.possible_allocations
    assert recomputed["pruned_comm"] == stats.pruned_comm
    assert recomputed["estimates_computed"] == stats.estimates_computed
    assert recomputed["estimate_exceeded"] == stats.estimate_exceeded
    assert (
        recomputed["feasible_implementations"]
        == stats.feasible_implementations
    )
    assert recomputed["solver_invocations"] == stats.solver_invocations
    assert recomputed["points"] == len(result.points)
    end = tracer.all_records()[-2]  # explore_end (phase_totals trails)
    assert end["type"] == "explore_end"
    assert end["front"] == [[p.cost, p.flexibility] for p in result.points]


def test_prune_records_carry_the_numbers():
    """Every audited prune names a documented rule, and bound prunes
    carry the numbers involved (estimate vs. incumbent)."""
    tracer, _ = collect(build_settop_spec())
    prunes = [r for r in tracer.records if r["type"] == "prune"]
    assert prunes
    for record in prunes:
        assert record["reason"] in PRUNE_REASONS, record
        assert isinstance(record["units"], list)
        if record["reason"] == "estimate_below_incumbent":
            assert record["estimate"] <= record["incumbent"], record
        if record["reason"] == "not_improving":
            assert record["achieved"] <= record["incumbent"], record


def test_spans_level_skips_the_audit():
    """level="spans" records the lifecycle but no per-prune audit."""
    spans, _ = collect(build_settop_spec(), level="spans")
    kinds = {record["type"] for record in spans.records}
    assert "prune" not in kinds
    assert {"explore_start", "evaluate", "incumbent", "explore_end"} <= kinds


def test_bound_tightness_is_sound():
    """The estimate is an upper bound on every achieved flexibility."""
    tracer, _ = collect(build_settop_spec())
    bands, violations = bound_tightness(tracer.all_records())
    assert bands and not violations


def test_truncation_records():
    """An anytime-truncated run records the budget stop + partial end."""
    tracer, result = collect(build_settop_spec(), max_evaluations=5)
    assert not result.completed
    stops = [r for r in tracer.records if r["type"] == "stop"]
    assert stops and stops[-1]["reason"] == "budget"
    end = tracer.records[-1]
    assert end["type"] == "explore_end" and end["completed"] is False


def test_record_truncation_off_suppresses_the_seam():
    """record_truncation=False (the service setting): a budget stop
    leaves no logical mark, so slices concatenate cleanly."""
    spec = build_settop_spec()
    tracer = Tracer(level="audit")
    tracer.record_truncation = False
    explore(spec, tracer=tracer, max_evaluations=5)
    kinds = [record["type"] for record in tracer.records]
    assert "stop" not in kinds and "explore_end" not in kinds


def test_validation():
    with pytest.raises(TraceError):
        Tracer(level="everything")
    assert compute_trace_id(build_settop_spec()) == compute_trace_id(
        build_settop_spec()
    )


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def test_jsonl_roundtrip(tmp_path):
    tracer, _ = collect(random_spec(2))
    path = str(tmp_path / "trace.jsonl")
    write_trace(tracer, path)
    records = read_trace(path)
    assert trace_fingerprint(records) == tracer.fingerprint()
    assert strip_wall_fields(records) == tracer.logical_records()


def test_read_trace_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(TraceError):
        read_trace(str(bad))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(TraceError):
        read_trace(str(empty))
    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"format": "repro/other", "version": 1}\n')
    with pytest.raises(TraceError):
        read_trace(str(wrong))


def test_chrome_export_is_valid(tmp_path):
    tracer, result = collect(build_settop_spec())
    document = chrome_trace(tracer)
    assert validate_chrome_trace(document) == []
    names = [e["name"] for e in document["traceEvents"]]
    assert "explore" in names
    assert names.count("evaluate") == result.stats.estimate_exceeded
    assert document["otherData"]["trace_id"] == tracer.trace_id
    path = str(tmp_path / "trace.chrome.json")
    write_chrome_trace(tracer, path)
    with open(path) as handle:
        assert validate_chrome_trace(json.load(handle)) == []


def test_chrome_validator_catches_breakage():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []
    broken = {
        "traceEvents": [
            {"name": "x", "ph": "X", "ts": -1, "pid": 1, "tid": 1}
        ]
    }
    assert validate_chrome_trace(broken) != []


def test_bridge_metrics():
    tracer, result = collect(build_settop_spec())
    registry = MetricsRegistry()
    bridge_trace_metrics(tracer, registry)
    snapshot = registry.as_dict()
    assert (
        snapshot["repro_trace_evaluations_total"]["value"]
        == result.stats.estimate_exceeded
    )
    assert (
        snapshot["repro_trace_solver_calls_total"]["value"]
        == result.stats.solver_invocations
    )
    assert snapshot["repro_trace_incumbents_total"]["value"] == len(
        result.points
    )


def test_explain_text_smoke():
    tracer, _ = collect(build_settop_spec())
    report = explain_text(tracer.all_records(), tree=True, limit=3)
    for heading in (
        "# Run",
        "# Pareto front",
        "# Search statistics",
        "# Pruning audit",
        "# Per-phase time breakdown",
        "# Search tree",
    ):
        assert heading in report, heading
