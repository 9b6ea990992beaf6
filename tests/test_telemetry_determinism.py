"""Differential proof: telemetry never touches the logical channel.

The telemetry plane (resource sampler + phase profiler + metric
registry) lives strictly on the wall-clock side of the determinism
seam, so attaching it must change *nothing* observable: the result
document, the progress-event stream and the logical trace fingerprint
are byte-identical with telemetry on vs off — across plain runs,
budgeted and checkpointed runs and the exploration service, over a
12-seed random corpus plus the settop case study.
"""

import json

import pytest

from .randspec import random_spec
from repro.casestudies import build_settop_spec
from repro.core import explore
from repro.io.result_io import result_to_dict
from repro.service import ExplorationService
from repro.telemetry import PhaseProfiler, Telemetry
from repro.trace import Tracer, trace_fingerprint

#: The differential corpus (satellite requirement: 12 seeds).
SEEDS = list(range(12))


def result_doc(result):
    """The full result document minus wall-clock diagnostics."""
    document = result_to_dict(result)
    document.get("stats", {}).pop("elapsed_seconds", None)
    # Cache diagnostics legitimately vary with memo temperature.
    document.pop("cache", None)
    return json.dumps(document, sort_keys=True)


def strip_events(events):
    """Progress events minus the wall-clock fields."""
    stripped = []
    for event in events:
        clean = {
            k: v for k, v in event.items()
            if k not in ("t", "elapsed_seconds")
        }
        clean.get("stats", {}).pop("elapsed_seconds", None)
        stripped.append(json.dumps(clean, sort_keys=True))
    return stripped


def observed_run(spec, telemetry, **kwargs):
    """One run's (result doc, stripped events, trace fingerprint)."""
    events = []
    tracer = Tracer(level="audit", trace_id="differential")
    result = explore(
        spec,
        progress=events.append,
        progress_every=3,
        tracer=tracer,
        telemetry=telemetry,
        **kwargs,
    )
    return (
        result_doc(result),
        strip_events(events),
        trace_fingerprint(tracer.all_records()),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_serial_differential(seed):
    spec = random_spec(seed)
    off = observed_run(spec, None)
    on = observed_run(spec, Telemetry())
    assert on == off, f"seed {seed}: telemetry changed the serial run"


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_differential(seed, tmp_path):
    """The same on a budgeted run journaling every 4 candidates."""
    spec = random_spec(seed)
    budgeted = dict(deadline_seconds=1e9, checkpoint_every=4)
    off = observed_run(
        spec, None, checkpoint=str(tmp_path / "off.ckpt"), **budgeted
    )
    on = observed_run(
        spec, Telemetry(), checkpoint=str(tmp_path / "on.ckpt"), **budgeted
    )
    assert on == off, f"seed {seed}: telemetry changed the budgeted run"


def test_bare_profiler_satisfies_the_seam():
    """A PhaseProfiler alone (no registry/sampler) is also accepted."""
    spec = build_settop_spec()
    profiler = PhaseProfiler()
    off = observed_run(spec, None)
    on = observed_run(spec, profiler)
    assert on == off
    assert profiler.totals()["evaluate"]["calls"] > 0


def test_settop_phase_charges_do_not_leak_into_trace():
    """The profiler observes real phases while the tracer's own
    phase_totals and fingerprint stay exactly what they were."""
    spec = build_settop_spec()
    baseline_tracer = Tracer(level="audit", trace_id="t")
    explore(spec, tracer=baseline_tracer)

    telemetry = Telemetry()
    observed_tracer = Tracer(level="audit", trace_id="t")
    explore(spec, tracer=observed_tracer, telemetry=telemetry)

    assert trace_fingerprint(
        observed_tracer.all_records()
    ) == trace_fingerprint(baseline_tracer.all_records())
    phases = telemetry.phase_totals()
    assert phases["evaluate"]["calls"] > 0
    assert phases["estimate"]["calls"] > 0
    assert phases["binding"]["calls"] > 0


def service_doc(result):
    """Like :func:`result_doc`, minus checkpoint accounting — the
    service always journals its slices (the repo's service tests
    document that slicing legitimately changes checkpoint statistics,
    never the outcome)."""
    document = result_to_dict(result)
    document.get("stats", {}).pop("elapsed_seconds", None)
    document.get("stats", {}).pop("checkpoints_written", None)
    document.pop("cache", None)
    return json.dumps(document, sort_keys=True)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_service_differential(seed, tmp_path):
    """A service slice (always telemetry-instrumented now) reproduces
    the bare, uninstrumented explore byte-for-byte."""
    spec = random_spec(seed)
    service = ExplorationService(
        str(tmp_path), slice_evaluations=10**6
    )
    try:
        job = service.submit(spec)
        service.run()
        observed = service_doc(service.result(job.job_id))
    finally:
        service.close()
    assert observed == service_doc(explore(spec)), (
        f"seed {seed}: service telemetry changed the result"
    )
