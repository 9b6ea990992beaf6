"""Differential proof: telemetry never touches the logical channel.

The telemetry plane (resource sampler + phase profiler + metric
registry) lives strictly on the wall-clock side of the determinism
seam, so attaching it must change *nothing* observable: the result
document, the progress-event stream and the logical trace fingerprint
are byte-identical with telemetry on vs off — across the serial loop,
the batched replay, the exploration service and sharded dispatch, over a
12-seed random corpus plus the settop case study.
"""

import json
import tempfile
import threading

import pytest

from .randspec import random_spec
from repro.casestudies import build_settop_spec
from repro.core import explore
from repro.distributed import explore_sharded
from repro.distributed.worker import serve
from repro.io.result_io import result_to_dict
from repro.parallel import explore_batched
from repro.service import ExplorationService
from repro.telemetry import FleetTelemetry, PhaseProfiler, Telemetry
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


def observed_run(spec, telemetry, run=explore, **kwargs):
    """One run's (result doc, stripped events, trace fingerprint)."""
    events = []
    tracer = Tracer(level="audit", trace_id="differential")
    result = run(
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
def test_batched_differential(seed):
    spec = random_spec(seed)
    off = observed_run(spec, None, explore_batched, batch_size=4)
    on = observed_run(spec, Telemetry(), explore_batched, batch_size=4)
    assert on == off, f"seed {seed}: telemetry changed the batched run"


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


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_sharded_inline_differential(seed, tmp_path):
    spec = random_spec(seed)
    telemetry = FleetTelemetry()
    off = explore_sharded(
        spec, shards=2, mode="inline",
        workdir=str(tmp_path / "off"),
    )
    on = explore_sharded(
        spec, shards=2, mode="inline",
        workdir=str(tmp_path / "on"), telemetry=telemetry,
    )
    assert result_doc(on.result) == result_doc(off.result), (
        f"seed {seed}: fleet telemetry changed the sharded result"
    )
    view = telemetry.as_dict()
    assert view["fleet"]["shards"] == 2
    assert view["fleet"]["shards_completed"] == 2


def worker_in_thread(directory, max_requests):
    bound = {}
    ready_event = threading.Event()

    def ready(address):
        bound["port"] = address[1]
        ready_event.set()

    thread = threading.Thread(
        target=serve,
        args=(directory,),
        kwargs={"max_requests": max_requests, "ready": ready},
        daemon=True,
    )
    thread.start()
    assert ready_event.wait(timeout=10)
    return bound["port"], thread


def test_remote_differential_with_worker_resources(tmp_path):
    """A real wire run: the worker's resource snapshots ride the
    existing frames into FleetTelemetry, and the merged result still
    matches the solo run exactly."""
    spec = build_settop_spec()
    solo = result_doc(explore(spec))
    port, thread = worker_in_thread(str(tmp_path / "worker"), 2)
    telemetry = FleetTelemetry()
    sharded = explore_sharded(
        spec, shards=2, mode="remote",
        workers=[f"127.0.0.1:{port}"],
        workdir=str(tmp_path / "coord"),
        heartbeat_seconds=0.05,
        telemetry=telemetry,
    )
    thread.join(timeout=10)
    assert result_doc(sharded.result) == solo
    view = telemetry.as_dict()
    assert view["fleet"]["shards_completed"] == 2
    # The result frame always carries a final snapshot, so every shard
    # row has worker resources even if no heartbeat fired in time.
    for state in view["shards"].values():
        assert state["resources"].get("rss_max_bytes", 0) > 0
    assert view["fleet"]["rss_max_bytes"] > 0
    registry = telemetry.registry
    assert registry.validate(strict=True) == []
    assert registry.as_dict()["repro_fleet_shards_completed"][
        "value"
    ] == 2
