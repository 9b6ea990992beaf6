"""The exploration service: scheduling, preemption, recovery, events.

The headline guarantee is differential: any number of jobs time-sliced
in one service — preempted, interleaved, even killed and
recovered — produce fronts *fingerprint-identical* to solo
uninterrupted ``explore()`` runs.
"""

import os

import pytest

from .randspec import random_spec
from .test_service_metrics import validate_prometheus_text
from repro.casestudies import build_settop_spec
from repro.core import explore
from repro.io import job_io
from repro.service import ExplorationService, ManualClock, ServiceError


def fingerprint(result):
    """Front points + bound (slicing legitimately changes checkpoint
    statistics, never the exploration outcome)."""
    points = [
        (sorted(p.units), p.cost, p.flexibility, sorted(p.clusters))
        for p in result.points
    ]
    return points, result.max_flexibility_bound


def make_service(directory, **kwargs):
    kwargs.setdefault("slice_evaluations", 3)
    kwargs.setdefault("clock", ManualClock())
    return ExplorationService(str(directory), **kwargs)


def test_sixteen_jobs_exact(tmp_path):
    """16 concurrent time-sliced jobs: all fronts exact."""
    specs = [random_spec(seed) for seed in range(16)]
    with make_service(tmp_path) as service:
        jobs = [service.submit(spec) for spec in specs]
        service.run()
        total_preemptions = 0
        for job, spec in zip(jobs, specs):
            assert job.state == "completed", (job.job_id, job.error)
            assert fingerprint(job.result) == fingerprint(explore(spec)), (
                f"{job.job_id} diverged from the solo run"
            )
            total_preemptions += job.preemptions
        # The tiny slice budget forces real checkpoint-preemptions.
        assert total_preemptions > 0
        metric = service.metrics.get("repro_preemptions_total")
        assert metric.value == total_preemptions
        assert service.metrics.get("repro_jobs_completed_total").value == 16


def test_crash_recovery_resumes_exact(tmp_path):
    """A service abandoned mid-run resumes every job to exact fronts."""
    specs = {f"j{i:04d}": random_spec(i + 40) for i in range(4)}
    service = make_service(tmp_path)
    for spec in specs.values():
        service.submit(spec)
    service.run(max_slices=3)
    live = [j for j in service.list_jobs() if not j.terminal]
    assert live, "pick a slice budget that leaves work unfinished"
    # Abandon without close(): the ledger is flushed per append, so
    # this is the in-process equivalent of kill -9.

    restarted = make_service(tmp_path)
    recovered = [j for j in restarted.list_jobs() if j.recovered]
    assert {j.job_id for j in recovered} == {j.job_id for j in live}
    restarted.run()
    for job_id, spec in specs.items():
        job = restarted.job(job_id)
        assert job.state == "completed", (job_id, job.error)
        assert fingerprint(restarted.result(job_id)) == fingerprint(
            explore(spec)
        ), f"{job_id} diverged after recovery"
    assert restarted.metrics.get("repro_jobs_recovered_total").value == len(
        recovered
    )
    restarted.close()


def test_repeated_crashes_converge(tmp_path):
    """Crashing after every slice still converges to exact fronts."""
    spec = random_spec(7)
    service = make_service(tmp_path, slice_evaluations=2)
    service.submit(spec)
    service.run(max_slices=1)
    for _ in range(20):
        service = make_service(tmp_path, slice_evaluations=2)
        job = service.job("j0000")
        if job.state == "completed":
            break
        service.run(max_slices=1)
    assert job.state == "completed"
    assert fingerprint(service.result("j0000")) == fingerprint(explore(spec))
    service.close()


def test_deterministic_schedule_replay(tmp_path):
    """Under a manual clock the event schedule replays exactly."""

    def run(directory):
        with make_service(directory) as service:
            subscription = service.subscribe()
            for i in range(4):
                service.submit(
                    random_spec(i + 3), priority=1.0 + (i % 2)
                )
            service.run()
            return [
                (event["kind"], event["job"])
                for event in subscription.drain()
            ]

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert first == second


def test_priority_shapes_schedule(tmp_path):
    """A higher-priority job gets slices earlier (stride share)."""
    spec = build_settop_spec()
    with make_service(tmp_path, slice_evaluations=4) as service:
        subscription = service.subscribe(kinds=("slice_start",))
        low = service.submit(spec, name="low", priority=1.0)
        high = service.submit(spec, name="high", priority=3.0)
        service.run(max_slices=8)
        starts = [e["job"] for e in subscription.drain()]
        assert starts.count(high.job_id) > starts.count(low.job_id)


def test_cancel(tmp_path):
    with make_service(tmp_path) as service:
        job = service.submit(random_spec(1))
        service.cancel(job.job_id)
        assert job.state == "cancelled"
        assert service.run() == 0
        with pytest.raises(ServiceError):
            service.cancel(job.job_id)
    restarted = make_service(tmp_path)
    assert restarted.job(job.job_id).state == "cancelled"
    restarted.close()


def test_failed_job_is_terminal(tmp_path):
    """A job whose options explode at run time fails cleanly."""
    with make_service(tmp_path) as service:
        bad = service.submit(random_spec(2), options={"backend": "nope"})
        good = service.submit(random_spec(3))
        service.run()
        assert bad.state == "failed"
        assert bad.error and "backend" in bad.error
        assert good.state == "completed"
        assert service.metrics.get("repro_jobs_failed_total").value == 1
        with pytest.raises(ServiceError):
            service.result(bad.job_id)


def test_event_stream_filters(tmp_path):
    with make_service(tmp_path) as service:
        spec = random_spec(4)
        job = service.submit(spec)
        other = service.submit(random_spec(5))
        mine = service.subscribe(job_id=job.job_id)
        completions = service.subscribe(kinds=("completed",))
        service.run()
        assert {e["job"] for e in mine.drain()} == {job.job_id}
        completed = completions.drain()
        assert {e["job"] for e in completed} == {
            job.job_id, other.job_id,
        }
        for event in completed:
            assert event["front"], "completed events carry the front"


def test_event_files_and_watchability(tmp_path):
    """Every published event is journaled to events/<id>.jsonl."""
    import json

    with make_service(tmp_path) as service:
        job = service.submit(random_spec(6))
        service.run()
    path = job_io.events_path(str(tmp_path), job.job_id)
    events = [
        json.loads(line)
        for line in open(path, encoding="utf-8")
        if line.strip()
    ]
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "submitted"
    assert kinds[-1] == "completed"
    assert all(e["job"] == job.job_id for e in events)


def test_spool_ingestion(tmp_path):
    """Out-of-process submissions are adopted from the spool."""
    spec = random_spec(8)
    job_io.write_submission(
        str(tmp_path), spec, "spooled-job", priority=2,
        options={"keep_ties": True},
    )
    with make_service(tmp_path) as service:
        service.run()
        jobs = service.list_jobs()
        assert len(jobs) == 1
        assert jobs[0].name == "spooled-job"
        assert jobs[0].options == {"keep_ties": True}
        assert jobs[0].state == "completed"
    assert not job_io.read_submissions(str(tmp_path))
    assert fingerprint(jobs[0].result) == fingerprint(
        explore(spec, keep_ties=True)
    )


def test_metrics_exports(tmp_path):
    with make_service(tmp_path) as service:
        service.submit(random_spec(9))
        service.run()
    import json

    snapshot = json.load(open(job_io.metrics_json_path(str(tmp_path))))
    assert snapshot["repro_jobs_completed_total"]["value"] == 1
    text = open(job_io.metrics_prometheus_path(str(tmp_path))).read()
    series, typed = validate_prometheus_text(text)
    assert typed["repro_wait_seconds"] == "histogram"
    assert ("repro_jobs_completed_total" in series)


def test_checkpoint_files_per_job(tmp_path):
    with make_service(tmp_path, slice_evaluations=2) as service:
        job = service.submit(build_settop_spec())
        service.run(max_slices=2)
        assert os.path.exists(
            job_io.checkpoint_path(str(tmp_path), job.job_id)
        )
        assert job.preemptions >= 1


def test_validation(tmp_path):
    with make_service(tmp_path) as service:
        with pytest.raises(ServiceError):
            service.submit(random_spec(0), priority=0.0)
        with pytest.raises(ServiceError):
            service.submit(random_spec(0), options={"workers": 4})
        with pytest.raises(ServiceError):
            service.job("nope")
    with pytest.raises(ServiceError):
        ExplorationService(str(tmp_path / "x"), slice_evaluations=0)


def test_shard_option_is_refused(tmp_path):
    """A submission restricted to one shard of the allocation space is
    refused loudly: the service only explores whole spaces."""
    shard = {
        "strategy": "band", "index": 0, "count": 2,
        "cost_lo": 0.0, "cost_hi": 125.0,
    }
    with make_service(tmp_path) as service:
        with pytest.raises(ServiceError, match="shard"):
            service.submit(random_spec(0), options={"shard": shard})


def test_batch_size_option_is_refused(tmp_path):
    """``batch_size`` is no longer an explore() option: a submission
    naming it is refused with a typed error."""
    with make_service(tmp_path) as service:
        with pytest.raises(ServiceError, match="batch_size"):
            service.submit(random_spec(0), options={"batch_size": 8})


def test_recovered_job_with_removed_option_fails_typed(tmp_path):
    """A ledger written while ``batch_size`` was an option: on restart
    the job fails with a typed error (its options cannot run), the
    other job still completes, and the service stays up."""
    from repro.io.json_io import spec_to_dict

    spec = random_spec(0)
    service = make_service(tmp_path)
    good = service.submit(spec)
    service._ledger.append(
        "job",
        job_io.job_payload(
            "j0001", "legacy", 1.0, spec_to_dict(spec),
            {"batch_size": 8}, 0.0,
        ),
        sync=True,
    )
    service.close()

    with make_service(tmp_path) as restarted:
        legacy = restarted.job("j0001")
        assert legacy.state == "failed"
        assert "ServiceError" in legacy.error
        assert "batch_size" in legacy.error
        restarted.run()
        assert restarted.job(good.job_id).state == "completed"
        assert fingerprint(restarted.result(good.job_id)) == fingerprint(
            explore(spec)
        )
