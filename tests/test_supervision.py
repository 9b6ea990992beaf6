"""The supervision plane: bounded slices, admission.

Unit tests drive the admission controller directly and the bounded
call against real threads; the integration tests prove the wiring — a
wedged service slice becomes a typed ``hung`` event, an overloaded
service rejects or sheds loudly — and that the legacy paths (unbounded
queue, no slice timeout) are untouched.  The chaos matrix proper lives
in ``tests/test_chaos.py``.
"""

import threading

import pytest

from .randspec import random_spec
from repro.core import explore
from repro.errors import HangError, OverloadedError
from repro.service import ExplorationService, ManualClock, ServiceError
from repro.supervision import AdmissionController, run_bounded


def fingerprint(result):
    points = [
        (sorted(p.units), p.cost, p.flexibility, sorted(p.clusters))
        for p in result.points
    ]
    return points, result.max_flexibility_bound, result.completed


class TestRunBounded:
    def test_none_runs_inline(self):
        assert run_bounded(lambda: 42, None) == 42
        assert threading.active_count() == threading.active_count()

    def test_returns_the_value(self):
        assert run_bounded(lambda: {"x": 1}, 10.0) == {"x": 1}

    def test_relays_the_exception(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError, match="inner"):
            run_bounded(boom, 10.0)

    def test_overrun_raises_hang_error(self):
        release = threading.Event()
        try:
            with pytest.raises(HangError, match="watchdog budget"):
                run_bounded(release.wait, 0.05, name="wedged")
        finally:
            release.set()  # let the abandoned thread exit

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="timeout_seconds"):
            run_bounded(lambda: None, 0.0)


class TestAdmissionController:
    QUEUE = [("j1", 1.0, 10.0), ("j2", 2.0, 11.0), ("j3", 1.0, 12.0)]

    def test_unbounded_always_accepts(self):
        controller = AdmissionController()
        assert controller.admit(self.QUEUE * 100, 0.5).action == "accept"

    def test_below_the_bound_accepts(self):
        controller = AdmissionController(max_queued=4, policy="reject")
        assert controller.admit(self.QUEUE, 1.0).action == "accept"

    def test_reject_policy_raises_when_full(self):
        controller = AdmissionController(max_queued=3, policy="reject")
        with pytest.raises(OverloadedError, match="queue full"):
            controller.admit(self.QUEUE, priority=100.0)

    def test_shed_evicts_lowest_priority_newest_first(self):
        controller = AdmissionController(max_queued=3, policy="shed")
        decision = controller.admit(self.QUEUE, priority=5.0)
        assert decision.action == "shed"
        # j1 and j3 tie on priority; j3 is newer (least sunk work).
        assert decision.victim == "j3"

    def test_shed_refuses_a_submission_that_beats_nothing(self):
        controller = AdmissionController(max_queued=3, policy="shed")
        with pytest.raises(OverloadedError, match="does not beat"):
            controller.admit(self.QUEUE, priority=1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_queued"):
            AdmissionController(max_queued=0)
        with pytest.raises(ValueError, match="policy"):
            AdmissionController(policy="panic")


def make_service(directory, **kwargs):
    kwargs.setdefault("slice_evaluations", 3)
    kwargs.setdefault("clock", ManualClock())
    return ExplorationService(str(directory), **kwargs)


class TestServiceAdmission:
    def test_reject_policy_is_loud_and_counted(self, tmp_path):
        with make_service(
            tmp_path, max_queued=2, overload_policy="reject"
        ) as service:
            service.submit(random_spec(1))
            service.submit(random_spec(2))
            with pytest.raises(OverloadedError, match="queue full"):
                service.submit(random_spec(3))
            assert service.metrics.get("repro_jobs_rejected_total").value == 1
            service.run()
            assert all(
                j.state == "completed" for j in service.list_jobs()
            )

    def test_shed_policy_evicts_and_journals(self, tmp_path):
        with make_service(
            tmp_path, max_queued=2, overload_policy="shed"
        ) as service:
            low = service.submit(random_spec(1), priority=1.0)
            high = service.submit(random_spec(2), priority=4.0)
            with service.subscribe(kinds=["shed"]) as events:
                vip = service.submit(random_spec(3), priority=8.0)
                shed_events = events.drain()
            assert low.state == "cancelled"
            assert [e["job"] for e in shed_events] == [low.job_id]
            assert shed_events[0]["priority"] == 1.0
            assert shed_events[0]["displaced_by_priority"] == 8.0
            assert service.metrics.get("repro_jobs_shed_total").value == 1
            service.run()
            assert high.state == "completed"
            assert vip.state == "completed"

    def test_shed_refusal_does_not_evict(self, tmp_path):
        with make_service(
            tmp_path, max_queued=1, overload_policy="shed"
        ) as service:
            queued = service.submit(random_spec(1), priority=5.0)
            with pytest.raises(OverloadedError, match="does not beat"):
                service.submit(random_spec(2), priority=5.0)
            assert queued.state == "queued"
            service.run()
            assert queued.state == "completed"

    def test_shed_job_resubmits_and_completes(self, tmp_path):
        spec = random_spec(7)
        with make_service(
            tmp_path, max_queued=1, overload_policy="shed"
        ) as service:
            shed = service.submit(spec, priority=1.0)
            service.submit(random_spec(8), priority=2.0)
            assert shed.state == "cancelled"
            # Resubmission after the queue drains is a fresh job.
            service.run()
            job = service.submit(spec, priority=1.0)
            service.run()
            assert fingerprint(service.result(job.job_id)) == fingerprint(
                explore(spec)
            )

    def test_option_validation(self, tmp_path):
        with pytest.raises(ServiceError, match="slice_timeout"):
            make_service(tmp_path, slice_timeout=0.0)
        with pytest.raises(ValueError, match="policy"):
            make_service(tmp_path, max_queued=1, overload_policy="drop")


class TestSliceWatchdog:
    def test_wedged_slice_becomes_a_typed_hung_failure(
        self, tmp_path, monkeypatch
    ):
        import time

        from repro.core.explorer import ExploreState

        # One 1.5s evaluation against a 0.2s slice budget: the watchdog
        # preempts the slice, the job fails with a typed HangError, and
        # the service (not the wedged thread) stays in control.
        bind = ExploreState.bind
        delays = [1.5]

        def wedged(self, *args, **kwargs):
            if delays:
                time.sleep(delays.pop())
            return bind(self, *args, **kwargs)

        monkeypatch.setattr(ExploreState, "bind", wedged)
        with make_service(tmp_path, slice_timeout=0.2) as service:
            job = service.submit(random_spec(3))
            with service.subscribe(kinds=["hung"]) as events:
                service.run()
                hung_events = events.drain()
            assert job.state == "failed"
            assert "watchdog budget" in job.error
            assert [e["job"] for e in hung_events] == [job.job_id]
            assert hung_events[0]["timeout_seconds"] == 0.2
            assert service.metrics.get("repro_hangs_total").value == 1

    def test_generous_timeout_never_fires(self, tmp_path):
        spec = random_spec(4)
        with make_service(tmp_path, slice_timeout=120.0) as service:
            job = service.submit(spec)
            service.run()
            assert job.state == "completed"
            assert service.metrics.get("repro_hangs_total").value == 0
            assert fingerprint(job.result) == fingerprint(explore(spec))
