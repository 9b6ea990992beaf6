"""The supervision plane: watchdogs, circuit breakers, admission.

Unit tests drive every state machine against a
:class:`~repro.service.clock.ManualClock` (deterministic, no sleeps);
the integration tests prove the wiring — a silent (hung-but-connected)
worker is classified ``hung`` and failed over by the coordinator, a
wedged service slice becomes a typed ``hung`` event, an overloaded
service rejects or sheds loudly — and that the legacy paths
(heartbeats disabled, unbounded queue, no slice timeout) are
untouched.  The chaos matrix proper lives in ``tests/test_chaos.py``.
"""

import socket
import threading
import time

import pytest

from .randspec import random_spec
from repro.casestudies import build_settop_spec
from repro.core import explore
from repro.distributed import explore_sharded
from repro.distributed.protocol import (
    MessageStream,
    connect,
    hello_payload,
)
from repro.errors import HangError, OverloadedError
from repro.resilience import RetryPolicy
from repro.service import ExplorationService, ManualClock, ServiceError
from repro.service.metrics import MetricsRegistry
from repro.supervision import (
    AdmissionController,
    BreakerRegistry,
    CircuitBreaker,
    Watchdog,
    run_bounded,
)
from repro.supervision.breaker import CLOSED, HALF_OPEN, OPEN
from .test_distributed_faults import start_worker


def fingerprint(result):
    points = [
        (sorted(p.units), p.cost, p.flexibility, sorted(p.clusters))
        for p in result.points
    ]
    return points, result.max_flexibility_bound, result.completed


class TestWatchdog:
    def test_beating_key_never_expires(self):
        clock = ManualClock()
        dog = Watchdog(timeout_seconds=10.0, clock=clock)
        dog.arm("w")
        for _ in range(20):
            clock.advance(9.0)
            dog.beat("w")
        assert not dog.expired("w")
        assert dog.check() == []
        assert dog.beats("w") == 20

    def test_silence_past_timeout_expires(self):
        clock = ManualClock()
        dog = Watchdog(timeout_seconds=10.0, clock=clock)
        dog.arm("w")
        clock.advance(10.0)
        assert not dog.expired("w")  # exactly at the bound: still alive
        clock.advance(0.5)
        assert dog.expired("w")
        assert dog.check() == ["w"]
        assert dog.silence("w") == pytest.approx(10.5)

    def test_disarm_stops_supervision(self):
        clock = ManualClock()
        dog = Watchdog(timeout_seconds=1.0, clock=clock)
        dog.arm("w")
        dog.disarm("w")
        clock.advance(100.0)
        assert not dog.expired("w")
        assert dog.silence("w") is None
        assert dog.check() == []

    def test_info_keeps_the_latest_beat_payload(self):
        dog = Watchdog(timeout_seconds=1.0, clock=ManualClock())
        dog.arm("w")
        dog.beat("w", cursor=10, evaluations=4)
        dog.beat("w", cursor=20)
        assert dog.info("w") == {"cursor": 20, "evaluations": 4}

    def test_multiple_keys_are_independent(self):
        clock = ManualClock()
        dog = Watchdog(timeout_seconds=5.0, clock=clock)
        dog.arm("a")
        dog.arm("b")
        clock.advance(6.0)
        dog.beat("b")
        assert dog.check() == ["a"]

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="timeout_seconds"):
            Watchdog(timeout_seconds=0.0)


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


class TestCircuitBreaker:
    def make(self, clock=None, threshold=3):
        return CircuitBreaker(
            "10.0.0.1:7000",
            failure_threshold=threshold,
            clock=clock or ManualClock(),
        )

    def test_closed_until_threshold(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_count(self):
        breaker = self.make()
        for _ in range(10):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_admits_one_probe(self):
        clock = ManualClock()
        breaker = self.make(clock=clock)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(breaker.next_probe_at() - clock.now())
        assert breaker.allow()  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # one probe at a time
        assert breaker.probes == 1

    def test_probe_success_closes_and_resets_the_ladder(self):
        clock = ManualClock()
        breaker = self.make(clock=clock)
        for _ in range(3):
            breaker.record_failure()
        first_cool_down = breaker.next_probe_at() - clock.now()
        clock.advance(first_cool_down)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        # Re-trip: the cool-down ladder restarted from rung one.
        for _ in range(3):
            breaker.record_failure()
        assert breaker.next_probe_at() - clock.now() == pytest.approx(
            first_cool_down
        )

    def test_probe_failure_reopens_longer(self):
        clock = ManualClock()
        breaker = self.make(clock=clock)
        for _ in range(3):
            breaker.record_failure()
        first = breaker.next_probe_at() - clock.now()
        clock.advance(first)
        assert breaker.allow()
        breaker.record_failure()  # failed probe
        assert breaker.state == OPEN
        assert breaker.trips == 2
        second = breaker.next_probe_at() - clock.now()
        assert second > first  # exponential ladder, jitter < growth

    def test_schedules_are_deterministic_and_desynchronised(self):
        ladder = lambda key: CircuitBreaker(key)._schedule  # noqa: E731
        assert ladder("a:1") == ladder("a:1")
        assert ladder("a:1") != ladder("b:1")

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker("k", failure_threshold=0)


class TestBreakerRegistry:
    def test_metrics_export(self):
        metrics = MetricsRegistry()
        registry = BreakerRegistry(clock=ManualClock(), metrics=metrics)
        for _ in range(3):
            registry.record_failure("10.0.0.1:7000")
        assert registry.open_keys() == ["10.0.0.1:7000"]
        assert metrics.get("repro_breaker_state_10_0_0_1_7000").value == 2
        assert metrics.get("repro_breaker_trips_10_0_0_1_7000").value == 1
        registry.record_success("10.0.0.1:7000")
        assert registry.open_keys() == []
        assert metrics.get("repro_breaker_state_10_0_0_1_7000").value == 0
        # Trip counters are cumulative, never rewound.
        assert metrics.get("repro_breaker_trips_10_0_0_1_7000").value == 1

    def test_as_dict_snapshots_every_breaker(self):
        registry = BreakerRegistry(clock=ManualClock())
        registry.record_failure("b:2")
        registry.allow("a:1")
        snapshot = registry.as_dict()
        assert list(snapshot) == ["a:1", "b:2"]
        assert snapshot["b:2"]["failures"] == 1
        assert snapshot["a:1"]["state"] == CLOSED


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
    def test_wedged_slice_becomes_a_typed_hung_failure(self, tmp_path):
        from repro.resilience.faults import FaultPlan, inject

        # One injected 1.5s evaluation delay against a 0.2s slice
        # budget: the watchdog preempts the slice, the job fails with a
        # typed HangError, and the service (not the wedged thread)
        # stays in control.
        plan = FaultPlan(
            schedule={"worker": {1: "delay"}}, delay_seconds=1.5
        )
        with make_service(tmp_path, slice_timeout=0.2) as service:
            job = service.submit(random_spec(3))
            with service.subscribe(kinds=["hung"]) as events:
                with inject(plan):
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


class TestRetrySiteKeys:
    def test_site_key_is_deterministic(self):
        policy = RetryPolicy(attempts=6, jitter=0.5, seed=3)
        assert policy.schedule(site_key="w:1") == policy.schedule(
            site_key="w:1"
        )

    def test_site_keys_desynchronise_peers(self):
        policy = RetryPolicy(attempts=6, jitter=0.5, seed=3)
        assert policy.schedule(site_key="w:1") != policy.schedule(
            site_key="w:2"
        )

    def test_no_site_key_matches_the_journaled_legacy_schedule(self):
        policy = RetryPolicy(attempts=6, jitter=0.5, seed=3)
        assert policy.schedule() == policy.schedule(site_key=None)
        # The header round-trip is unchanged: site keys are a call-time
        # derivation, never serialized state.
        assert RetryPolicy.from_dict(policy.as_dict()).schedule() == \
            policy.schedule()


class SilentWorker:
    """Accepts connections, completes the handshake, then goes silent.

    The model of a *hung* peer: reachable (TCP fine, handshake fine),
    consumes the run request, never replies, never beats.
    """

    def __init__(self):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._streams = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            stream = MessageStream(connection)
            self._streams.append(stream)
            try:
                stream.receive()  # hello
                stream.send("hello", hello_payload())
                stream.receive()  # the run request -- then silence
            except Exception:
                pass

    def close(self):
        self._stop.set()
        self._listener.close()
        for stream in self._streams:
            try:
                stream.close()
            except OSError:
                pass


@pytest.fixture(scope="module")
def settop_solo():
    return explore(build_settop_spec(), engine="compiled")


class TestCoordinatorSupervision:
    def test_heartbeats_flow_on_a_healthy_run(self, tmp_path, settop_solo):
        process, port = start_worker(str(tmp_path / "worker"))
        try:
            sharded = explore_sharded(
                build_settop_spec(),
                shards=2,
                mode="remote",
                workers=[f"127.0.0.1:{port}"],
                workdir=str(tmp_path / "coord"),
                engine="compiled",
                heartbeat_seconds=0.02,
                heartbeat_timeout=30.0,
            )
        finally:
            process.kill()
            process.wait(timeout=30)
        assert fingerprint(sharded.result) == fingerprint(settop_solo)
        assert sum(o.heartbeats for o in sharded.outcomes) > 0
        assert all(not o.failures for o in sharded.outcomes)

    def test_hung_worker_fails_over_to_a_live_peer(
        self, tmp_path, settop_solo
    ):
        silent = SilentWorker()
        process, port = start_worker(str(tmp_path / "worker"))
        try:
            started = time.monotonic()
            sharded = explore_sharded(
                build_settop_spec(),
                shards=2,
                mode="remote",
                workers=[
                    f"127.0.0.1:{silent.port}",
                    f"127.0.0.1:{port}",
                ],
                workdir=str(tmp_path / "coord"),
                engine="compiled",
                retry_attempts=2,
                retry_delay=0.05,
                heartbeat_seconds=0.05,
                heartbeat_timeout=0.5,
            )
            elapsed = time.monotonic() - started
        finally:
            silent.close()
            process.kill()
            process.wait(timeout=30)
        assert fingerprint(sharded.result) == fingerprint(settop_solo)
        assert sharded.result.completed
        hung = [f for o in sharded.outcomes for f in o.failures]
        assert hung and all(f["kind"] == "hung" for f in hung)
        assert any(o.hangs > 0 for o in sharded.outcomes)
        # The watchdog, not a blocking receive, bounded the wait.
        assert elapsed < 30.0

    def test_hung_worker_without_failover_degrades_soundly(
        self, tmp_path, settop_solo
    ):
        silent = SilentWorker()
        process, port = start_worker(str(tmp_path / "worker"))
        try:
            sharded = explore_sharded(
                build_settop_spec(),
                shards=2,
                mode="remote",
                workers=[
                    f"127.0.0.1:{silent.port}",
                    f"127.0.0.1:{port}",
                ],
                workdir=str(tmp_path / "coord"),
                engine="compiled",
                retry_attempts=1,
                retry_delay=0.01,
                heartbeat_seconds=0.05,
                heartbeat_timeout=0.5,
            )
        finally:
            silent.close()
            process.kill()
            process.wait(timeout=30)
        from repro.resilience.anytime import verify_gap

        assert not sharded.result.completed
        assert sharded.result.gap is not None
        assert verify_gap(sharded.result, settop_solo) == []
        lost = [o for o in sharded.outcomes if o.lost]
        assert len(lost) == 1
        assert lost[0].failures[0]["kind"] == "hung"

    def test_heartbeats_disabled_restores_the_legacy_path(
        self, tmp_path, settop_solo
    ):
        process, port = start_worker(str(tmp_path / "worker"))
        try:
            sharded = explore_sharded(
                build_settop_spec(),
                shards=2,
                mode="remote",
                workers=[f"127.0.0.1:{port}"],
                workdir=str(tmp_path / "coord"),
                engine="compiled",
                heartbeat_seconds=None,
            )
        finally:
            process.kill()
            process.wait(timeout=30)
        assert fingerprint(sharded.result) == fingerprint(settop_solo)
        assert all(o.heartbeats == 0 for o in sharded.outcomes)

    def test_breakers_skip_a_tripped_address(self):
        from repro.distributed.coordinator import _pick_address

        registry = BreakerRegistry(clock=ManualClock())
        addresses = [("10.0.0.1", 1), ("10.0.0.2", 2)]
        for _ in range(3):
            registry.record_failure("10.0.0.1:1")
        assert _pick_address(addresses, 0, registry) == ("10.0.0.2", 2)
        # Every breaker open: fall back to the rotation address (losing
        # the shard outright would be strictly worse than probing).
        for _ in range(3):
            registry.record_failure("10.0.0.2:2")
        assert _pick_address(addresses, 0, registry) == ("10.0.0.1", 1)

    def test_classification_table(self):
        from repro.distributed.coordinator import _classify_failure
        from repro.errors import ProtocolError

        assert _classify_failure(HangError("x")) == "hung"
        assert _classify_failure(socket.timeout()) == "hung"
        assert _classify_failure(ProtocolError("x")) == "protocol"
        assert _classify_failure(ConnectionResetError()) == "dead"
        assert _classify_failure(OSError("x")) == "dead"


class TestHandshakeTimeout:
    def test_unresponsive_accept_loop_times_out(self):
        # A listener that never accepts: the TCP connect succeeds (the
        # backlog answers the SYN) but no hello ever arrives.  Without
        # the finite handshake bound this receive blocks forever.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            started = time.monotonic()
            with pytest.raises(OSError):
                connect(listener.getsockname(), handshake_timeout=0.3)
            assert time.monotonic() - started < 5.0
        finally:
            listener.close()

    def test_tighter_caller_timeout_wins(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            started = time.monotonic()
            with pytest.raises(OSError):
                connect(
                    listener.getsockname(),
                    timeout=0.2,
                    handshake_timeout=30.0,
                )
            assert time.monotonic() - started < 5.0
        finally:
            listener.close()
