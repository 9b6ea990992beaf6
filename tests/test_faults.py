"""Differential tests of the fault-injection harness.

Every test runs the exploration under injected disturbances — transient
and permanent worker errors, worker crashes, corrupted cache entries,
aborts at a checkpoint — and checks two things: the Pareto front is
*identical* to the undisturbed run, and the degradation is *visible*
(counters, events).  Robust and honest, never silently wrong.
"""

import pytest

from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.core import explore
from repro.errors import PermanentWorkerError, TransientWorkerError
from repro.parallel import EvaluationCache, explore_batched
from repro.resilience import (
    FaultPlan,
    SimulatedCrash,
    corrupt_cache_entry,
    inject,
)
from repro.resilience.faults import active_plan


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


@pytest.fixture(scope="module")
def baseline(settop):
    return explore(settop)


class TestFaultPlan:
    def test_schedule_is_deterministic(self):
        plan = FaultPlan(schedule={"worker": {2: "transient"}})
        plan.fire("worker")  # call 1: quiet
        with pytest.raises(TransientWorkerError):
            plan.fire("worker")  # call 2: scheduled fault
        plan.fire("worker")  # call 3: quiet again
        assert plan.log == [("worker", 2, "transient")]

    def test_rates_are_seeded(self):
        def injected_calls(seed):
            plan = FaultPlan(seed=seed, transient_rate=0.5)
            calls = []
            for i in range(50):
                try:
                    plan.fire("worker")
                except TransientWorkerError:
                    calls.append(i)
            return calls

        assert injected_calls(1) == injected_calls(1)
        assert injected_calls(1) != injected_calls(2)

    def test_max_faults_caps_a_storm(self):
        plan = FaultPlan(transient_rate=1.0, max_faults=2)
        raised = 0
        for _ in range(10):
            try:
                plan.fire("worker")
            except TransientWorkerError:
                raised += 1
        assert raised == 2

    def test_permanent_action(self):
        plan = FaultPlan(schedule={"worker": {1: "permanent"}})
        with pytest.raises(PermanentWorkerError):
            plan.fire("worker")

    def test_abort_action(self):
        plan = FaultPlan(schedule={"checkpoint": {1: "abort"}})
        with pytest.raises(SimulatedCrash):
            plan.fire("checkpoint")

    def test_unknown_site_and_action_rejected(self):
        with pytest.raises(ValueError, match="site"):
            FaultPlan(schedule={"nowhere": {1: "transient"}})
        with pytest.raises(ValueError, match="action"):
            FaultPlan(schedule={"worker": {1: "explode"}})

    def test_install_is_scoped_by_inject(self):
        assert active_plan() is None
        with inject(FaultPlan()) as plan:
            assert active_plan() is plan
        assert active_plan() is None


class TestWorkerFaults:
    def test_transient_storm_with_rate(self, settop, baseline):
        plan = FaultPlan(seed=7, transient_rate=0.15, max_faults=25)
        with inject(plan):
            result = explore_batched(settop)
        assert result.front() == baseline.front()
        assert result.stats.quarantined > 0

    def test_permanent_fault_quarantines_and_rescues(
        self, settop, baseline
    ):
        plan = FaultPlan(schedule={"worker": {5: "permanent"}})
        with inject(plan):
            result = explore_batched(settop)
        # the candidate is recorded as quarantined, not dropped: the
        # front is still complete and identical
        assert result.front() == baseline.front()
        assert result.stats.quarantined == 1
        events = [e for e in result.stats.events if e["kind"] == "quarantine"]
        assert len(events) == 1
        assert "units" in events[0] and "error" in events[0]

    def test_crash_is_modelled_as_transient(self, settop, baseline):
        plan = FaultPlan(schedule={"worker": {4: "crash"}})
        with inject(plan):
            result = explore_batched(settop)
        assert result.front() == baseline.front()
        [event] = result.stats.events
        assert event["kind"] == "quarantine"
        assert "TransientWorkerError" in event["error"]

    def test_inline_faults_quarantine_and_rescue(self, settop, baseline):
        plan = FaultPlan(schedule={"worker": {3: "permanent"}})
        with inject(plan):
            result = explore_batched(settop)
        assert result.front() == baseline.front()
        assert result.stats.quarantined == 1

    def test_faults_without_parallel_are_reachable_from_explore(
        self, settop, baseline
    ):
        # explore() routes to the batched loop whenever a budget is set
        plan = FaultPlan(schedule={"worker": {3: "transient"}})
        with inject(plan):
            result = explore(settop, deadline_seconds=1e6)
        assert result.front() == baseline.front()
        assert result.stats.quarantined == 1


class TestCacheCorruption:
    def test_corruption_is_detected_and_reevaluated(self, baseline):
        settop = build_settop_spec()
        cache = EvaluationCache()
        explore_batched(settop, cache=cache)
        corrupted = corrupt_cache_entry(cache, index=0,
                                        flexibility_delta=100.0)
        assert corrupted is not None
        result = explore_batched(settop, cache=cache)
        # the poisoned flexibility (f + 100) never reaches the front
        assert result.front() == baseline.front()
        assert result.stats.cache_corruptions == 1
        assert cache.corruptions == 1
        assert cache.corrupted_signatures == [corrupted[0]]
        events = [
            e for e in result.stats.events if e["kind"] == "cache_corruption"
        ]
        assert events and events[0]["count"] == 1

    def test_many_corruptions(self, baseline):
        settop = build_settop_spec()
        cache = EvaluationCache()
        explore_batched(settop, cache=cache)
        for index in range(5):
            corrupt_cache_entry(cache, index=index, flexibility_delta=3.0)
        result = explore_batched(settop, cache=cache)
        assert result.front() == baseline.front()
        assert result.stats.cache_corruptions == 5

    def test_corrupt_index_out_of_range(self):
        cache = EvaluationCache()
        assert corrupt_cache_entry(cache, index=3) is None


class TestKillResume:
    def test_abort_at_checkpoint_then_resume(self, settop, tmp_path):
        from repro.resilience import resume_explore

        reference_path = str(tmp_path / "ref.ckpt")
        reference = explore(
            settop, checkpoint=reference_path, checkpoint_every=64
        )
        killed_path = str(tmp_path / "killed.ckpt")
        with pytest.raises(SimulatedCrash):
            with inject(FaultPlan(schedule={"checkpoint": {3: "abort"}})):
                explore(
                    settop, checkpoint=killed_path, checkpoint_every=64
                )
        resumed = resume_explore(killed_path)
        from .test_resilience import fingerprint

        assert fingerprint(resumed) == fingerprint(reference)

    def test_tv_decoder_abort_resume(self, tmp_path):
        from repro.resilience import resume_explore
        from .test_resilience import fingerprint

        spec = build_tv_decoder_spec()
        reference = explore(
            spec, checkpoint=str(tmp_path / "ref.ckpt"), checkpoint_every=16
        )
        killed = str(tmp_path / "killed.ckpt")
        with pytest.raises(SimulatedCrash):
            with inject(FaultPlan(schedule={"checkpoint": {1: "abort"}})):
                explore(spec, checkpoint=killed, checkpoint_every=16)
        resumed = resume_explore(killed)
        assert fingerprint(resumed) == fingerprint(reference)
