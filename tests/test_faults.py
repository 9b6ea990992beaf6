"""Differential tests of the fault-injection harness.

The harness schedules process aborts at the checkpoint seam (the disk
seam is exercised by ``tests/test_chaos.py``).  Every kill test runs
the exploration under an injected abort, resumes it from its journal
and checks that the Pareto front is *identical* to the undisturbed
run.  Robust and honest, never silently wrong.
"""

import pytest

from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.core import explore
from repro.resilience import FaultPlan, SimulatedCrash, inject
from repro.resilience.faults import active_plan


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


class TestFaultPlan:
    def test_schedule_is_deterministic(self):
        plan = FaultPlan(schedule={"checkpoint": {2: "abort"}})
        plan.fire("checkpoint")  # call 1: quiet
        with pytest.raises(SimulatedCrash):
            plan.fire("checkpoint")  # call 2: scheduled fault
        plan.fire("checkpoint")  # call 3: quiet again
        assert plan.log == [("checkpoint", 2, "abort")]

    def test_max_faults_caps_a_storm(self):
        plan = FaultPlan(
            schedule={"checkpoint": {i: "abort" for i in range(1, 11)}},
            max_faults=2,
        )
        raised = 0
        for _ in range(10):
            try:
                plan.fire("checkpoint")
            except SimulatedCrash:
                raised += 1
        assert raised == 2

    def test_abort_action(self):
        plan = FaultPlan(schedule={"checkpoint": {1: "abort"}})
        with pytest.raises(SimulatedCrash):
            plan.fire("checkpoint")

    def test_unknown_site_and_action_rejected(self):
        # the candidate-evaluation ("worker") seam is gone
        with pytest.raises(ValueError, match="site"):
            FaultPlan(schedule={"worker": {1: "abort"}})
        with pytest.raises(ValueError, match="action"):
            FaultPlan(schedule={"checkpoint": {1: "transient"}})

    def test_install_is_scoped_by_inject(self):
        assert active_plan() is None
        with inject(FaultPlan()) as plan:
            assert active_plan() is plan
        assert active_plan() is None


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
