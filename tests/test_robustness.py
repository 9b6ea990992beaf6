"""Tests of failure-impact analysis."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudies import build_settop_spec
from repro.core import (
    critical_units,
    degraded_implementation,
    evaluate_allocation,
    explore,
    failure_impact,
    single_failure_report,
)

from .randspec import random_spec


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


@pytest.fixture(scope="module")
def flagship(settop):
    """The $430 maximal-flexibility box."""
    return explore(settop).points[-1]


class TestFailureImpact:
    def test_processor_failure_is_total_outage(self, settop, flagship):
        impact = failure_impact(settop, flagship, {"muP2"})
        assert impact.total_outage
        assert impact.remaining_flexibility == 0.0
        assert impact.lost_clusters == flagship.clusters

    def test_asic_failure_degrades_gracefully(self, settop, flagship):
        impact = failure_impact(settop, flagship, {"A1"})
        assert not impact.total_outage
        assert impact.remaining_flexibility == 3.0
        assert "gamma_G2" in impact.lost_clusters
        assert "gamma_D1" not in impact.lost_clusters

    def test_fpga_design_failure_minor(self, settop, flagship):
        impact = failure_impact(settop, flagship, {"D3"})
        assert impact.remaining_flexibility == 7.0
        assert impact.lost_clusters == {"gamma_D3"}

    def test_bus_failure(self, settop, flagship):
        impact = failure_impact(settop, flagship, {"C2"})
        # without the ASIC bus, A1 is stranded: only muP2 + D3 remain
        # usable (gamma_I, gamma_D1, gamma_D3, gamma_U1 -> f = 3)
        assert impact.remaining_flexibility == 3.0
        assert {"gamma_G1", "gamma_D2", "gamma_U2"} <= impact.lost_clusters

    def test_multi_unit_failure(self, settop, flagship):
        impact = failure_impact(settop, flagship, {"A1", "D3"})
        assert impact.remaining_flexibility <= 3.0

    def test_degraded_implementation_matches_direct_eval(self, settop, flagship):
        degraded = degraded_implementation(settop, flagship, {"A1"})
        direct = evaluate_allocation(
            settop, set(flagship.units) - {"A1"}
        )
        assert degraded is not None and direct is not None
        assert degraded.flexibility == direct.flexibility


class TestReports:
    def test_single_failure_report_sorted_worst_first(self, settop, flagship):
        report = single_failure_report(settop, flagship)
        assert len(report) == len(flagship.units)
        values = [impact.remaining_flexibility for impact in report]
        assert values == sorted(values)
        assert report[0].failed_units == frozenset({"muP2"})

    def test_critical_units(self, settop, flagship):
        assert critical_units(settop, flagship) == frozenset({"muP2"})

    def test_cheap_box_everything_critical(self, settop):
        cheap = evaluate_allocation(settop, {"muP2"})
        assert critical_units(settop, cheap) == frozenset({"muP2"})

    def test_timing_mode_passthrough(self, settop, flagship):
        impact = failure_impact(
            settop, flagship, {"A1"}, timing_mode="schedule"
        )
        # exact scheduling keeps the game on muP2 alive
        assert impact.remaining_flexibility >= 4.0


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=255),
    )
    def test_failing_more_never_helps(self, seed, mask):
        spec = random_spec(seed)
        full = evaluate_allocation(spec, set(spec.units.names()))
        if full is None:
            return
        units = sorted(full.units)
        failed_small = {
            u for i, u in enumerate(units) if mask >> i & 1
        }
        rng = random.Random(seed)
        extra = set(rng.sample(units, k=min(1, len(units))))
        small = failure_impact(spec, full, failed_small)
        large = failure_impact(spec, full, failed_small | extra)
        assert (
            large.remaining_flexibility <= small.remaining_flexibility
        )


# ---------------------------------------------------------------------------
# Kill/resume robustness: a checkpointed exploration killed at an
# arbitrary point and resumed must reproduce the uninterrupted run's
# result fingerprint exactly — over a seeded corpus of random
# specifications, several checkpoint cadences, both case studies and
# every way the driver can run.
# ---------------------------------------------------------------------------

from repro.casestudies import (  # noqa: E402
    build_tv_decoder_spec,
    synthetic_spec,
)
from repro.compiled import batch  # noqa: E402
from repro.resilience import (  # noqa: E402
    FaultPlan,
    SimulatedCrash,
    inject,
    resume_explore,
    verify_gap,
)
from repro.trace import Tracer  # noqa: E402

from .test_resilience import fingerprint  # noqa: E402

RESUME_SEEDS = range(30)

#: Case studies with the cadence their kill tests checkpoint at.
CASES = {
    "settop": (build_settop_spec, 1024),
    "tv": (build_tv_decoder_spec, 16),
}


@pytest.fixture(params=["fast", "eventful", "compiled", "reference"])
def driver(request, monkeypatch):
    """The ``explore()``/``resume_explore()`` keywords of one way to
    drive a run: the block driver, the block driver stepping every row
    (an audit tracer observes every candidate), the compiled engine
    without the block kernel (the no-numpy route) and the reference
    engine.  Called once per run: a tracer observes one session."""
    name = request.param
    if name == "compiled":
        monkeypatch.setattr(batch, "_np", None)

    def options():
        if name == "eventful":
            return {"tracer": Tracer(level="audit")}
        if name == "reference":
            return {"engine": "reference"}
        return {}

    return options


def _run_killed_and_resume(spec, tmp_path, kill_at, every, label):
    """Reference vs killed-at-checkpoint-``kill_at``-then-resumed runs."""
    reference = explore(
        spec,
        checkpoint=str(tmp_path / f"{label}-ref.ckpt"),
        checkpoint_every=every,
    )
    killed = str(tmp_path / f"{label}-killed.ckpt")
    crashed = False
    try:
        with inject(FaultPlan(schedule={"checkpoint": {kill_at: "abort"}})):
            explore(spec, checkpoint=killed, checkpoint_every=every)
    except SimulatedCrash:
        crashed = True
    # small specs may finish before checkpoint ``kill_at``; resume then
    # just reproduces the completed run — both cases must fingerprint
    # identically to the reference.
    resumed = resume_explore(killed)
    return reference, resumed, crashed


class TestKillResumeCorpus:
    @pytest.mark.parametrize("seed", RESUME_SEEDS)
    def test_seeded_specs_serial(self, seed, tmp_path):
        spec = random_spec(seed)
        reference, resumed, _ = _run_killed_and_resume(
            spec, tmp_path, kill_at=2, every=8, label="s"
        )
        assert fingerprint(resumed) == fingerprint(reference)

    @pytest.mark.parametrize("seed", RESUME_SEEDS)
    def test_seeded_specs_batch5(self, seed, tmp_path):
        """A snapshot every 5 candidates, killed at the second."""
        spec = random_spec(seed)
        reference, resumed, _ = _run_killed_and_resume(
            spec, tmp_path, kill_at=2, every=5, label="b5"
        )
        assert fingerprint(resumed) == fingerprint(reference)

    @pytest.mark.parametrize("seed", [0, 7, 13, 21, 29])
    def test_seeded_specs_batch1(self, seed, tmp_path):
        """A snapshot per candidate, killed at the second."""
        spec = random_spec(seed)
        reference, resumed, _ = _run_killed_and_resume(
            spec, tmp_path, kill_at=2, every=1, label="b1"
        )
        assert fingerprint(resumed) == fingerprint(reference)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_synthetic_specs(self, seed, tmp_path):
        spec = synthetic_spec(
            n_apps=2, interfaces_per_app=2, alternatives=2,
            n_procs=2, n_accels=2, seed=seed,
        )
        reference, resumed, _ = _run_killed_and_resume(
            spec, tmp_path, kill_at=2, every=8, label="syn"
        )
        assert fingerprint(resumed) == fingerprint(reference)

    @pytest.mark.parametrize("kill_at", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_settop_killed_at_every_checkpoint(
        self, kill_at, settop, tmp_path
    ):
        """The set-top case study, killed at every snapshot in turn."""
        reference, resumed, crashed = _run_killed_and_resume(
            settop, tmp_path, kill_at=kill_at, every=1024, label="settop",
        )
        assert crashed  # 8154 consumed candidates -> 8 snapshots
        assert fingerprint(resumed) == fingerprint(reference)
        assert resumed.front() == [
            (100.0, 2.0), (120.0, 3.0), (230.0, 4.0),
            (290.0, 5.0), (360.0, 7.0), (430.0, 8.0),
        ]

    @pytest.mark.parametrize("kill_at", [1, 2])
    def test_tv_decoder_killed_at_every_checkpoint(self, kill_at, tmp_path):
        spec = build_tv_decoder_spec()
        reference, resumed, crashed = _run_killed_and_resume(
            spec, tmp_path, kill_at=kill_at, every=48, label="tv",
        )
        assert crashed
        assert fingerprint(resumed) == fingerprint(reference)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_killed_at_every_checkpoint_on_every_driver(
        self, case, driver, tmp_path
    ):
        """Each driver, killed at each of its snapshots in turn (the
        final one included), resumes to its uninterrupted result."""
        build, every = CASES[case]
        spec = build()
        reference = explore(
            spec,
            checkpoint=str(tmp_path / "ref.ckpt"),
            checkpoint_every=every,
            **driver(),
        )
        snapshots = reference.stats.checkpoints_written
        assert snapshots > 2
        for kill_at in range(1, snapshots + 1):
            killed = str(tmp_path / f"killed-{kill_at}.ckpt")
            with pytest.raises(SimulatedCrash):
                with inject(
                    FaultPlan(schedule={"checkpoint": {kill_at: "abort"}})
                ):
                    explore(
                        spec,
                        checkpoint=killed,
                        checkpoint_every=every,
                        **driver(),
                    )
            resumed = resume_explore(killed, **driver())
            assert fingerprint(resumed) == fingerprint(reference), kill_at
            assert verify_gap(resumed, reference) == []


    def test_double_kill_then_resume(self, settop, tmp_path):
        """Killed, resumed, killed again, resumed again — still exact."""
        reference = explore(
            settop,
            checkpoint=str(tmp_path / "ref.ckpt"),
            checkpoint_every=1024,
        )
        killed = str(tmp_path / "killed.ckpt")
        with pytest.raises(SimulatedCrash):
            with inject(FaultPlan(schedule={"checkpoint": {2: "abort"}})):
                explore(settop, checkpoint=killed, checkpoint_every=1024)
        with pytest.raises(SimulatedCrash):
            with inject(FaultPlan(schedule={"checkpoint": {3: "abort"}})):
                resume_explore(killed)
        resumed = resume_explore(killed)
        assert fingerprint(resumed) == fingerprint(reference)

    def test_real_process_kill(self, settop, tmp_path):
        """An actual hard-killed child process (os._exit, no cleanup),
        resumed in this process — the fingerprint still matches."""
        import subprocess
        import sys
        import textwrap

        reference = explore(
            settop,
            checkpoint=str(tmp_path / "ref.ckpt"),
            checkpoint_every=512,
        )
        killed = str(tmp_path / "killed.ckpt")
        script = textwrap.dedent(
            """
            import sys
            from repro.casestudies import build_settop_spec
            from repro.core import explore
            from repro.resilience.checkpoint import CheckpointWriter

            path = sys.argv[1]
            original = CheckpointWriter.checkpoint

            def dying(self, cursor, *args, **kwargs):
                original(self, cursor, *args, **kwargs)
                if cursor >= 512 * 4:
                    import os
                    os._exit(9)  # hard kill: no flush, no atexit

            CheckpointWriter.checkpoint = dying
            explore(
                build_settop_spec(), checkpoint=path, checkpoint_every=512
            )
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, killed],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 9, proc.stderr
        resumed = resume_explore(killed)
        assert fingerprint(resumed) == fingerprint(reference)


def _truncation(result):
    """A truncated run's fingerprint and gap."""
    gap = result.gap
    return fingerprint(result), gap and (
        gap.next_cost_bound,
        gap.flexibility_bound,
        gap.achieved_flexibility,
        gap.reason,
    )


@pytest.fixture(scope="module")
def reference_sweeps():
    """Per case study, the reference engine's plain run at every
    ``max_evaluations`` from 0 to one past its evaluations."""
    sweeps = {}
    for case, (build, _) in CASES.items():
        full = explore(build(), engine="reference")
        sweeps[case] = [
            _truncation(
                explore(build(), engine="reference", max_evaluations=budget)
            )
            for budget in range(full.stats.estimate_exceeded + 2)
        ]
    return sweeps


@pytest.mark.parametrize("case", sorted(CASES))
def test_max_evaluations_sweep_on_every_driver(case, driver, reference_sweeps):
    """Every evaluation budget gives each driver the same truncated
    result (or the completed one), with a sound gap."""
    spec = CASES[case][0]()
    full = explore(spec, **driver())
    for budget, expected in enumerate(reference_sweeps[case]):
        truncated = explore(spec, max_evaluations=budget, **driver())
        assert _truncation(truncated) == expected, budget
        assert verify_gap(truncated, full) == []
    assert truncated.completed
