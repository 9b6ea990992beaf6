"""The chaos matrix: every disk fault lands in the trichotomy.

Each scenario injects one deterministic disk fault (torn write,
ENOSPC, fsync failure) at the checkpoint journal's write seam of an
end-to-end exploration of a real case study, and asserts the run ends
in **exactly one** of three states:

1. *byte-identical recovery* — the run (after the typed failure, a
   resume or a fresh start) produces the same front as the undisturbed
   run;
2. *sound degradation* — ``completed=False`` with an
   :class:`OptimalityGap` that ``verify_gap`` accepts against the full
   run;
3. *typed loud error* — a :class:`ReproError` subclass (or the
   harness's :class:`SimulatedCrash`) naming the fault.

Never a hang — every scenario runs inside the supervision plane's own
:func:`~repro.supervision.run_bounded` budget — and never a silently
wrong front.
"""

import pytest

from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.core import explore
from repro.errors import CheckpointError
from repro.resilience import resume_explore
from repro.resilience.faults import (
    DISK_ACTIONS,
    FaultPlan,
    SimulatedCrash,
    inject,
)
from repro.supervision import run_bounded

#: Wall-clock budget per scenario.  A scenario that exceeds it *is* a
#: hang, and the matrix fails with a typed HangError rather than
#: wedging the suite.
CHAOS_BUDGET_SECONDS = 180.0

SPECS = {
    "settop": build_settop_spec,
    "tv": build_tv_decoder_spec,
}

#: The matrix: ``(id, case study, disk fault schedule)``.  Every
#: scenario must end in a typed failure, then byte-identical recovery.
SCENARIOS = [
    ("journal-torn-mid-settop", "settop", {"disk": {6: "torn"}}),
    ("journal-torn-mid-tv", "tv", {"disk": {6: "torn"}}),
    ("journal-torn-header-settop", "settop", {"disk": {1: "torn"}}),
    ("journal-torn-header-tv", "tv", {"disk": {1: "torn"}}),
    ("journal-enospc-settop", "settop", {"disk": {6: "enospc"}}),
    ("journal-enospc-tv", "tv", {"disk": {6: "enospc"}}),
    ("journal-enospc-header-settop", "settop", {"disk": {1: "enospc"}}),
    ("journal-fsync-settop", "settop", {"disk": {1: "fsync_fail"}}),
    ("journal-fsync-tv", "tv", {"disk": {1: "fsync_fail"}}),
]

_SOLO_CACHE = {}


def solo(name):
    if name not in _SOLO_CACHE:
        _SOLO_CACHE[name] = explore(SPECS[name]())
    return _SOLO_CACHE[name]


def fingerprint(result):
    points = [
        (sorted(p.units), p.cost, p.flexibility, sorted(p.clusters))
        for p in result.points
    ]
    return points, result.max_flexibility_bound


def assert_identical(result, name):
    __tracebackhint__ = True
    assert result.completed, "recovery must complete the run"
    assert fingerprint(result) == fingerprint(solo(name)), (
        "the recovered front diverged from the undisturbed run"
    )


def run_journal_scenario(name, schedule, tmp_path):
    """Inject at the checkpoint-journal seam of a solo explore."""
    spec = SPECS[name]()
    path = str(tmp_path / "run.ckpt")
    plan = FaultPlan(schedule=schedule)
    with pytest.raises((SimulatedCrash, CheckpointError)):
        with inject(plan):
            explore(spec, checkpoint=path, checkpoint_every=8)
    assert plan.log, "the scheduled fault never fired"
    # Fault-free recovery: resume the surviving journal prefix, or —
    # when the journal never got far enough to resume — start fresh.
    try:
        result = resume_explore(path)
    except CheckpointError:
        result = explore(
            spec, checkpoint=str(tmp_path / "fresh.ckpt"),
            checkpoint_every=8,
        )
    assert_identical(result, name)


def test_matrix_covers_every_disk_fault_on_every_case_study():
    """The acceptance bar: each disk fault action is injected into
    each case study, under a distinct scenario id."""
    covered = {
        (action, name)
        for _, name, schedule in SCENARIOS
        for action in schedule["disk"].values()
    }
    assert covered >= {
        (action, name) for action in DISK_ACTIONS for name in SPECS
    }
    assert len({s[0] for s in SCENARIOS}) == len(SCENARIOS)


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_chaos_trichotomy(scenario, tmp_path):
    scenario_id, name, schedule = scenario
    run_bounded(
        lambda: run_journal_scenario(name, schedule, tmp_path),
        CHAOS_BUDGET_SECONDS,
        name=f"chaos scenario {scenario_id}",
    )
