"""The extension experiments of EXPERIMENTS.md, pinned.

EXT1 (incremental design: upgrades that keep a shipped box's modes),
EXT2 (graceful degradation under unit failure) and EXT3 (a second,
automotive case study).
"""

import pytest

from repro.analysis import compare_scenarios
from repro.casestudies import build_automotive_spec, build_settop_spec
from repro.core import (
    explore,
    explore_upgrades,
    single_failure_report,
    upgrade_preserves_base,
)


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


@pytest.fixture(scope="module")
def settop_result(settop):
    return explore(settop)


class TestUpgrades:
    """EXT1: superset-only upgrades of a shipped box."""

    @pytest.fixture(scope="class")
    def from_muP2(self, settop):
        return explore_upgrades(settop, {"muP2"})

    def test_upgrade_roadmap_from_muP2(self, from_muP2):
        assert from_muP2.base.point == (100.0, 2.0)
        assert from_muP2.front() == [
            (100.0, 2.0), (170.0, 3.0), (230.0, 4.0),
            (290.0, 5.0), (360.0, 7.0), (430.0, 8.0),
        ]
        assert from_muP2.upgrade_costs() == [
            0.0, 70.0, 130.0, 190.0, 260.0, 330.0,
        ]
        assert from_muP2.points[1].units == {"muP2", "C1", "D3"}
        for point in from_muP2.points:
            assert "muP2" in point.units

    def test_non_interference_guarantee(self, settop, from_muP2):
        for upgrade in from_muP2.points[1:]:
            assert upgrade_preserves_base(
                settop, from_muP2.base, frozenset(upgrade.units)
            )

    def test_price_of_commitment(self, settop, settop_result):
        """Committing to muP1 first costs $30 at f=7 and $70 at f=8
        over the greenfield front."""
        from_muP1 = explore_upgrades(settop, {"muP1"})
        assert from_muP1.front() == [
            (120.0, 3.0), (230.0, 4.0), (290.0, 5.0),
            (390.0, 7.0), (500.0, 8.0),
        ]
        greenfield = {f: c for c, f in settop_result.front()}
        penalties = {
            flex: cost - greenfield[flex]
            for cost, flex in from_muP1.front()
        }
        assert penalties == {3.0: 0.0, 4.0: 0.0, 5.0: 0.0, 7.0: 30.0, 8.0: 70.0}


class TestGracefulDegradation:
    """EXT2: single-unit failures across the Pareto boxes (the critical
    units are pinned in ``tests/test_robustness.py``)."""

    def test_flagship_single_failure_report(self, settop, settop_result):
        report = single_failure_report(settop, settop_result.points[-1])
        remaining = {
            next(iter(impact.failed_units)): impact.remaining_flexibility
            for impact in report
        }
        assert remaining == {
            "muP2": 0.0, "A1": 3.0, "C2": 3.0, "C1": 7.0, "D3": 7.0,
        }
        assert report[0].total_outage  # worst first: the processor

    def test_average_surviving_flexibility(self, settop, settop_result):
        """The flagship keeps the most flexibility after one failure;
        the one-processor boxes keep none."""
        averages = []
        for implementation in settop_result.points:
            report = single_failure_report(settop, implementation)
            averages.append(
                sum(i.remaining_flexibility for i in report) / len(report)
            )
        assert averages == pytest.approx([0.0, 0.0, 2.0, 2.8, 4 / 3, 4.0])


class TestAutomotive:
    """EXT3: automotive ECU consolidation (its front and the exhaustive
    ground truth are pinned in ``tests/test_automotive.py``)."""

    FRONT = [(120.0, 3.0), (285.0, 4.0), (335.0, 7.0)]

    def test_scenarios(self):
        results = compare_scenarios(
            build_automotive_spec(),
            {
                "no GPU": {"forbid_units": {"GPU"}},
                "exact timing": {"timing_mode": "schedule"},
                "DSP required": {"require_units": {"DSP"}},
            },
        )
        # no GPU: no NN, no video, no MPC within the cruise period
        assert results["no GPU"].front() == self.FRONT[:2]
        # exact scheduling fits lane keeping on a single ECU
        assert results["exact timing"].front() == [(120.0, 4.0), (335.0, 7.0)]
        # the DSP adds $90 to every point of the front
        assert results["DSP required"].front() == [
            (cost + 90.0, flex) for cost, flex in self.FRONT
        ]
