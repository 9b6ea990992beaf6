"""Option-handling tests for explore(): timing modes, overrides, errors.

The ``explore()`` docstring promises that ``timing_mode`` *overrides*
the legacy ``check_utilization`` flag, and that unknown modes/backends
fail fast with :class:`ExplorationError` instead of silently falling
through — both promises are pinned down here, for plain runs and for
budgeted, checkpointed runs.
"""

import inspect

import pytest

from repro.casestudies import build_settop_spec
from repro.core import (
    BINDING_BACKENDS,
    TIMING_MODES,
    evaluate_allocation,
    explore,
    validate_explore_options,
)
from repro.core import explorer
from repro.errors import ExplorationError, ReproError
from repro.resilience import checkpoint
from repro.service import SUBMIT_OPTIONS

from .routes import routes


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


class TestTimingModes:
    """All three documented modes, on plain runs and on budgeted,
    checkpointed runs at several checkpoint cadences."""

    @pytest.mark.parametrize("mode", TIMING_MODES)
    @pytest.mark.parametrize(
        "every",
        [None, 1, 5, 32],
        ids=lambda every: "serial" if every is None else str(every),
    )
    def test_every_mode_runs(self, settop, mode, every, tmp_path):
        plain = explore(settop, timing_mode=mode)
        assert plain.points
        if every is not None:
            for _, route in routes(tmp_path, every):
                observed = explore(settop, timing_mode=mode, **route)
                assert observed.front() == plain.front()

    def test_utilization_is_the_default(self, settop):
        explicit = explore(settop, timing_mode="utilization")
        implicit = explore(settop)
        assert explicit.front() == implicit.front()

    def test_none_equals_disabled_utilization(self, settop):
        assert (
            explore(settop, timing_mode="none").front()
            == explore(settop, check_utilization=False).front()
        )

    def test_schedule_less_pessimistic_than_utilization(self, settop):
        """The exact schedule accepts everything the 69% estimate does
        (it is a relaxation on this case study: same or better points)."""
        util = explore(settop, timing_mode="utilization")
        schedule = explore(settop, timing_mode="schedule")
        best_util = {cost: f for cost, f in util.front()}
        best_schedule = {cost: f for cost, f in schedule.front()}
        for cost, flexibility in best_util.items():
            covering = [
                f for c, f in best_schedule.items() if c <= cost
            ]
            assert covering and max(covering) >= flexibility


class TestOverride:
    """timing_mode wins over check_utilization, in every combination."""

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("mode", TIMING_MODES)
    def test_explicit_mode_overrides_flag(self, settop, mode, check):
        overridden = explore(
            settop, timing_mode=mode, check_utilization=check
        )
        canonical = explore(settop, timing_mode=mode)
        assert overridden.front() == canonical.front()
        stats = {
            k: v
            for k, v in overridden.stats.as_dict().items()
            if k != "elapsed_seconds"
        }
        canonical_stats = {
            k: v
            for k, v in canonical.stats.as_dict().items()
            if k != "elapsed_seconds"
        }
        assert stats == canonical_stats

    @pytest.mark.parametrize("check", [True, False])
    def test_flag_still_works_without_mode(self, settop, check):
        expected_mode = "utilization" if check else "none"
        assert (
            explore(settop, check_utilization=check).front()
            == explore(settop, timing_mode=expected_mode).front()
        )


class TestUnknownOptionErrors:
    """Unknown modes/backends raise ExplorationError, never fall through."""

    def test_unknown_timing_mode(self, settop):
        with pytest.raises(ExplorationError, match="timing_mode"):
            explore(settop, timing_mode="wcet")

    def test_unknown_backend(self, settop):
        with pytest.raises(ExplorationError, match="backend"):
            explore(settop, backend="smt")

    def test_unknown_parallel_mode(self, settop):
        """The worker-pool knob is gone: passing it fails loudly."""
        with pytest.raises(TypeError, match="parallel"):
            explore(settop, parallel="cluster")

    def test_unknown_options_raise_before_any_work(self, settop):
        """Validation fires even when the spec itself would be rejected
        later (fail fast: no partial exploration happens)."""
        with pytest.raises(ExplorationError, match="timing_mode"):
            explore(settop, timing_mode="bogus", max_candidates=0)

    def test_errors_are_repro_errors(self, settop):
        with pytest.raises(ReproError):
            explore(settop, backend="smt")

    def test_validate_helper_accepts_known_values(self):
        for backend in BINDING_BACKENDS:
            for mode in (None,) + TIMING_MODES:
                validate_explore_options(backend, mode)

    def test_validate_helper_rejects_bad_batch_size(self):
        """``batch_size`` is no longer an option at all."""
        with pytest.raises(TypeError, match="batch_size"):
            validate_explore_options("csp", None, batch_size=3)

    def test_evaluate_allocation_rejects_unknown_backend(self, settop):
        """The silent CSP fallthrough for unknown backends is gone at
        the evaluation layer too."""
        with pytest.raises(ValueError, match="backend"):
            evaluate_allocation(settop, ["muP2"], backend="smt")

    def test_evaluate_allocation_rejects_unknown_timing_mode(self, settop):
        with pytest.raises(ValueError, match="timing_mode"):
            evaluate_allocation(settop, ["muP2"], timing_mode="wcet")


def _parameters(function, *skip):
    names = list(inspect.signature(function).parameters)
    return [name for name in names if name not in skip]


class TestParameterTable:
    """Every parameter is declared once, with one role; the lists other
    packages accept or journal are derived from that declaration."""

    ROLES = {
        explorer.RESULT,
        explorer.POSITION,
        explorer.GEOMETRY,
        explorer.BUDGET,
        explorer.SESSION,
    }

    def test_every_parameter_has_exactly_one_role(self):
        names = [p.name for p in explorer.EXPLORE_PARAMS]
        assert len(names) == len(set(names))
        assert {p.role for p in explorer.EXPLORE_PARAMS} == self.ROLES
        assert names == _parameters(explore, "spec")

    def test_derived_lists(self):
        result = {
            "util_bound", "max_cost", "use_possible_filter",
            "use_estimation", "prune_comm", "check_utilization",
            "weighted", "backend", "keep_ties", "timing_mode",
            "require_units", "forbid_units",
        }
        frozen = result | {"max_candidates"}
        resumable = frozen | {
            "checkpoint_every", "deadline_seconds",
            "max_evaluations", "engine", "warm_store",
        }
        assert set(explorer.param_names(explorer.RESULT)) == result
        assert set(checkpoint._FROZEN_PARAMS) == frozen
        assert set(checkpoint._RESUMABLE_PARAMS) == resumable
        assert set(SUBMIT_OPTIONS) == result | {
            "max_candidates", "engine", "trace",
        }
        assert set(explorer.param_names(tag="evaluator")) == {
            "util_bound", "check_utilization", "weighted", "backend",
            "timing_mode", "engine", "warm_store",
        }
