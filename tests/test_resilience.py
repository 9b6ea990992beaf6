"""Tests of the resilience runtime: journal, checkpoint/resume, anytime
budgets, and the optimality-gap semantics.

The fault-injection harness is tested in ``tests/test_faults.py`` and
``tests/test_chaos.py``; the large seeded kill/resume differential
corpus lives in ``tests/test_robustness.py``.
"""

import json
import os

import pytest

from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.core import OptimalityGap, explore
from repro.errors import CheckpointError, ExplorationError
from repro.io import dumps_result, loads_result
from repro.resilience import (
    CHECKPOINT_EVERY_DEFAULT,
    AnytimeBudget,
    FaultPlan,
    JournalWriter,
    SimulatedCrash,
    inject,
    load_checkpoint,
    read_journal,
    resume_explore,
    verify_gap,
)


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


@pytest.fixture(scope="module")
def settop_full(settop):
    return explore(settop)


def fingerprint(result):
    """Everything that must be reproducible across kills and resumes."""
    points = tuple(
        (tuple(sorted(p.units)), p.cost, p.flexibility,
         tuple(sorted(p.clusters)))
        for p in result.points
    )
    stats = tuple(
        sorted(
            (k, v)
            for k, v in result.stats.as_dict().items()
            if k != "elapsed_seconds"
        )
    )
    return (points, stats, result.max_flexibility_bound, result.completed)


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.log")
        with JournalWriter(path, fresh=True) as journal:
            journal.append("header", {"x": 1})
            journal.append("outcome", [1, 2, 3], sync=True)
        records, valid_length = read_journal(path)
        assert records == [("header", {"x": 1}), ("outcome", [1, 2, 3])]
        assert valid_length == os.path.getsize(path)

    def test_torn_final_line_is_discarded(self, tmp_path):
        path = str(tmp_path / "j.log")
        with JournalWriter(path, fresh=True) as journal:
            journal.append("a", 1)
            journal.append("b", 2)
        clean_size = os.path.getsize(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"t":"c","p":3')  # killed mid-write: no \n, no crc
        records, valid_length = read_journal(path)
        assert records == [("a", 1), ("b", 2)]
        assert valid_length == clean_size

    def test_corrupt_middle_record_raises(self, tmp_path):
        path = str(tmp_path / "j.log")
        with JournalWriter(path, fresh=True) as journal:
            journal.append("a", 1)
            journal.append("b", 2)
        data = open(path, "rb").read()
        lines = data.splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(lines[0].replace(b'"p":1', b'"p":9'))  # bad crc
            handle.write(lines[1])
        with pytest.raises(CheckpointError, match="corrupt"):
            read_journal(path)

    def test_resume_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "j.log")
        with JournalWriter(path, fresh=True) as journal:
            journal.append("a", 1)
        clean = os.path.getsize(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage")
        with JournalWriter(path, truncate_to=clean) as journal:
            journal.append("b", 2)
        records, _ = read_journal(path)
        assert records == [("a", 1), ("b", 2)]

    def test_closed_writer_rejects_appends(self, tmp_path):
        journal = JournalWriter(str(tmp_path / "j.log"), fresh=True)
        journal.close()
        with pytest.raises(CheckpointError, match="closed"):
            journal.append("a", 1)

    def test_append_under_enospc_leaves_no_half_record(self, tmp_path):
        """A full disk fails the append loudly *before* any byte lands:
        the journal stays a valid prefix a later append can follow."""
        from repro.resilience.faults import FaultPlan, inject

        path = str(tmp_path / "j.log")
        with JournalWriter(path, fresh=True) as journal:
            journal.append("a", 1)
            # Call indices count per installed plan: this append is
            # the plan's first sighting of the disk seam.
            with inject(FaultPlan(schedule={"disk": {1: "enospc"}})):
                with pytest.raises(CheckpointError, match="ENOSPC"):
                    journal.append("b", 2)
            journal.append("c", 3)
        records, valid_length = read_journal(path)
        assert records == [("a", 1), ("c", 3)]
        assert valid_length == os.path.getsize(path)

    def test_torn_final_record_discards_and_resumes(self, tmp_path):
        """An injected torn write (process dies mid-record) leaves a
        torn final line; the reader discards it and a resuming writer
        truncates to the clean prefix."""
        from repro.resilience.faults import (
            FaultPlan,
            SimulatedCrash,
            inject,
        )

        path = str(tmp_path / "j.log")
        with inject(FaultPlan(schedule={"disk": {3: "torn"}})):
            with pytest.raises(SimulatedCrash, match="torn"):
                with JournalWriter(path, fresh=True) as journal:
                    journal.append("a", 1)
                    journal.append("b", 2)
                    journal.append("c", 3)
        records, valid_length = read_journal(path)
        assert records == [("a", 1), ("b", 2)]
        assert valid_length < os.path.getsize(path)  # the torn tail
        with JournalWriter(path, truncate_to=valid_length) as journal:
            journal.append("c", 3)
        assert read_journal(path)[0] == [("a", 1), ("b", 2), ("c", 3)]

    def test_fsync_failure_is_loud(self, tmp_path):
        """A lying durability barrier surfaces as CheckpointError — the
        record is on the file, but the caller must never believe it is
        stable."""
        from repro.resilience.faults import FaultPlan, inject

        path = str(tmp_path / "j.log")
        with JournalWriter(path, fresh=True) as journal:
            journal.append("a", 1)
            with inject(FaultPlan(schedule={"disk": {1: "fsync_fail"}})):
                with pytest.raises(CheckpointError, match="fsync"):
                    journal.append("b", 2, sync=True)
        assert read_journal(path)[0] == [("a", 1), ("b", 2)]


class TestCheckpointing:
    def test_checkpointing_does_not_perturb_the_result(
        self, settop, settop_full, tmp_path
    ):
        path = str(tmp_path / "run.ckpt")
        result = explore(settop, checkpoint=path, checkpoint_every=32)
        assert result.front() == settop_full.front()
        assert result.completed
        assert result.stats.checkpoints_written > 0
        # everything except the checkpoint counter matches the plain run
        plain = {
            k: v
            for k, v in settop_full.stats.as_dict().items()
            if k not in ("elapsed_seconds", "checkpoints_written")
        }
        checkpointed = {
            k: v
            for k, v in result.stats.as_dict().items()
            if k not in ("elapsed_seconds", "checkpoints_written")
        }
        assert plain == checkpointed

    def test_header_params_pinned(self, settop, tmp_path):
        """The header of a run with non-default options, byte for byte
        as journals already on disk carry it (``warm_store`` is the
        per-test store directory)."""
        path = str(tmp_path / "run.ckpt")
        store = str(tmp_path / "store")
        explore(
            settop, checkpoint=path, max_cost=430, keep_ties=True,
            require_units=["muP2"], warm_store=store,
        )
        records, _ = read_journal(path)
        record_type, header = records[0]
        assert record_type == "header"
        params = dict(header["params"])
        assert params.pop("warm_store") == store
        assert json.dumps(params, sort_keys=True) == (
            '{"backend": "csp", '
            '"check_utilization": true, "checkpoint_every": 4096, '
            '"deadline_seconds": null, "engine": null, '
            '"forbid_units": null, "keep_ties": true, '
            '"max_candidates": null, "max_cost": 430, '
            '"max_evaluations": null, '
            '"prune_comm": true, "require_units": ["muP2"], '
            '"timing_mode": null, "use_estimation": true, '
            '"use_possible_filter": true, "util_bound": 0.69, '
            '"weighted": false}'
        )

    def test_default_cadence_used_when_unset(self, settop, tmp_path):
        path = str(tmp_path / "run.ckpt")
        result = explore(settop, checkpoint=path)
        replayed = 8154  # settop candidates consumed by the full run
        assert (
            result.stats.checkpoints_written
            == replayed // CHECKPOINT_EVERY_DEFAULT + 1  # + final snapshot
        )

    def test_journal_is_self_contained(self, settop, tmp_path):
        path = str(tmp_path / "run.ckpt")
        explore(settop, checkpoint=path, checkpoint_every=64)
        loaded = load_checkpoint(path)
        assert loaded.spec.name == settop.name
        assert loaded.completed
        assert loaded.params["checkpoint_every"] == 64
        assert loaded.cursor > 0

    def test_resume_of_finished_run_is_idempotent(self, settop, tmp_path):
        path = str(tmp_path / "run.ckpt")
        result = explore(settop, checkpoint=path, checkpoint_every=64)
        once = resume_explore(path)
        twice = resume_explore(path)
        assert fingerprint(once) == fingerprint(result)
        assert fingerprint(twice) == fingerprint(result)

    def test_resume_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            resume_explore(str(tmp_path / "absent.ckpt"))

    def test_resume_rejects_non_checkpoint_journal(self, tmp_path):
        path = str(tmp_path / "other.log")
        with JournalWriter(path, fresh=True) as journal:
            journal.append("header", {"format": "something-else"})
        with pytest.raises(CheckpointError, match="not an explore"):
            resume_explore(path)

    def test_resume_rejects_result_affecting_overrides(
        self, settop, tmp_path
    ):
        path = str(tmp_path / "run.ckpt")
        explore(settop, checkpoint=path, checkpoint_every=64)
        with pytest.raises(CheckpointError, match="result-affecting"):
            resume_explore(path, backend="sat")
        with pytest.raises(CheckpointError, match="unknown"):
            resume_explore(path, no_such_option=1)

    def test_resume_allows_execution_geometry_overrides(
        self, settop, settop_full, tmp_path
    ):
        path = str(tmp_path / "run.ckpt")
        result = explore(settop, checkpoint=path, checkpoint_every=64)
        resumed = resume_explore(
            path, engine="reference", checkpoint_every=5
        )
        assert fingerprint(resumed) == fingerprint(result)
        assert resumed.front() == settop_full.front()

    def test_legacy_pool_keys_in_header_resume(self, settop, tmp_path):
        """A header carrying the keys of removed options (the worker
        pools') still resumes to the uninterrupted run, but the keys
        are no longer overrides."""
        from repro.resilience.journal import encode_record

        reference = explore(
            settop, checkpoint=str(tmp_path / "ref.ckpt"),
            checkpoint_every=1024,
        )
        path = str(tmp_path / "legacy.ckpt")
        with pytest.raises(SimulatedCrash):
            with inject(FaultPlan(schedule={"checkpoint": {2: "abort"}})):
                explore(settop, checkpoint=path, checkpoint_every=1024)
        legacy = {
            "parallel": "process",
            "workers": 4,
            "batch_timeout": 5.0,
            "retry": {
                "attempts": 2, "base_delay": 0.01, "jitter": 0.5,
                "max_delay": 2.0, "seed": 7,
            },
        }
        records, _ = read_journal(path)
        with open(path, "w", encoding="utf-8") as handle:
            for record_type, payload in records:
                if record_type == "header":
                    payload = dict(
                        payload, params=dict(payload["params"], **legacy)
                    )
                handle.write(encode_record(record_type, payload))
        assert load_checkpoint(path).params["parallel"] == "process"
        resumed = resume_explore(path)
        assert fingerprint(resumed) == fingerprint(reference)
        with pytest.raises(CheckpointError, match="unknown"):
            resume_explore(path, parallel="thread")

    def test_null_shard_key_in_header_resumes(self, settop, tmp_path):
        """A header carrying ``"shard": null`` (as unsharded runs
        wrote while sharded exploration existed) still loads and
        resumes to the uninterrupted run."""
        from repro.resilience.journal import encode_record

        reference = explore(settop)
        path = str(tmp_path / "old.ckpt")
        with pytest.raises(SimulatedCrash):
            with inject(FaultPlan(schedule={"checkpoint": {2: "abort"}})):
                explore(settop, checkpoint=path, checkpoint_every=1024)
        records, _ = read_journal(path)
        with open(path, "w", encoding="utf-8") as handle:
            for record_type, payload in records:
                if record_type == "header":
                    payload = dict(
                        payload, params=dict(payload["params"], shard=None)
                    )
                handle.write(encode_record(record_type, payload))
        assert load_checkpoint(path).params["shard"] is None
        assert resume_explore(path).front() == reference.front()

    def test_shard_journal_is_refused(self):
        """A journal of one shard holds the front of a slice of the
        allocation space: resuming it must fail loudly rather than
        present that front as the answer for the whole space.  Every
        shard journal is a version 1 journal, which is refused."""
        path = os.path.join(
            os.path.dirname(__file__), "golden", "journals",
            "tv_decoder-shard-000.checkpoint",
        )
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="version 1"):
            resume_explore(path)

    def test_checkpoint_cursor_must_fit_the_spec(self, settop, tmp_path):
        """A cursor past the enumeration means journal/spec mismatch."""
        path = str(tmp_path / "run.ckpt")
        explore(settop, checkpoint=path, checkpoint_every=64)
        records, _ = read_journal(path)
        # rewrite the journal with an absurd cursor in the last snapshot
        from repro.resilience.journal import encode_record

        with open(path, "w", encoding="utf-8") as handle:
            for record_type, payload in records:
                if record_type == "checkpoint":
                    payload = dict(payload, cursor=10**9)
                handle.write(encode_record(record_type, payload))
        with pytest.raises(CheckpointError, match="cursor"):
            resume_explore(path)


class TestAnytimeBudgets:
    def test_deadline_zero_returns_immediately(self, settop):
        result = explore(settop, deadline_seconds=0)
        assert not result.completed
        assert result.points == []
        assert result.gap is not None
        assert result.gap.reason == "deadline"
        assert result.gap.achieved_flexibility == 0.0
        # nothing was explored, so the gap covers the whole space
        assert result.gap.flexibility_bound == 8.0
        assert result.stats.candidates_enumerated == 0

    def test_max_evaluations_zero(self, settop):
        result = explore(settop, max_evaluations=0)
        assert not result.completed
        assert result.gap.reason == "max_evaluations"
        assert result.points == []

    def test_negative_budgets_rejected(self, settop):
        with pytest.raises(ExplorationError, match="deadline_seconds"):
            explore(settop, deadline_seconds=-1)
        with pytest.raises(ExplorationError, match="max_evaluations"):
            explore(settop, max_evaluations=-1)

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 10, 25])
    def test_truncated_gap_is_sound(self, settop, settop_full, budget):
        truncated = explore(settop, max_evaluations=budget)
        assert truncated.completed == (
            budget >= settop_full.stats.estimate_exceeded
        )
        assert verify_gap(truncated, settop_full) == []

    def test_truncated_front_is_a_prefix(self, settop, settop_full):
        truncated = explore(settop, max_evaluations=5)
        assert not truncated.completed
        full_front = settop_full.front()
        assert truncated.front() == full_front[: len(truncated.front())]

    def test_generous_budget_completes_without_gap(
        self, settop, settop_full
    ):
        result = explore(settop, max_evaluations=10**6)
        assert result.completed
        assert result.gap is None
        assert result.front() == settop_full.front()
        assert verify_gap(result, settop_full) == []

    def test_budgets_work_on_tv_decoder(self):
        spec = build_tv_decoder_spec()
        full = explore(spec)
        for budget in (1, 2, 4):
            truncated = explore(spec, max_evaluations=budget)
            assert verify_gap(truncated, full) == []

    def test_verify_gap_flags_dishonest_gaps(self, settop, settop_full):
        truncated = explore(settop, max_evaluations=3)
        dishonest = truncated.gap._replace(achieved_flexibility=99.0)
        truncated.gap = dishonest
        assert any(
            "achieved_flexibility" in v
            for v in verify_gap(truncated, settop_full)
        )
        truncated.gap = None
        assert verify_gap(truncated, settop_full) == [
            "truncated run has no OptimalityGap"
        ]

    def test_budget_object_validation(self):
        with pytest.raises(ValueError):
            AnytimeBudget(deadline_seconds=-0.5)
        with pytest.raises(ValueError):
            AnytimeBudget(max_evaluations=-2)
        assert AnytimeBudget().exhausted(10**9) is None

    def test_resume_with_fresh_budget_finishes_a_truncated_run(
        self, settop, settop_full, tmp_path
    ):
        path = str(tmp_path / "run.ckpt")
        truncated = explore(
            settop, checkpoint=path, checkpoint_every=16, max_evaluations=5
        )
        assert not truncated.completed
        finished = resume_explore(path, max_evaluations=None)
        assert finished.completed
        assert finished.front() == settop_full.front()


class TestResultSerialization:
    def test_truncated_result_roundtrip(self, settop):
        truncated = explore(settop, max_evaluations=3)
        text = dumps_result(truncated)
        document = json.loads(text)
        assert document["version"] == 2
        assert document["completed"] is False
        assert document["gap"]["reason"] == "max_evaluations"
        loaded = loads_result(text)
        assert not loaded.completed
        assert isinstance(loaded.gap, OptimalityGap)
        assert loaded.gap == truncated.gap
        assert loaded.front() == truncated.front()

    def test_version1_documents_still_load(self, settop):
        result = explore(settop, max_candidates=50)
        document = json.loads(dumps_result(result))
        document["version"] = 1
        del document["completed"], document["gap"], document["events"]
        loaded = loads_result(json.dumps(document))
        assert loaded.completed
        assert loaded.gap is None
        assert loaded.front() == result.front()
