"""Tests of the command-line interface."""

import io
import json

import pytest

from repro.cli import EXIT_LINT, EXIT_OK, EXIT_TRUNCATED, main
from repro.io import load_result


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def settop_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "settop.json"
    code, _ = run(["demo", "settop", "--save", str(path)])
    assert code == EXIT_OK
    return str(path)


@pytest.fixture(scope="module")
def tv_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tv.json"
    run(["demo", "tv", "--save", str(path)])
    return str(path)


class TestDemoSynth:
    def test_demo_summary(self):
        code, text = run(["demo", "settop"])
        assert code == EXIT_OK
        assert "max flexibility 8" in text

    def test_demo_save_roundtrip(self, settop_json):
        with open(settop_json) as handle:
            document = json.load(handle)
        assert document["format"] == "repro/specification-graph"

    def test_synth(self, tmp_path):
        path = tmp_path / "synth.json"
        code, text = run(
            ["synth", "--apps", "2", "--accels", "2", "--save", str(path)]
        )
        assert code == EXIT_OK
        assert "design space 2^" in text
        assert path.exists()


class TestLint:
    def test_clean_spec(self, settop_json):
        code, text = run(["lint", settop_json])
        assert code == EXIT_OK

    def test_error_spec_exit_code(self, tmp_path):
        from repro.io import dump_spec
        from repro.spec import (
            ArchitectureGraph, ProblemGraph, make_specification,
        )

        p = ProblemGraph()
        p.add_vertex("a")
        p.add_vertex("b")
        arch = ArchitectureGraph()
        arch.add_resource("r", cost=1)
        spec = make_specification(p, arch, [("a", "r", 1.0)])
        path = tmp_path / "bad.json"
        dump_spec(spec, str(path))
        code, text = run(["lint", str(path)])
        assert code == EXIT_LINT
        assert "unsupportable-problem" in text


class TestTableDot:
    def test_table_settop_order(self, settop_json):
        code, text = run(["table", settop_json])
        assert code == EXIT_OK
        assert text.splitlines()[2].startswith("P_C_I")

    def test_table_generic(self, tv_json):
        code, text = run(["table", tv_json])
        assert code == EXIT_OK
        assert "P_U1" in text

    def test_dot(self, tv_json):
        code, text = run(["dot", tv_json])
        assert code == EXIT_OK
        assert text.startswith("digraph")


class TestExplore:
    def test_explore_prints_front(self, settop_json):
        code, text = run(["explore", settop_json])
        assert code == EXIT_OK
        assert "$430" in text and "$100" in text

    def test_explore_outputs(self, settop_json, tmp_path):
        json_path = tmp_path / "result.json"
        csv_path = tmp_path / "front.csv"
        code, text = run(
            [
                "explore", settop_json,
                "--plot", "--stats",
                "--json", str(json_path),
                "--csv", str(csv_path),
            ]
        )
        assert code == EXIT_OK
        assert "1/flexibility" in text
        assert "solver invocations" in text
        result = load_result(str(json_path))
        assert len(result.points) == 6
        csv_text = csv_path.read_text()
        assert csv_text.splitlines()[0] == "cost,flexibility,units,clusters"
        assert len(csv_text.splitlines()) == 7

    def test_explore_svg(self, settop_json, tmp_path):
        svg_path = tmp_path / "front.svg"
        code, _ = run(["explore", settop_json, "--svg", str(svg_path)])
        assert code == EXIT_OK
        assert svg_path.read_text().startswith("<svg")

    def test_explore_keep_ties(self, settop_json):
        code, text = run(["explore", settop_json, "--keep-ties"])
        assert code == EXIT_OK
        assert text.count("$230") >= 3

    def test_explore_max_cost(self, settop_json):
        code, text = run(["explore", settop_json, "--max-cost", "150"])
        assert code == EXIT_OK
        assert "$430" not in text

    def test_explore_no_timing(self, settop_json):
        code, text = run(["explore", settop_json, "--no-timing"])
        assert code == EXIT_OK

    def test_explore_schedule_mode(self, settop_json):
        code, text = run(
            ["explore", settop_json, "--timing-mode", "schedule"]
        )
        assert code == EXIT_OK
        assert "$170" in text  # the schedule-mode f=4 point

    def test_removed_shards_flag_is_a_usage_error(
        self, settop_json, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            run(["explore", settop_json, "--shards", "2"])
        assert exit_info.value.code == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["explore", "trace"])
    def test_removed_batch_size_flag_is_a_usage_error(
        self, command, settop_json, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            run([command, settop_json, "--batch-size", "5"])
        assert exit_info.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_removed_batch_size_flag_is_refused_by_submit(
        self, settop_json, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            run([
                "submit", str(tmp_path / "svc"), settop_json,
                "--batch-size", "5",
            ])
        assert exit_info.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_missing_file_error(self):
        code, _ = run(["explore", "/nonexistent/spec.json"])
        assert code == 1


class TestUpgrade:
    def test_upgrade_from_muP2(self, settop_json):
        code, text = run(["upgrade", settop_json, "--base", "muP2"])
        assert code == EXIT_OK
        assert "base: ['muP2']" in text
        assert "upgrade costs:" in text
        assert "+$0" in text

    def test_upgrade_with_budget(self, settop_json):
        code, text = run(
            ["upgrade", settop_json, "--base", "muP2",
             "--max-extra-cost", "130"]
        )
        assert code == EXIT_OK
        assert "$430" not in text

    def test_upgrade_bad_base(self, settop_json):
        code, _ = run(["upgrade", settop_json, "--base", "A1"])
        assert code == 1


class TestFailures:
    def test_failure_report(self, settop_json):
        code, text = run(
            ["failures", settop_json,
             "--allocation", "muP2,A1,C1,C2,D3"]
        )
        assert code == EXIT_OK
        assert "TOTAL OUTAGE" in text  # muP2 failure
        assert "baseline: cost=$430 flexibility=8" in text

    def test_failure_infeasible_allocation(self, settop_json):
        code, _ = run(["failures", settop_json, "--allocation", "A1"])
        assert code == 1


class TestExploreResilience:
    def test_truncated_run_exits_3_with_gap_line(self, settop_json):
        code, text = run(
            ["explore", settop_json, "--max-evaluations", "3"]
        )
        assert code == EXIT_TRUNCATED
        assert "TRUNCATED (max_evaluations)" in text
        assert "costs >= $160" in text
        assert "$430" not in text  # best points not reached yet

    def test_deadline_zero_exits_3(self, settop_json):
        code, text = run(["explore", settop_json, "--deadline", "0"])
        assert code == EXIT_TRUNCATED
        assert "TRUNCATED (deadline)" in text

    def test_complete_run_exits_0(self, settop_json):
        code, text = run(
            ["explore", settop_json, "--max-evaluations", "100000"]
        )
        assert code == EXIT_OK
        assert "TRUNCATED" not in text
        assert "$430" in text

    def test_truncated_json_document_carries_the_gap(
        self, settop_json, tmp_path
    ):
        json_path = tmp_path / "truncated.json"
        code, _ = run(
            ["explore", settop_json, "--max-evaluations", "3",
             "--json", str(json_path)]
        )
        assert code == EXIT_TRUNCATED
        result = load_result(str(json_path))
        assert not result.completed
        assert result.gap.reason == "max_evaluations"

    def test_checkpoint_then_resume(self, settop_json, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        code, text = run(
            ["explore", settop_json, "--checkpoint", str(ckpt),
             "--checkpoint-every", "512"]
        )
        assert code == EXIT_OK
        assert ckpt.exists()
        code, resumed_text = run(["explore", "--resume", str(ckpt)])
        assert code == EXIT_OK
        assert "$430" in resumed_text

    def test_resume_of_truncated_run_finishes_it(
        self, settop_json, tmp_path
    ):
        ckpt = tmp_path / "run.ckpt"
        code, text = run(
            ["explore", settop_json, "--checkpoint", str(ckpt),
             "--checkpoint-every", "64", "--max-evaluations", "3"]
        )
        assert code == EXIT_TRUNCATED
        assert "$430" not in text
        # --resume with a fresh (unlimited) budget completes the front
        code, text = run(
            ["explore", "--resume", str(ckpt),
             "--max-evaluations", "100000"]
        )
        assert code == EXIT_OK
        assert "$430" in text

    def test_resume_with_spec_is_an_error(self, settop_json, tmp_path):
        code, _ = run(
            ["explore", settop_json, "--resume",
             str(tmp_path / "x.ckpt")]
        )
        assert code == 1

    def test_explore_without_spec_or_resume_is_an_error(self):
        code, _ = run(["explore"])
        assert code == 1

    def test_resume_missing_checkpoint_is_an_error(self, tmp_path):
        code, _ = run(["explore", "--resume", str(tmp_path / "no.ckpt")])
        assert code == 1


class TestCacheCommand:
    @pytest.fixture()
    def warm_dir(self, settop_json, tmp_path):
        from repro.store.store import _reset_stores

        _reset_stores()
        store = str(tmp_path / "ws")
        code, _ = run(
            ["explore", settop_json, "--warm-store", store]
        )
        assert code == EXIT_OK
        _reset_stores()
        return store

    def test_explore_warm_store_round_trip(
        self, settop_json, warm_dir, tmp_path
    ):
        from repro.store.store import _reset_stores

        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        code, _ = run(["explore", settop_json, "--json", str(cold_json)])
        assert code == EXIT_OK
        _reset_stores()
        code, _ = run(
            ["explore", settop_json, "--warm-store", warm_dir,
             "--json", str(warm_json)]
        )
        assert code == EXIT_OK
        cold = json.load(open(cold_json))
        warm = json.load(open(warm_json))
        assert warm["cache"]["warm_hits"] > 0
        for document in (cold, warm):
            document["stats"].pop("elapsed_seconds")
            document.pop("cache")
        assert cold == warm

    def test_stats(self, warm_dir):
        code, text = run(["cache", "stats", warm_dir])
        assert code == EXIT_OK
        assert "entries" in text

    def test_stats_json(self, warm_dir):
        code, text = run(["cache", "stats", warm_dir, "--json"])
        assert code == EXIT_OK
        document = json.loads(text)
        assert document["entries"] > 0
        assert len(document["namespaces"]) == 1

    def test_verify_clean(self, warm_dir):
        code, text = run(["cache", "verify", warm_dir])
        assert code == EXIT_OK
        assert "ok" in text

    def test_verify_corrupt_is_loud(self, warm_dir):
        import os

        from repro.store.store import _reset_stores

        [segment] = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(warm_dir)
            for name in names
        ]
        with open(segment, "ab") as handle:
            handle.write(b'{"t": "entry", "p": {}, "c": 1}\njunk\n')
        _reset_stores()
        code, text = run(["cache", "verify", warm_dir])
        assert code == 1
        assert "problem" in text

    def test_gc(self, warm_dir):
        code, text = run(["cache", "gc", warm_dir])
        assert code == EXIT_OK
        assert "compacted 1 namespace" in text
        code, text = run(["cache", "gc", warm_dir, "--max-bytes", "0"])
        assert code == EXIT_OK
        assert "evicted 1" in text

    def test_missing_store_is_an_error(self, tmp_path):
        code, _ = run(["cache", "stats", str(tmp_path / "absent")])
        assert code == 1
