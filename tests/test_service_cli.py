"""Tests of the service CLI group (serve/submit/jobs/watch) and --version.

The kill test is the real thing: a ``python -m repro serve`` subprocess
is SIGKILL'd mid-run and a restarted serve must resume every job from
its journal to the golden fronts.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import EXIT_ERROR, EXIT_OK, main
from repro.io import job_io


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def settop_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("svc") / "settop.json"
    code, _ = run(["demo", "settop", "--save", str(path)])
    assert code == EXIT_OK
    return str(path)


@pytest.fixture(scope="module")
def tv_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("svc") / "tv.json"
    run(["demo", "tv", "--save", str(path)])
    return str(path)


def golden_front(name):
    path = os.path.join(
        os.path.dirname(__file__), "golden", f"{name}.json"
    )
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return (
        [(p["cost"], p["flexibility"]) for p in document["points"]],
        document["max_flexibility_bound"],
    )


def result_front(directory, job_id):
    path = job_io.result_path(directory, job_id)
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return (
        [(p["cost"], p["flexibility"]) for p in document["points"]],
        document["max_flexibility_bound"],
    )


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {repro.__version__}"

    def test_module_invocation(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert completed.returncode == 0
        assert completed.stdout.strip().endswith(repro.__version__)


def _child_env():
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestSubmitServeJobs:
    def test_full_flow(self, tmp_path, settop_json, tv_json):
        directory = str(tmp_path / "svc")
        code, text = run(
            ["submit", directory, settop_json, "--name", "settop"]
        )
        assert code == EXIT_OK and "spooled" in text
        code, _ = run(
            [
                "submit", directory, tv_json, "--name", "tv",
                "--priority", "2",
            ]
        )
        assert code == EXIT_OK

        code, text = run(["jobs", directory])
        assert code == EXIT_OK
        assert text.count("spooled") >= 2

        code, text = run(
            ["serve", directory, "--slice-evaluations", "8"]
        )
        assert code == EXIT_OK
        assert "2 completed" in text

        code, text = run(["jobs", directory, "--json"])
        assert code == EXIT_OK
        listed = {row["name"]: row for row in json.loads(text)}
        assert listed["settop"]["state"] == "completed"
        assert listed["tv"]["state"] == "completed"

        settop_id = listed["settop"]["id"]
        assert result_front(directory, settop_id) == golden_front(
            "settop_front"
        )

    def test_watch_replays_events(self, tmp_path, settop_json):
        directory = str(tmp_path / "svc")
        run(["submit", directory, settop_json])
        run(["serve", directory, "--slice-evaluations", "16"])
        code, text = run(["jobs", directory, "--json"])
        job_id = json.loads(text)[0]["id"]
        code, text = run(["watch", directory, job_id])
        assert code == EXIT_OK
        events = [json.loads(line) for line in text.splitlines()]
        assert events[0]["kind"] == "submitted"
        assert events[-1]["kind"] == "completed"
        assert events[-1]["front"]

    def test_watch_unknown_job(self, tmp_path):
        code, _ = run(["watch", str(tmp_path), "j9999"])
        assert code == EXIT_ERROR

    def test_jobs_empty(self, tmp_path):
        code, text = run(["jobs", str(tmp_path)])
        assert code == EXIT_OK
        assert "no jobs" in text

    def test_serve_reports_failures(self, tmp_path, settop_json):
        directory = str(tmp_path / "svc")
        # Spool a submission with an unknown backend: the slice fails.
        from repro.io import load_spec

        job_io.write_submission(
            directory,
            load_spec(settop_json),
            "doomed",
            options={"backend": "nope"},
        )
        code, text = run(["serve", directory])
        assert code == EXIT_ERROR
        assert "1 failed" in text


class TestKillResume:
    def test_sigkill_then_resume_matches_golden(
        self, tmp_path, settop_json, tv_json
    ):
        """SIGKILL a serving process; a restart resumes to goldens."""
        directory = str(tmp_path / "svc")
        run(["submit", directory, settop_json, "--name", "settop"])
        run(["submit", directory, tv_json, "--name", "tv"])
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", directory,
                "--slice-evaluations", "2",
            ],
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Let it make some progress, then kill it hard mid-run.
        deadline = time.monotonic() + 30.0
        ledger = job_io.ledger_path(directory)
        while time.monotonic() < deadline:
            if os.path.exists(ledger) and process.poll() is None:
                time.sleep(0.4)
                break
            if process.poll() is not None:
                break
            time.sleep(0.05)
        if process.poll() is None:
            os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)

        code, _ = run(
            ["serve", directory, "--slice-evaluations", "64"]
        )
        assert code == EXIT_OK
        code, text = run(["jobs", directory, "--json"])
        listed = {row["name"]: row for row in json.loads(text)}
        assert listed["settop"]["state"] == "completed"
        assert listed["tv"]["state"] == "completed"
        assert result_front(
            directory, listed["settop"]["id"]
        ) == golden_front("settop_front")
        assert result_front(
            directory, listed["tv"]["id"]
        ) == golden_front("tv_decoder_front")
