"""SUPERVISION — the price of the liveness plane.

The supervision plane (heartbeats + watchdog, circuit breakers,
admission control, bounded slices) must be effectively free when
nothing is failing — robustness that taxes the healthy path gets
turned off in practice.  Measurements:

* **Heartbeat overhead** — the settop case study end-to-end through a
  real ``shard-worker`` subprocess, once with heartbeats disabled
  (legacy single end-of-run receive) and once with the full
  supervision plane on (worker-side beats, coordinator-side watchdog,
  per-peer breakers).  Both runs are byte-identical to the solo
  result; the headline number is the relative overhead (budget: 5%).
* **Slice watchdog overhead** — a batch of service jobs with and
  without a ``slice_timeout`` (every slice through
  :func:`~repro.supervision.run_bounded`'s worker thread).
* **Mechanism microbenchmarks** — raw throughput of watchdog beats,
  breaker admission checks, and admission-control decisions.

Usage::

    PYTHONPATH=src python benchmarks/bench_supervision.py           # full
    PYTHONPATH=src python benchmarks/bench_supervision.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from repro.casestudies import build_settop_spec
from repro.core import explore
from repro.distributed import explore_sharded
from repro.io.result_io import result_to_dict
from repro.service import ExplorationService, ManualClock
from repro.supervision import (
    AdmissionController,
    BreakerRegistry,
    Watchdog,
)

#: The acceptance budget: supervision may cost at most this fraction
#: of the unsupervised end-to-end wall clock.
OVERHEAD_BUDGET = 0.05

WORKER_SCRIPT = """
import sys
from repro.distributed.worker import serve
def ready(bound):
    print(f"READY {bound[1]}", flush=True)
serve(sys.argv[1], ready=ready)
"""


def result_doc(result):
    """The result document without wall-clock time and without the
    ``cache`` counters, which lie outside the result's fingerprint: a
    sharded run's shards keep their own memos."""
    document = result_to_dict(result)
    document.get("stats", {}).pop("elapsed_seconds", None)
    document.pop("cache", None)
    return json.dumps(document, sort_keys=True)


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = (
        os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def remote_run(spec, supervised):
    """One settop remote 2-shard run; fresh worker + fresh journals.

    A fresh worker directory per run keeps the comparison honest: a
    reused directory would let the second run *resume* finished
    journals and undercut its timing to nearly zero.
    """
    kwargs = (
        dict(heartbeat_seconds=0.2, heartbeat_timeout=10.0)
        if supervised
        else dict(heartbeat_seconds=None)
    )
    with tempfile.TemporaryDirectory() as worker_dir, \
            tempfile.TemporaryDirectory() as workdir:
        process = subprocess.Popen(
            [sys.executable, "-c", WORKER_SCRIPT, worker_dir],
            env=_child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            port = int(process.stdout.readline().split()[1])
            started = time.perf_counter()
            sharded = explore_sharded(
                spec, shards=2, strategy="band", mode="remote",
                workers=[f"127.0.0.1:{port}"], workdir=workdir,
                engine="compiled", **kwargs,
            )
            elapsed = time.perf_counter() - started
        finally:
            process.kill()
            process.wait()
    heartbeats = sum(o.heartbeats for o in sharded.outcomes)
    return elapsed, heartbeats, sharded


def heartbeat_overhead(repeat, verbose):
    spec = build_settop_spec()
    solo_doc = result_doc(explore(spec, engine="compiled"))
    baseline = supervised = None
    beats = 0
    identical = True
    for _ in range(repeat):
        off_elapsed, _, off = remote_run(spec, supervised=False)
        on_elapsed, on_beats, on = remote_run(spec, supervised=True)
        identical = identical and (
            result_doc(off.result) == solo_doc
            and result_doc(on.result) == solo_doc
        )
        baseline = min(off_elapsed, baseline or off_elapsed)
        supervised = min(on_elapsed, supervised or on_elapsed)
        beats = max(beats, on_beats)
    overhead = (supervised - baseline) / baseline
    if verbose:
        print(
            f"settop remote 2-shard: {baseline:.3f}s unsupervised, "
            f"{supervised:.3f}s supervised ({beats} heartbeats) -> "
            f"overhead {overhead * 100:+.1f}% "
            f"(budget {OVERHEAD_BUDGET * 100:.0f}%)"
        )
    return {
        "case": "settop",
        "shards": 2,
        "repeat": repeat,
        "unsupervised_seconds": baseline,
        "supervised_seconds": supervised,
        "heartbeats": beats,
        "overhead_fraction": overhead,
        "budget_fraction": OVERHEAD_BUDGET,
        "within_budget": overhead <= OVERHEAD_BUDGET,
        "identical": identical,
    }


def slice_watchdog_overhead(jobs, verbose):
    """The same job batch with unbounded vs watchdog-bounded slices."""
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "tests")
    )
    from randspec import random_spec

    specs = [random_spec(seed) for seed in range(jobs)]
    timings = {}
    for label, slice_timeout in (("unbounded", None), ("bounded", 300.0)):
        with tempfile.TemporaryDirectory() as directory:
            service = ExplorationService(
                directory, slice_evaluations=16,
                clock=ManualClock(), slice_timeout=slice_timeout,
            )
            try:
                started = time.perf_counter()
                for spec in specs:
                    service.submit(spec)
                service.run()
                timings[label] = time.perf_counter() - started
                assert all(
                    j.state == "completed" for j in service.list_jobs()
                )
            finally:
                service.close()
    overhead = (timings["bounded"] - timings["unbounded"]) \
        / timings["unbounded"]
    if verbose:
        print(
            f"service {jobs} jobs: {timings['unbounded']:.3f}s "
            f"unbounded, {timings['bounded']:.3f}s bounded slices -> "
            f"overhead {overhead * 100:+.1f}%"
        )
    return {
        "jobs": jobs,
        "unbounded_seconds": timings["unbounded"],
        "bounded_seconds": timings["bounded"],
        "overhead_fraction": overhead,
    }


def mechanism_micro(iterations, verbose):
    """ops/s of the supervision primitives themselves."""
    clock = ManualClock()
    watchdog = Watchdog(timeout_seconds=30.0, clock=clock)
    watchdog.arm("w")
    started = time.perf_counter()
    for _ in range(iterations):
        watchdog.beat("w", cursor=1)
    beat_rate = iterations / (time.perf_counter() - started)

    breakers = BreakerRegistry(clock=clock)
    started = time.perf_counter()
    for _ in range(iterations):
        breakers.allow("10.0.0.1:7000")
    allow_rate = iterations / (time.perf_counter() - started)

    admission = AdmissionController(max_queued=64, policy="shed")
    queue = [(f"j{i}", float(i % 7 + 1), float(i)) for i in range(64)]
    started = time.perf_counter()
    for _ in range(iterations):
        admission.admit(queue, priority=100.0)
    admit_rate = iterations / (time.perf_counter() - started)
    if verbose:
        print(
            f"micro: beat {beat_rate:,.0f}/s, breaker allow "
            f"{allow_rate:,.0f}/s, admission {admit_rate:,.0f}/s"
        )
    return {
        "iterations": iterations,
        "watchdog_beats_per_second": beat_rate,
        "breaker_allows_per_second": allow_rate,
        "admission_decisions_per_second": admit_rate,
    }


def run(repeat, smoke, out_path, verbose=True):
    started = time.perf_counter()
    heartbeat = heartbeat_overhead(repeat, verbose)
    slices = slice_watchdog_overhead(4 if smoke else 8, verbose)
    micro = mechanism_micro(20_000 if smoke else 200_000, verbose)
    document = {
        "bench": "supervision",
        "cpu_count": os.cpu_count(),
        "heartbeat_overhead": heartbeat,
        "slice_watchdog_overhead": slices,
        "micro": micro,
        "elapsed_seconds": time.perf_counter() - started,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    if verbose:
        print(
            f"within_budget={heartbeat['within_budget']} "
            f"identical={heartbeat['identical']}; wrote {out_path}"
        )
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="overhead of the supervision plane"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: fewer repetitions, smaller batches",
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="timed repetitions, best-of (default: 3; smoke 2)",
    )
    parser.add_argument(
        "--out", default="BENCH_supervision.json",
        help="output JSON path (default BENCH_supervision.json)",
    )
    args = parser.parse_args(argv)
    repeat = args.repeat if args.repeat is not None else (
        2 if args.smoke else 3
    )
    document = run(repeat, args.smoke, args.out)
    # Exactness under supervision is the hard requirement; the
    # overhead budget is the headline claim.
    heartbeat = document["heartbeat_overhead"]
    return 0 if heartbeat["identical"] and heartbeat["within_budget"] \
        else 1


if __name__ == "__main__":
    sys.exit(main())
