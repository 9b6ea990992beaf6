"""SUPERVISION — the price of bounded slices and admission control.

The supervision plane (bounded slices, admission control) must be
effectively free when nothing is failing — robustness that taxes the
healthy path gets turned off in practice.  Measurements:

* **Slice watchdog overhead** — a batch of service jobs with and
  without a ``slice_timeout`` (every slice through
  :func:`~repro.supervision.run_bounded`'s worker thread).
* **Admission microbenchmark** — raw throughput of admission-control
  decisions.

Usage::

    PYTHONPATH=src python benchmarks/bench_supervision.py           # full
    PYTHONPATH=src python benchmarks/bench_supervision.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.service import ExplorationService, ManualClock
from repro.supervision import AdmissionController


#: Timed drains per label; the labels alternate which one runs first.
ROUNDS = 4


def _drain(specs, slice_timeout):
    """Wall clock of one service draining ``specs``."""
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
            elapsed = time.perf_counter() - started
            assert all(
                j.state == "completed" for j in service.list_jobs()
            )
        finally:
            service.close()
    return elapsed


def slice_watchdog_overhead(jobs, verbose):
    """The same job batch with unbounded vs watchdog-bounded slices.

    One untimed drain first pays the process's one-time import and
    compile work; the timed drains then alternate which label goes
    first, and each label reports its fastest drain.
    """
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "tests")
    )
    from randspec import random_spec

    specs = [random_spec(seed) for seed in range(jobs)]
    timeouts = {"unbounded": None, "bounded": 300.0}
    _drain(specs, None)
    timings = {label: [] for label in timeouts}
    for round_ in range(ROUNDS):
        order = sorted(timeouts, reverse=round_ % 2 == 1)
        for label in order:
            timings[label].append(_drain(specs, timeouts[label]))
    best = {label: min(runs) for label, runs in timings.items()}
    overhead = (best["bounded"] - best["unbounded"]) / best["unbounded"]
    if verbose:
        print(
            f"service {jobs} jobs: {best['unbounded']:.3f}s "
            f"unbounded, {best['bounded']:.3f}s bounded slices -> "
            f"overhead {overhead * 100:+.1f}%"
        )
    return {
        "jobs": jobs,
        "rounds": ROUNDS,
        "unbounded_seconds": best["unbounded"],
        "bounded_seconds": best["bounded"],
        "overhead_fraction": overhead,
    }


def mechanism_micro(iterations, verbose):
    """ops/s of admission-control decisions."""
    admission = AdmissionController(max_queued=64, policy="shed")
    queue = [(f"j{i}", float(i % 7 + 1), float(i)) for i in range(64)]
    started = time.perf_counter()
    for _ in range(iterations):
        admission.admit(queue, priority=100.0)
    admit_rate = iterations / (time.perf_counter() - started)
    if verbose:
        print(f"micro: admission {admit_rate:,.0f}/s")
    return {
        "iterations": iterations,
        "admission_decisions_per_second": admit_rate,
    }


def run(smoke, out_path, verbose=True):
    started = time.perf_counter()
    slices = slice_watchdog_overhead(4 if smoke else 8, verbose)
    micro = mechanism_micro(20_000 if smoke else 200_000, verbose)
    document = {
        "bench": "supervision",
        "cpu_count": os.cpu_count(),
        "slice_watchdog_overhead": slices,
        "micro": micro,
        "elapsed_seconds": time.perf_counter() - started,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    if verbose:
        print(f"wrote {out_path}")
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="overhead of the supervision plane"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: smaller batches",
    )
    parser.add_argument(
        "--out", default="BENCH_supervision.json",
        help="output JSON path (default BENCH_supervision.json)",
    )
    args = parser.parse_args(argv)
    run(args.smoke, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
