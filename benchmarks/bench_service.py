"""SERVICE — job throughput, queue waits, and preemption overhead.

Measurements backing ``docs/service.md``:

* **Concurrency sweep** — 1/4/16 concurrent jobs drained through one
  service: job throughput plus p50/p99 queue-wait estimated
  from the service's own ``repro_wait_seconds`` histogram.  Every
  front is verified fingerprint-identical to a solo ``explore()``.
* **Preemption overhead** — the set-top case study run solo in one
  slice vs chopped into many checkpoint-preempted slices; reports the
  extra wall clock per preemption (journal write + replay resume).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py           # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke   # CI sizing
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.casestudies import build_settop_spec
from repro.core import explore
from repro.service import ExplorationService

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from randspec import random_spec  # noqa: E402

#: Concurrent-job counts of the sweep.
JOB_COUNTS = (1, 4, 16)


def fingerprint(result):
    return (
        [(sorted(p.units), p.cost, p.flexibility) for p in result.points],
        result.max_flexibility_bound,
    )


def sweep_point(n_jobs, slice_evaluations):
    """Drain ``n_jobs`` seeded jobs; return throughput + wait stats."""
    specs = [random_spec(seed) for seed in range(n_jobs)]
    with tempfile.TemporaryDirectory() as directory:
        service = ExplorationService(
            directory, slice_evaluations=slice_evaluations
        )
        started = time.perf_counter()
        jobs = [service.submit(spec) for spec in specs]
        slices = service.run()
        elapsed = time.perf_counter() - started
        waits = service.metrics.get("repro_wait_seconds")
        identical = all(
            job.state == "completed"
            and fingerprint(job.result) == fingerprint(explore(spec))
            for job, spec in zip(jobs, specs)
        )
        preemptions = service.metrics.get("repro_preemptions_total").value
        evaluations = service.metrics.get("repro_evaluations_total").value
        service.close()
    return {
        "jobs": n_jobs,
        "slices": slices,
        "preemptions": preemptions,
        "evaluations": evaluations,
        "elapsed_seconds": elapsed,
        "jobs_per_second": n_jobs / elapsed if elapsed > 0 else None,
        "wait_p50_seconds": waits.quantile(0.5),
        "wait_p99_seconds": waits.quantile(0.99),
        "wait_mean_seconds": waits.sum / waits.count if waits.count else 0.0,
        "identical": identical,
    }


def preemption_overhead(slice_evaluations, repeat):
    """Extra wall clock per checkpoint-preemption on the set-top job."""
    spec = build_settop_spec()

    def drain(slice_budget):
        best = None
        for _ in range(repeat):
            with tempfile.TemporaryDirectory() as directory:
                service = ExplorationService(
                    directory, slice_evaluations=slice_budget
                )
                started = time.perf_counter()
                job = service.submit(spec)
                service.run()
                elapsed = time.perf_counter() - started
                assert job.state == "completed"
                preemptions = job.preemptions
                service.close()
            if best is None or elapsed < best[0]:
                best = (elapsed, preemptions)
        return best

    solo_elapsed, solo_preemptions = drain(10_000)
    sliced_elapsed, sliced_preemptions = drain(slice_evaluations)
    extra = sliced_preemptions - solo_preemptions
    return {
        "slice_evaluations": slice_evaluations,
        "solo_elapsed_seconds": solo_elapsed,
        "sliced_elapsed_seconds": sliced_elapsed,
        "preemptions": sliced_preemptions,
        "overhead_per_preemption_seconds": (
            (sliced_elapsed - solo_elapsed) / extra if extra > 0 else None
        ),
    }


def run(job_counts, slice_evaluations, repeat, out_path, verbose=True):
    started = time.perf_counter()
    sweep = []
    for n_jobs in job_counts:
        point = sweep_point(n_jobs, slice_evaluations)
        sweep.append(point)
        if verbose:
            print(
                f"jobs={n_jobs:3d}: {point['jobs_per_second']:.1f} jobs/s, "
                f"wait p50={point['wait_p50_seconds']:g}s "
                f"p99={point['wait_p99_seconds']:g}s, "
                f"preemptions={point['preemptions']:g}, "
                f"identical={point['identical']}"
            )
    overhead = preemption_overhead(slice_evaluations, repeat)
    if verbose and overhead["overhead_per_preemption_seconds"] is not None:
        print(
            f"preemption overhead: "
            f"{overhead['overhead_per_preemption_seconds'] * 1000:.2f} ms "
            f"per slice ({overhead['preemptions']:g} preemptions)"
        )
    all_identical = all(point["identical"] for point in sweep)
    document = {
        "bench": "service",
        "cpu_count": os.cpu_count(),
        "slice_evaluations": slice_evaluations,
        "sweep": sweep,
        "preemption_overhead": overhead,
        "all_identical": all_identical,
        "elapsed_seconds": time.perf_counter() - started,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    if verbose:
        print(f"all_identical={all_identical}; wrote {out_path}")
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="service throughput, waits, preemption overhead"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: fewer slices of the preemption comparison",
    )
    parser.add_argument(
        "--slice-evaluations", type=int, default=None,
        help="slice budget for the sweep (default: 8; smoke 16)",
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="timed repetitions, best-of (default: 3; smoke 1)",
    )
    parser.add_argument(
        "--out", default="BENCH_service.json",
        help="output JSON path (default BENCH_service.json)",
    )
    args = parser.parse_args(argv)
    slice_evaluations = (
        args.slice_evaluations
        if args.slice_evaluations is not None
        else (16 if args.smoke else 8)
    )
    repeat = args.repeat if args.repeat is not None else (
        1 if args.smoke else 3
    )
    document = run(JOB_COUNTS, slice_evaluations, repeat, args.out)
    # Exactness under multiplexing is the hard requirement.
    return 0 if document["all_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
