"""RESILIENCE — checkpoint overhead and fault-injection smoke.

Two measurements backing ``docs/resilience.md``:

* **Checkpoint overhead** — the set-top case study explored plain vs
  with a CRC-journaled checkpoint file at several cadences; records
  wall clock, snapshot counts and journal size, and verifies the
  checkpointed run returns the identical front.
* **Fault smoke** — seeded synthetic specifications killed at a
  checkpoint boundary and resumed; every resumed run must reproduce
  the uninterrupted fingerprint.  This is the CI smoke job.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke   # CI: 3 seeds, 60s budget
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.casestudies import build_settop_spec, synthetic_spec
from repro.core import explore
from repro.resilience import (
    FaultPlan,
    SimulatedCrash,
    inject,
    resume_explore,
)

#: Checkpoint cadences measured against the plain run.
CADENCES = (1024, 256, 64, 16)


def fingerprint(result):
    """Comparable outcome: everything except wall clock and the
    checkpoint counter (which legitimately differs between a plain and
    a checkpointed run of the same exploration)."""
    stats = {
        k: v
        for k, v in result.stats.as_dict().items()
        if k not in ("elapsed_seconds", "checkpoints_written")
    }
    return (
        [(sorted(p.units), p.cost, p.flexibility) for p in result.points],
        stats,
        result.max_flexibility_bound,
        result.completed,
    )


def timed(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_checkpoint_overhead(tmpdir, repeat, verbose=True):
    spec = build_settop_spec()
    # Untimed: the first run on a spec object compiles it and fills
    # its verdict memo, which every later run here reuses.
    explore(spec)
    plain_seconds, plain = timed(lambda: explore(spec), repeat)
    record = {
        "spec": "settop",
        "plain_seconds": plain_seconds,
        "cadences": {},
        "identical": True,
    }
    for every in CADENCES:
        path = os.path.join(tmpdir, f"settop-{every}.ckpt")

        def run(path=path, every=every):
            if os.path.exists(path):
                os.unlink(path)
            return explore(spec, checkpoint=path, checkpoint_every=every)

        seconds, result = timed(run, repeat)
        exact = fingerprint(result) == fingerprint(plain)
        record["identical"] = record["identical"] and exact
        record["cadences"][str(every)] = {
            "seconds": seconds,
            "overhead": seconds / plain_seconds if plain_seconds else None,
            "checkpoints_written": result.stats.checkpoints_written,
            "journal_bytes": os.path.getsize(path),
            "identical": exact,
        }
        if verbose:
            print(
                f"checkpoint_every={every:5d}: {seconds:.3f}s "
                f"({seconds / plain_seconds:.2f}x of plain "
                f"{plain_seconds:.3f}s), "
                f"{result.stats.checkpoints_written} snapshots, "
                f"{os.path.getsize(path)} bytes, identical={exact}"
            )
    return record


def fault_smoke_one(seed, tmpdir, verbose=True):
    """One seed of the smoke: kill/resume must match the reference."""
    spec = synthetic_spec(n_apps=2, interfaces_per_app=2, alternatives=2,
                          n_procs=2, n_accels=2, seed=seed)
    reference_path = os.path.join(tmpdir, f"smoke-{seed}-ref.ckpt")
    reference = explore(
        spec, checkpoint=reference_path, checkpoint_every=8
    )
    killed_path = os.path.join(tmpdir, f"smoke-{seed}-killed.ckpt")
    crashed = False
    try:
        with inject(FaultPlan(schedule={"checkpoint": {2: "abort"}})):
            explore(spec, checkpoint=killed_path, checkpoint_every=8)
    except SimulatedCrash:
        crashed = True
    resumed = resume_explore(killed_path)
    resume_ok = fingerprint(resumed) == fingerprint(reference)

    record = {
        "seed": seed,
        "design_space": spec.design_space_size(),
        "killed_at_checkpoint": crashed,
        "resume_identical": resume_ok,
    }
    if verbose:
        print(
            f"seed {seed}: killed={crashed} "
            f"kill/resume identical={resume_ok}"
        )
    return record


def run(seeds, repeat, budget_seconds, out_path, verbose=True):
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmpdir:
        overhead = bench_checkpoint_overhead(tmpdir, repeat, verbose)
        smoke = []
        exhausted = False
        for seed in seeds:
            if time.perf_counter() - started > budget_seconds:
                exhausted = True
                if verbose:
                    print(f"budget of {budget_seconds}s reached; "
                          f"stopping after {len(smoke)} seeds")
                break
            smoke.append(fault_smoke_one(seed, tmpdir, verbose))

    all_identical = (
        overhead["identical"]
        and all(r["resume_identical"] for r in smoke)
        and bool(smoke)
    )
    document = {
        "bench": "resilience",
        "cpu_count": os.cpu_count(),
        "repeat": repeat,
        "budget_seconds": budget_seconds,
        "budget_exhausted": exhausted,
        "checkpoint_overhead": overhead,
        "fault_smoke": smoke,
        "all_identical": all_identical,
        "elapsed_seconds": time.perf_counter() - started,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    if verbose:
        print(f"\nall_identical={all_identical}; wrote {out_path}")
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="checkpoint overhead + fault-injection smoke"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 3 seeds, one timed repetition, 60s budget",
    )
    parser.add_argument(
        "--seeds", type=int, default=None,
        help="number of fault-smoke seeds (default: 3 smoke, 10 full)",
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="wall-clock budget in seconds (default: 60 smoke, 600 full)",
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="timed repetitions per overhead configuration (best-of)",
    )
    parser.add_argument(
        "--out", default="BENCH_resilience.json",
        help="output JSON path (default BENCH_resilience.json)",
    )
    args = parser.parse_args(argv)
    seeds = range(args.seeds if args.seeds is not None
                  else (3 if args.smoke else 10))
    budget = args.budget if args.budget is not None \
        else (60.0 if args.smoke else 600.0)
    repeat = args.repeat if args.repeat is not None \
        else (1 if args.smoke else 3)
    document = run(seeds, repeat, budget, args.out)
    # Exactness under faults is a hard requirement; timing is informational.
    return 0 if document["all_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
