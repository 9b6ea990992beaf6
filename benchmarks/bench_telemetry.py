"""TELEMETRY — the price of the observation plane.

The telemetry plane lives strictly on the wall-clock side of the
determinism seam, so it must satisfy two claims at once:

* **Exactness** — a run with full telemetry attached (resource
  sampler + phase profiler + metric registry) produces a result
  document byte-identical to an unobserved run.
* **Cheapness** — the end-to-end overhead of full telemetry on the
  settop case study stays within :data:`OVERHEAD_BUDGET` (5%) on a
  plain run; a budgeted, checkpointed run (the route of service
  slices) is measured too.

Plus mechanism microbenchmarks: raw counter increments, histogram
observations, phase charges, and whole-process resource snapshots
per second.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry.py           # full
    PYTHONPATH=src python benchmarks/bench_telemetry.py --smoke   # CI
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
from repro.io.result_io import result_to_dict
from repro.telemetry import MetricRegistry, ResourceSampler, Telemetry

#: The acceptance budget: full telemetry may cost at most this
#: fraction of the unobserved end-to-end wall clock.
OVERHEAD_BUDGET = 0.05


def result_doc(result):
    document = result_to_dict(result)
    document.get("stats", {}).pop("elapsed_seconds", None)
    # The cache section is wall-clock diagnostics (hit/miss counts
    # vary with store temperature), outside the determinism claim.
    document.pop("cache", None)
    return json.dumps(document, sort_keys=True)


def budgeted(spec, **options):
    """``explore()`` under a deadline with a checkpoint journal."""
    with tempfile.TemporaryDirectory() as directory:
        return explore(
            spec,
            deadline_seconds=1e9,
            checkpoint=os.path.join(directory, "run.ckpt"),
            **options,
        )


def end_to_end(spec, repeat, batched, verbose):
    """Best-of-``repeat`` settop wall clock, telemetry off vs on; a
    plain run, or a budgeted, checkpointed one when ``batched``."""
    run = budgeted if batched else explore
    label = "budgeted" if batched else "serial"
    baseline = observed = None
    docs_identical = True
    phases = {}
    for _ in range(repeat):
        started = time.perf_counter()
        off = run(spec, engine="compiled")
        off_elapsed = time.perf_counter() - started

        telemetry = Telemetry()
        started = time.perf_counter()
        on = run(spec, engine="compiled", telemetry=telemetry)
        on_elapsed = time.perf_counter() - started
        telemetry.sample()

        docs_identical = docs_identical and (
            result_doc(off) == result_doc(on)
        )
        baseline = min(off_elapsed, baseline or off_elapsed)
        observed = min(on_elapsed, observed or on_elapsed)
        phases = telemetry.phase_totals()
    overhead = (observed - baseline) / baseline
    if verbose:
        print(
            f"settop {label}: {baseline:.3f}s off, {observed:.3f}s on "
            f"-> overhead {overhead * 100:+.1f}% "
            f"(budget {OVERHEAD_BUDGET * 100:.0f}%); phases "
            + ", ".join(
                f"{name}={totals['calls']}" for name, totals
                in sorted(phases.items())
            )
        )
    return {
        "case": "settop",
        "path": label,
        "repeat": repeat,
        "baseline_seconds": baseline,
        "observed_seconds": observed,
        "overhead_fraction": overhead,
        "budget_fraction": OVERHEAD_BUDGET,
        "within_budget": overhead <= OVERHEAD_BUDGET,
        "identical": docs_identical,
        "phase_calls": {
            name: totals["calls"] for name, totals in phases.items()
        },
    }


def mechanism_micro(iterations, verbose):
    """ops/s of the telemetry primitives themselves."""
    registry = MetricRegistry()
    counter = registry.counter("repro_bench_ops_total", "bench")
    started = time.perf_counter()
    for _ in range(iterations):
        counter.inc()
    inc_rate = iterations / (time.perf_counter() - started)

    histogram = registry.histogram(
        "repro_bench_seconds", "bench", (0.001, 0.01, 0.1, 1.0)
    )
    started = time.perf_counter()
    for i in range(iterations):
        histogram.observe(0.0005 * (i % 7))
    observe_rate = iterations / (time.perf_counter() - started)

    telemetry = Telemetry()
    started = time.perf_counter()
    for i in range(iterations):
        telemetry.profiler.charge("bench", 0.0001)
    charge_rate = iterations / (time.perf_counter() - started)

    sampler = ResourceSampler()
    samples = max(100, iterations // 100)
    started = time.perf_counter()
    for _ in range(samples):
        sampler.snapshot()
    sample_rate = samples / (time.perf_counter() - started)
    if verbose:
        print(
            f"micro: counter inc {inc_rate:,.0f}/s, observe "
            f"{observe_rate:,.0f}/s, phase charge {charge_rate:,.0f}/s, "
            f"resource snapshot {sample_rate:,.0f}/s"
        )
    return {
        "iterations": iterations,
        "counter_incs_per_second": inc_rate,
        "histogram_observes_per_second": observe_rate,
        "phase_charges_per_second": charge_rate,
        "resource_snapshots_per_second": sample_rate,
    }


def run(repeat, smoke, out_path, verbose=True):
    started = time.perf_counter()
    spec = build_settop_spec()
    serial = end_to_end(spec, repeat, batched=False, verbose=verbose)
    batched = end_to_end(spec, repeat, batched=True, verbose=verbose)
    micro = mechanism_micro(20_000 if smoke else 200_000, verbose)
    document = {
        "bench": "telemetry",
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "serial": serial,
        "batched": batched,
        "micro": micro,
        "elapsed_seconds": time.perf_counter() - started,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    if verbose:
        print(
            f"identical={serial['identical'] and batched['identical']} "
            f"within_budget={serial['within_budget']}; wrote {out_path}"
        )
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="overhead of the telemetry plane"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: fewer repetitions, smaller microbenchmarks",
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="timed repetitions, best-of (default: 5; smoke 2)",
    )
    parser.add_argument(
        "--out", default="BENCH_telemetry.json",
        help="output JSON path (default BENCH_telemetry.json)",
    )
    args = parser.parse_args(argv)
    repeat = args.repeat if args.repeat is not None else (
        2 if args.smoke else 5
    )
    document = run(repeat, args.smoke, args.out)
    # Byte-identity with telemetry attached is the hard requirement;
    # the serial overhead budget is the headline claim.  (The
    # budgeted route, kept under the "batched" key of the document,
    # reports its overhead but does not gate on it.)
    serial, batched = document["serial"], document["batched"]
    ok = (
        serial["identical"] and batched["identical"]
        and serial["within_budget"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
