"""KERNEL — compiled candidate-evaluation engine vs the reference.

Runs the paper's case studies (set-top box, automotive body network)
and the scalability-suite synthetic specifications through both
evaluation engines, verifies the *identical* Pareto front and
statistics (the differential guarantee of :mod:`repro.compiled`), and
records wall clock, candidates/second and the per-phase breakdown
(enumerate / filter / estimate / evaluate / binding / timing /
pareto, from the tracer's phase accounting) to
``BENCH_kernel.json``.

When numpy is importable the compiled engine runs its block-vectorized
kernel (:mod:`repro.compiled.batch`); each record then also carries a
warm scalar-vs-vectorized comparison (hiding numpy from
:mod:`repro.compiled.batch` forces the pure-stdlib scalar kernel on
the same spec) and the full run asserts
the vectorized kernel's >= 3x target on the "large" synthetic.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py           # full
    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke   # CI smoke

The full run asserts the compiled engine's headline target: >= 3x
end-to-end on the "large" synthetic specification.  The smoke run
covers both case studies only and asserts front equality plus a
conservative candidates/second floor.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from repro.casestudies import (
    build_automotive_spec,
    build_settop_spec,
    synthetic_spec,
)
from repro.compiled import batch
from repro.compiled.batch import active_numpy, numpy_version
from repro.core import explore
from repro.report import format_table
from repro.trace import Tracer

#: (label, spec factory) — the case studies plus the scalability suite.
CASE_STUDIES = [
    ("settop", build_settop_spec),
    ("automotive", build_automotive_spec),
]

SIZES = [
    ("tiny", dict(n_apps=2, interfaces_per_app=1, alternatives=2,
                  n_procs=2, n_accels=2)),
    ("small", dict(n_apps=3, interfaces_per_app=2, alternatives=3,
                   n_procs=2, n_accels=3)),
    ("medium", dict(n_apps=4, interfaces_per_app=2, alternatives=3,
                    n_procs=2, n_accels=4)),
    ("large", dict(n_apps=4, interfaces_per_app=3, alternatives=4,
                   n_procs=2, n_accels=5)),
]

#: The engine phases reported from the tracer's phase accounting.
#: "enumerate" is candidate-stream production (heap pulls or the
#: materialized block order), "filter" the block mask checks,
#: "estimate" the pruning bound, "evaluate" the full per-candidate
#: evaluation ("binding" and "timing" are its solver / schedule-test
#: shares) and "pareto" the final front pass.  Whatever wall clock
#: remains unattributed is reported as "other".
PHASES = (
    "enumerate", "filter", "estimate", "evaluate", "binding", "timing",
    "pareto",
)

#: The phases that partition the elapsed wall clock ("binding" and
#: "timing" are sub-shares of "evaluate" and must not be double
#: counted when computing the unattributed "other" remainder).
TOP_PHASES = (
    "enumerate", "filter", "estimate", "evaluate", "pareto",
)

#: Conservative smoke-mode floor on the compiled engine's end-to-end
#: enumeration rate (candidates/second) on the set-top case study.
#: Measured rates are two orders of magnitude above this on commodity
#: hardware; the floor only catches catastrophic regressions.
SMOKE_CANDIDATES_PER_SECOND_FLOOR = 500.0

#: Full-run requirement: compiled end-to-end speedup on "large".
LARGE_SPEEDUP_TARGET = 3.0

#: Full-run requirement when numpy is importable: warm end-to-end
#: speedup of the block-vectorized kernel over the scalar compiled
#: kernel on the "large" synthetic.
VECTORIZED_SPEEDUP_TARGET = 3.0


@contextlib.contextmanager
def _vectorize(enabled):
    """Force the block kernel off (``False``) by hiding numpy from
    :mod:`repro.compiled.batch`; ``None`` or ``True`` leaves it on."""
    numpy = batch._np
    if enabled is False:
        batch._np = None
    try:
        yield
    finally:
        batch._np = numpy


def fingerprint(result):
    """Comparable exploration outcome (everything but wall-clock)."""
    stats = {
        k: v
        for k, v in result.stats.as_dict().items()
        if k != "elapsed_seconds"
    }
    return (
        [
            (sorted(p.units), p.cost, p.flexibility, sorted(p.clusters))
            for p in result.points
        ],
        stats,
        result.max_flexibility_bound,
    )


def timed_explore(spec, repeat, **kw):
    """Best-of-``repeat`` wall clock plus the (identical) result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = explore(spec, **kw)
        best = min(best, time.perf_counter() - start)
    return best, result


def phase_seconds(spec, engine, vectorize=None):
    """Per-phase wall-clock of one traced run (tracer overhead is the
    same for both engines, so phase *ratios* stay meaningful)."""
    tracer = Tracer(level="spans")
    with _vectorize(vectorize):
        start = time.perf_counter()
        explore(spec, engine=engine, tracer=tracer)
        elapsed = time.perf_counter() - start
    seconds = {
        phase: totals[1]
        for phase, totals in tracer.phase_totals.items()
        if phase in PHASES
    }
    accounted = sum(seconds.get(phase, 0.0) for phase in TOP_PHASES)
    seconds["other"] = max(0.0, elapsed - accounted)
    seconds["other_share"] = seconds["other"] / elapsed if elapsed else 0.0
    return seconds


def bench_spec(label, spec_factory, repeat, with_phases=True):
    spec = spec_factory()
    reference_time, reference = timed_explore(
        spec, repeat, engine="reference"
    )
    compiled_time, compiled = timed_explore(spec, repeat, engine="compiled")
    identical = fingerprint(compiled) == fingerprint(reference)
    candidates = compiled.stats.candidates_enumerated
    record = {
        "vectorized": active_numpy() is not None,
        "spec": label,
        "units": len(spec.units),
        "design_space": spec.design_space_size(),
        "candidates": candidates,
        "front": [list(point) for point in compiled.front()],
        "identical": identical,
        "reference_seconds": reference_time,
        "compiled_seconds": compiled_time,
        "speedup": (
            reference_time / compiled_time if compiled_time > 0 else None
        ),
        "reference_candidates_per_second": (
            candidates / reference_time if reference_time > 0 else None
        ),
        "compiled_candidates_per_second": (
            candidates / compiled_time if compiled_time > 0 else None
        ),
    }
    if active_numpy() is not None:
        # Warm scalar-vs-vectorized comparison on the *same* compiled
        # spec: best-of-two so both kernels are measured with hot
        # memo caches, isolating the block kernel itself.
        kernel_repeat = max(repeat, 2)
        with _vectorize(False):
            scalar_time, scalar = timed_explore(
                spec, kernel_repeat, engine="compiled"
            )
        with _vectorize(True):
            vector_time, vector = timed_explore(
                spec, kernel_repeat, engine="compiled"
            )
        identical = (
            identical
            and fingerprint(scalar) == fingerprint(reference)
            and fingerprint(vector) == fingerprint(reference)
        )
        record["identical"] = identical
        record["scalar_compiled_seconds"] = scalar_time
        record["vectorized_compiled_seconds"] = vector_time
        record["vectorized_speedup"] = (
            scalar_time / vector_time if vector_time > 0 else None
        )
    if with_phases:
        reference_phases = phase_seconds(spec, "reference")
        compiled_phases = phase_seconds(spec, "compiled")
        record["phases"] = {
            phase: {
                "reference_seconds": reference_phases.get(phase, 0.0),
                "compiled_seconds": compiled_phases.get(phase, 0.0),
                "speedup": (
                    reference_phases.get(phase, 0.0)
                    / compiled_phases[phase]
                    if compiled_phases.get(phase) else None
                ),
            }
            for phase in PHASES + ("other",)
            if phase in reference_phases or phase in compiled_phases
        }
        record["compiled_other_share"] = compiled_phases.get(
            "other_share", 0.0
        )
        if active_numpy() is not None:
            scalar_phases = phase_seconds(spec, "compiled", vectorize=False)
            record["scalar_other_share"] = scalar_phases.get(
                "other_share", 0.0
            )
    return record


def run(smoke, repeat, out_path, verbose=True):
    specs = list(CASE_STUDIES)
    if not smoke:
        specs += [
            (label, lambda kw=kwargs: synthetic_spec(**kw))
            for label, kwargs in SIZES
        ]
    records = []
    for label, factory in specs:
        record = bench_spec(label, factory, repeat, with_phases=not smoke)
        records.append(record)
        if verbose:
            vec = record.get("vectorized_speedup")
            print(
                f"{label:10s} reference {record['reference_seconds']:.3f}s"
                f" | compiled {record['compiled_seconds']:.3f}s"
                f" ({record['speedup']:.2f}x)"
                + (f" | vectorized {vec:.2f}x" if vec is not None else "")
                + f" | {record['compiled_candidates_per_second']:.0f}"
                f" cand/s | identical={record['identical']}"
            )

    document = {
        "bench": "kernel",
        "cpu_count": os.cpu_count(),
        "numpy": {
            "present": numpy_version() is not None,
            "version": numpy_version(),
            "vectorized": active_numpy() is not None,
        },
        "smoke": smoke,
        "repeat": repeat,
        "all_identical": all(r["identical"] for r in records),
        "results": records,
    }
    failures = []
    if not document["all_identical"]:
        failures.append(
            "ENGINES DIVERGED: "
            + ", ".join(r["spec"] for r in records if not r["identical"])
        )
    if smoke:
        settop = next(r for r in records if r["spec"] == "settop")
        rate = settop["compiled_candidates_per_second"]
        if rate < SMOKE_CANDIDATES_PER_SECOND_FLOOR:
            failures.append(
                f"compiled settop rate {rate:.0f} cand/s below the "
                f"{SMOKE_CANDIDATES_PER_SECOND_FLOOR:.0f} floor"
            )
    else:
        large = next((r for r in records if r["spec"] == "large"), None)
        if large is not None and large["speedup"] < LARGE_SPEEDUP_TARGET:
            failures.append(
                f"large speedup {large['speedup']:.2f}x below the "
                f"{LARGE_SPEEDUP_TARGET:.1f}x target"
            )
        if large is not None and large.get("vectorized_speedup") is not None:
            if large["vectorized_speedup"] < VECTORIZED_SPEEDUP_TARGET:
                failures.append(
                    f"large vectorized speedup "
                    f"{large['vectorized_speedup']:.2f}x below the "
                    f"{VECTORIZED_SPEEDUP_TARGET:.1f}x target"
                )
    document["failures"] = failures
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    if verbose:
        rows = [
            [
                r["spec"],
                str(r["units"]),
                f"{r['reference_seconds']:.3f}s",
                f"{r['compiled_seconds']:.3f}s",
                f"{r['speedup']:.2f}x",
                f"{r['compiled_candidates_per_second']:.0f}/s",
                "yes" if r["identical"] else "NO",
            ]
            for r in records
        ]
        print()
        print(
            format_table(
                [
                    "spec", "units", "reference", "compiled",
                    "speedup", "cand/s", "identical",
                ],
                rows,
            )
        )
        for failure in failures:
            print(f"FAIL: {failure}")
        print(f"\nwrote {out_path}")
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compiled vs reference evaluation-engine benchmark"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=(
            "CI smoke: both case studies only, assert front equality "
            "and the candidates/second floor"
        ),
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="timed repetitions per configuration (best-of)",
    )
    parser.add_argument(
        "--out", default="BENCH_kernel.json",
        help="output JSON path (default BENCH_kernel.json)",
    )
    args = parser.parse_args(argv)
    repeat = args.repeat if args.repeat is not None else (
        2 if args.smoke else 1
    )
    document = run(args.smoke, repeat, args.out)
    return 1 if document["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
