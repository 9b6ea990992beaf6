"""EXPLORE benchmark: end-to-end metrics, or per-layer ones from a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload cold-explore --seed 0 --seconds 30 --trace 0

``--trace 0`` runs the workload's closed loop for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` runs the same untraced
loop, then the first ops again with the layers' entry points wrapped
(``layers.py``), and prints the per-layer metrics.  Every op's result
is checked against the reference engine (``oracle.py``).  The last
line of standard output is one JSON object; spans and per-op figures
go to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Ops re-run with tracing on (fewer when the untraced run made fewer).
TRACE_OPS = 50
#: Set-up repetitions, each in a fresh interpreter.
SETUP_PROBES = 7
#: Environment variables that select a non-default kernel path.
GUARDED_ENV = ("REPRO_VECTORIZE", "REPRO_MATERIALIZE")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    """Non-blank lines of ``src/**/*.py`` (metadata, not a metric)."""
    count = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as f:
                    count += sum(1 for line in f if line.strip())
    return count


def environment():
    import platform

    from repro.compiled import active_numpy, numpy_version

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "active_numpy": active_numpy() is not None,
        "git_commit": git_commit(),
        "src_nonblank_lines": src_lines(),
    }


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, tag: str) -> None:
        self.path = os.path.join(OUT_DIR, f"work-{os.getpid()}-{tag}")

    def __enter__(self) -> str:
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def setup_probe(workload, seed: int) -> dict:
    """One set-up in this (fresh) process, timed from interpreter
    start-up of this script: imports, inputs, construction, warm-up."""
    with Workdir("probe") as workdir:
        inputs = workload.inputs(seed)
        workload.setup(inputs, workdir)
        elapsed = time.perf_counter() - T_START
    return {"setup_s": elapsed}


def measure_setup(name: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def run_pass(workload, inputs, tag, seconds=None, count=None, tracer=None,
             api=None):
    """Set up and drive; tracing (if any) covers only the drive."""
    from layers import install, uninstall

    with Workdir(tag) as workdir:
        state = workload.setup(inputs, workdir)
        saved = install(tracer, api) if tracer is not None else None
        try:
            ops, wall = workload.drive(state, inputs, seconds=seconds,
                                       count=count, tracer=tracer)
        finally:
            if saved is not None:
                uninstall(saved)
    return ops, wall


def check_ops(workload, oracle, inputs, ops, tag) -> list:
    """``(tag, seq, why)`` for every op whose output is wrong."""
    problems = []
    for op in ops:
        inp = inputs[op.input_index]
        why = op.error
        if why is None:
            why = oracle.check(inp, op.result)
        if why is None:
            why = workload.check_op(op)
        if why is not None:
            problems.append((tag, op.seq, f"{inp.label}: {why}"))
    return problems


def nearest_rank(values, share: float) -> float:
    """The ``share`` quantile of ``values`` by nearest rank: a value
    that occurred, never one interpolated between or beyond them."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)), 1) - 1]


def quiet_latencies(ops) -> dict:
    """``input_index -> (5th-percentile op seconds, candidates)``.

    A shared host has slow phases, seconds to minutes long, in which
    every op of every input runs up to twice as long.  They cover a
    different share of each run, so whole-run means and tails measure
    the host as much as the program.  Host load only ever adds time, so
    an input's fastest ops show the program on a quiet host as long as
    any stretch of the run is quiet.  The 5th percentile rather than
    the minimum keeps the figure independent of how many ops a run
    holds.  Taking it per input keeps the workload's input mix.
    """
    seconds, candidates = {}, {}
    for op in ops:
        seconds.setdefault(op.input_index, []).append(op.seconds)
        if op.result is not None:
            candidates[op.input_index] = (
                op.result["stats"]["candidates_enumerated"])
    return {i: (nearest_rank(s, 0.05), candidates.get(i, 0))
            for i, s in seconds.items()}


def path_guard(untraced, traced) -> list:
    """The traced ops must reproduce the untraced ones exactly."""
    problems = []
    for op, base in zip(traced, untraced):
        if op.result != base.result or op.cache != base.cache:
            problems.append((
                "traced", op.seq,
                "result or counters differ from the untraced run",
            ))
    return problems


def main(argv=None) -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    guarded = sorted(k for k in os.environ if k.startswith(GUARDED_ENV))
    if guarded:
        return fail(f"refusing to run with {', '.join(guarded)} set: the "
                    f"numbers must describe the default code path")
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        return fail(f"cannot import repro from {src}: {error}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        return fail(f"repro was imported from {repro.__file__}, not {src}")
    from workloads import API, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps(setup_probe(workload, args.seed)))
        return 0

    from layers import Tracer, layer_metrics, span_dump
    from oracle import Oracle

    env = environment()
    print("env:", json.dumps(env, sort_keys=True))
    setups = measure_setup(workload.name, args.seed)
    inputs = workload.inputs(args.seed)
    ops, wall = run_pass(workload, inputs, "timed", seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        traced, traced_wall = run_pass(workload, inputs, "traced",
                                       count=min(TRACE_OPS, len(ops)),
                                       tracer=tracer, api=API)

    # Expectations off the clock: committed for the default seed,
    # reference-engine runs for any other input.
    oracle = Oracle(workload.name, ROOT)
    problems = check_ops(workload, oracle, inputs, ops, "timed")
    problems += check_ops(workload, oracle, inputs, traced, "traced")
    problems += path_guard(ops, traced)
    attempted = len(ops) + len(traced)
    failed = len({(tag, seq) for tag, seq, _ in problems})
    for tag, seq, why in problems[:20]:
        print(f"FAIL {tag} op {seq}: {why}")

    quiet = quiet_latencies(ops)
    quiet_candidates = sum(candidates for _, candidates in quiet.values())
    quiet_seconds = sum(seconds for seconds, _ in quiet.values())
    end_to_end = {
        "setup_s": statistics.median(setups),
        "explore_s_p05": quiet_seconds / len(quiet),
        "candidates_per_s": quiet_candidates / quiet_seconds,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    # Whole-run figures: printed and saved, not gated (README.md says why).
    seconds = sorted(op.seconds for op in ops)
    whole_run = {
        "explore_s_mean": statistics.fmean(seconds),
        "explore_s_p50": statistics.median(seconds),
        "explore_s_p90": nearest_rank(seconds, 0.9),
        "explorations_per_s": sum(1 for op in ops if op.error is None) / wall,
        "candidates_per_s": sum(op.result["stats"]["candidates_enumerated"]
                                for op in ops if op.result) / wall,
    }
    above_p90 = len(seconds) - math.ceil(0.9 * len(seconds))
    print(f"{workload.name} seed={args.seed}: {len(ops)} ops in {wall:.3f} s "
          f"(p90 has {above_p90} samples above it), "
          f"{oracle.computed} expectations computed, "
          f"set-up probes {[round(s, 4) for s in setups]}")
    print("whole run:", ", ".join(f"{k} {v:.6g}" for k, v in whole_run.items()))

    if args.trace:
        layer = layer_metrics(tracer, traced)
        layer["trace.overhead_ratio"] = statistics.median(
            op.seconds for op in traced
        ) / statistics.median(op.seconds for op in ops[:len(traced)])
        covered = sum(row["self"] for name, row in tracer.layers.items()
                      if name != "bench.op")
        print(f"traced {len(traced)} ops in {traced_wall:.3f} s: layer self "
              f"times cover {covered / traced_wall:.4f} of it")
        wanted = manifest["per_layer"]
        values = layer
    else:
        wanted = manifest["end_to_end"]
        values = end_to_end
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<30} {value:.6g} {metric['unit']}")

    os.makedirs(OUT_DIR, exist_ok=True)
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": env, "end_to_end": end_to_end, "whole_run": whole_run,
        "metrics": metrics,
        "op_seconds": [op.seconds for op in ops], "problems": problems,
    }
    if tracer is not None:
        report["trace_spans"] = span_dump(tracer)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as f:
        json.dump(report, f, default=str)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
