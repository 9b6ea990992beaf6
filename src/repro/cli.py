"""Command-line interface.

Exposes the library's main workflows on specification-graph JSON files
(see :mod:`repro.io.json_io` for the format)::

    python -m repro demo settop --save settop.json   # export a case study
    python -m repro lint settop.json                 # diagnostics
    python -m repro table settop.json                # Table-1 style mappings
    python -m repro explore settop.json --plot       # Pareto front
    python -m repro upgrade settop.json --base muP2  # incremental design
    python -m repro synth --apps 3 --save synth.json # synthetic generator
    python -m repro dot settop.json > settop.dot     # Graphviz export

the introspection toolchain (:mod:`repro.trace`)::

    python -m repro explore settop.json --trace t.jsonl  # record a trace
    python -m repro explain t.jsonl --tree               # render it
    python -m repro trace settop.json --chrome t.json    # both in one step

and the exploration service (:mod:`repro.service`)::

    python -m repro submit run/ settop.json          # spool a job
    python -m repro serve run/                       # drain the queue
    python -m repro jobs run/                        # list jobs
    python -m repro watch run/ j0000 --follow        # stream job events

and the telemetry plane (:mod:`repro.telemetry`)::

    python -m repro top run/                         # live dashboard
    python -m repro telemetry dump run/ --format prometheus
    python -m repro telemetry diff before/ after/    # per-series deltas
    python -m repro cache stats store/ --format prometheus
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from typing import List, Optional

from . import __version__
from .casestudies import (
    TABLE1_PROCESS_ORDER,
    TABLE1_RESOURCE_ORDER,
    build_settop_spec,
    build_tv_decoder_spec,
    synthetic_spec,
)
from .core import explore, explore_upgrades, max_flexibility
from .errors import OverloadedError, ReproError
from .io import (
    dump_result,
    dump_spec,
    load_spec,
    result_to_csv,
    spec_to_dot,
)
from .report import mapping_table, pareto_table, stats_table, tradeoff_plot
from .spec import ERROR, lint_specification

#: Exit codes.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LINT = 2
#: ``explore`` ended on an anytime budget (--deadline/--max-evaluations):
#: the printed front is valid but possibly incomplete (see the gap line).
EXIT_TRUNCATED = 3
#: A submission was refused by admission control (the service queue is
#: full under --max-queued): back off and resubmit.
EXIT_OVERLOADED = 4


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Flexibility/cost design-space exploration "
            "(reproduction of 'System Design for Flexibility', DATE 2002)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr (-v: info, -vv: debug)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="explicit stderr log level (overrides -v)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser(
        "demo", help="build a bundled case study, print a summary"
    )
    demo.add_argument(
        "name", choices=("settop", "tv"), help="which case study"
    )
    demo.add_argument("--save", metavar="FILE", help="write the spec JSON")

    synth = commands.add_parser(
        "synth", help="generate a synthetic specification"
    )
    synth.add_argument("--apps", type=int, default=3)
    synth.add_argument("--interfaces", type=int, default=2)
    synth.add_argument("--alternatives", type=int, default=3)
    synth.add_argument("--procs", type=int, default=2)
    synth.add_argument("--accels", type=int, default=3)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--save", metavar="FILE", help="write the spec JSON")

    lint = commands.add_parser(
        "lint", help="diagnose a specification (exit 2 on errors)"
    )
    lint.add_argument("spec", help="specification JSON file")

    table = commands.add_parser(
        "table", help="print the mapping table (Table-1 style)"
    )
    table.add_argument("spec", help="specification JSON file")

    dot = commands.add_parser("dot", help="print Graphviz DOT")
    dot.add_argument("spec", help="specification JSON file")

    explore_cmd = commands.add_parser(
        "explore",
        help="run the EXPLORE branch-and-bound",
        description=(
            "Run the EXPLORE branch-and-bound.  Exits 0 on a complete "
            "run and 3 when --deadline/--max-evaluations truncated it "
            "(the front is then best-so-far with an explicit optimality "
            "gap).  A run started with --checkpoint can be continued "
            "after a crash with --resume."
        ),
    )
    explore_cmd.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="specification JSON file (omit with --resume)",
    )
    explore_cmd.add_argument(
        "--util-bound", type=float, default=0.69,
        help="utilisation acceptance bound (default 0.69)",
    )
    explore_cmd.add_argument(
        "--max-cost", type=float, default=None,
        help="stop at this allocation cost",
    )
    explore_cmd.add_argument(
        "--keep-ties", action="store_true",
        help="report equally-optimal allocations of the same cost",
    )
    explore_cmd.add_argument(
        "--no-timing", action="store_true",
        help="skip the utilisation test",
    )
    explore_cmd.add_argument(
        "--timing-mode", choices=("utilization", "schedule", "none"),
        default=None,
        help=(
            "performance test: the paper's 69%% estimate (default), "
            "exact one-period scheduling, or none"
        ),
    )
    explore_cmd.add_argument(
        "--engine", choices=("compiled", "reference"), default=None,
        help=(
            "candidate-evaluation engine: the compiled bitmask kernel "
            "(default) or the reference pipeline; identical results "
            "either way (see docs/performance.md)"
        ),
    )
    explore_cmd.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "anytime wall-clock budget: stop gracefully after this many "
            "seconds with the best-so-far front and an optimality gap "
            "(exit code 3 when truncated)"
        ),
    )
    explore_cmd.add_argument(
        "--max-evaluations", type=int, default=None, metavar="N",
        help=(
            "anytime budget on full candidate evaluations (binding "
            "solver runs); exit code 3 when truncated"
        ),
    )
    explore_cmd.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help=(
            "journal snapshots of the search to FILE so a killed run "
            "can be continued with --resume FILE"
        ),
    )
    explore_cmd.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="candidates between fsync'd snapshots (default 64)",
    )
    explore_cmd.add_argument(
        "--resume", metavar="FILE", default=None,
        help=(
            "continue a checkpointed run from FILE (the spec argument "
            "must be omitted; the journal is self-contained)"
        ),
    )
    explore_cmd.add_argument(
        "--warm-store", metavar="DIR", default=None,
        help=(
            "persistent warm-start store: reuse binding verdicts "
            "recorded by earlier runs in DIR and record this run's "
            "(results are byte-identical either way; see 'repro cache' "
            "and docs/performance.md)"
        ),
    )
    explore_cmd.add_argument(
        "--plot", action="store_true", help="render the tradeoff curve"
    )
    explore_cmd.add_argument(
        "--stats", action="store_true", help="print exploration statistics"
    )
    explore_cmd.add_argument(
        "--json", metavar="FILE", help="write the result JSON"
    )
    explore_cmd.add_argument(
        "--csv", metavar="FILE", help="write the front as CSV"
    )
    explore_cmd.add_argument(
        "--svg", metavar="FILE", help="render the front as SVG"
    )
    explore_cmd.add_argument(
        "--trace", metavar="FILE", default=None,
        help=(
            "record the search trace to FILE (JSONL; inspect with "
            "'repro explain FILE')"
        ),
    )
    explore_cmd.add_argument(
        "--trace-level", choices=("spans", "audit"), default="audit",
        help=(
            "spans: phase/evaluation records only; audit: additionally "
            "one record per pruned candidate (default)"
        ),
    )
    explore_cmd.add_argument(
        "--chrome-trace", metavar="FILE", default=None,
        help=(
            "export a Chrome trace-event JSON timeline (open in "
            "Perfetto or chrome://tracing)"
        ),
    )

    explain = commands.add_parser(
        "explain",
        help="render a search trace (or result) as a human report",
        description=(
            "Explain an EXPLORE run from its artefacts alone.  FILE is "
            "either a trace JSONL written by 'repro explore --trace' / "
            "'repro trace' (per-phase time breakdown, prune-reason "
            "audit, bound-tightness statistics, optionally the search "
            "tree) or a result JSON written by --json (front and "
            "statistics tables)."
        ),
    )
    explain.add_argument("file", help="trace JSONL or result JSON file")
    explain.add_argument(
        "--tree", action="store_true",
        help="render the search tree by cost band (audit traces)",
    )
    explain.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="cost bands shown in the tree (default 20)",
    )

    trace_cmd = commands.add_parser(
        "trace",
        help="explore with tracing on and explain the run",
        description=(
            "Run EXPLORE with the tracer attached, write the requested "
            "exports, and print the explain report.  Equivalent to "
            "'repro explore --trace ... && repro explain ...' in one "
            "step."
        ),
    )
    trace_cmd.add_argument("spec", help="specification JSON file")
    trace_cmd.add_argument(
        "--level", choices=("spans", "audit"), default="audit",
        help="trace detail level (default audit)",
    )
    trace_cmd.add_argument(
        "--jsonl", metavar="FILE", default=None,
        help="write the trace JSONL log",
    )
    trace_cmd.add_argument(
        "--chrome", metavar="FILE", default=None,
        help="write the Chrome trace-event JSON timeline",
    )
    trace_cmd.add_argument("--tree", action="store_true")
    trace_cmd.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="cost bands shown with --tree (default 20)",
    )
    trace_cmd.add_argument("--util-bound", type=float, default=0.69)
    trace_cmd.add_argument("--max-cost", type=float, default=None)
    trace_cmd.add_argument("--keep-ties", action="store_true")
    trace_cmd.add_argument(
        "--timing-mode", choices=("utilization", "schedule", "none"),
        default=None,
    )
    trace_cmd.add_argument(
        "--engine", choices=("compiled", "reference"), default=None,
        help="candidate-evaluation engine (identical results)",
    )

    upgrade = commands.add_parser(
        "upgrade", help="incremental design: upgrades of a base allocation"
    )
    upgrade.add_argument("spec", help="specification JSON file")
    upgrade.add_argument(
        "--base", required=True,
        help="comma-separated base units, e.g. muP2 or muP2,C1,D3",
    )
    upgrade.add_argument("--max-extra-cost", type=float, default=None)

    failures = commands.add_parser(
        "failures",
        help="single-unit failure impact of an allocation",
    )
    failures.add_argument("spec", help="specification JSON file")
    failures.add_argument(
        "--allocation", required=True,
        help="comma-separated allocated units, e.g. muP2,A1,C2",
    )

    serve = commands.add_parser(
        "serve",
        help="run the exploration service on a directory",
        description=(
            "Run the exploration service: recover any jobs journaled in "
            "DIR, ingest spooled submissions, and time-slice every job "
            "until the queue drains.  A "
            "killed service restarted on the same DIR resumes each "
            "incomplete job from its checkpoint to identical results."
        ),
    )
    serve.add_argument("dir", help="service directory (created if missing)")
    serve.add_argument(
        "--slice-evaluations", type=int, default=None, metavar="N",
        help="candidate evaluations per scheduling slice (default 32)",
    )
    serve.add_argument(
        "--aging-rate", type=float, default=0.0, metavar="R",
        help="priority-aging rate (pass units per waiting second)",
    )
    serve.add_argument(
        "--max-slices", type=int, default=None, metavar="N",
        help="stop after N slices even if jobs remain (they resume later)",
    )
    serve.add_argument(
        "--poll", type=float, default=0.0, metavar="SECONDS",
        help="when idle, keep watching the spool this long before exiting",
    )
    serve.add_argument(
        "--max-queued", type=int, default=None, metavar="N",
        help=(
            "admission control: bound the runnable queue at N jobs "
            "(default: unbounded)"
        ),
    )
    serve.add_argument(
        "--overload-policy", choices=("reject", "shed"), default="reject",
        help=(
            "what a full queue does to a submission: refuse it (exit "
            "code 4 via the CLI) or shed the lowest-priority queued "
            "job to make room"
        ),
    )
    serve.add_argument(
        "--slice-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "watchdog budget per scheduling slice: a slice exceeding "
            "it is preempted (typed HangError) and the job quarantined "
            "(default: unsupervised)"
        ),
    )
    serve.add_argument(
        "--warm-store", metavar="DIR", default="auto",
        help=(
            "warm-start store shared by every job on this service "
            "(default: DIR/warmstore inside the service directory; "
            "'none' disables persistence)"
        ),
    )

    cache = commands.add_parser(
        "cache",
        help="inspect or maintain a warm-start store",
        description=(
            "Inspect or maintain a persistent warm-start store "
            "(written by 'repro explore --warm-store DIR' or by the "
            "service).  'stats' prints entry/byte counts per spec "
            "namespace, 'verify' sweeps every segment record strictly "
            "(CRC + digest + version) and exits nonzero on any "
            "problem, 'gc' compacts the segments and evicts "
            "least-recently-used namespaces down to --max-bytes."
        ),
    )
    cache.add_argument(
        "action", choices=("stats", "verify", "gc"),
        help="what to do with the store",
    )
    cache.add_argument("store", help="warm-start store directory")
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="gc: evict namespaces until the store is under N bytes",
    )
    cache.add_argument(
        "--json", action="store_true", help="print machine-readable JSON"
    )
    cache.add_argument(
        "--format", choices=("text", "json", "prometheus"), default=None,
        help=(
            "stats output format (default text; 'prometheus' emits the "
            "store's lifetime counters and sizes as exposition text)"
        ),
    )

    top = commands.add_parser(
        "top",
        help="live job/resource dashboard for a service directory",
        description=(
            "Render a periodically refreshing dashboard for 'repro "
            "serve DIR': one row per job (state, candidates, "
            "evaluations, incumbent flexibility, last event) plus the "
            "service's exported process/store metrics.  Reads only the "
            "service's published artifacts (job ledger, per-job event "
            "streams, metrics.json) — it never touches the service "
            "process, so it is safe against a live or a dead service."
        ),
    )
    top.add_argument("dir", help="service directory")
    top.add_argument(
        "--refresh", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default 1.0)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N refreshes (default: until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit (same as --iterations 1)",
    )
    top.add_argument(
        "--json", action="store_true",
        help="print snapshots as JSON objects instead of a table",
    )

    telemetry = commands.add_parser(
        "telemetry",
        help="dump or diff a service's exported metrics snapshots",
        description=(
            "Operate on the metrics.json a 'repro serve' exports: "
            "'dump DIR' re-validates the snapshot and prints it as "
            "JSON or Prometheus exposition text; 'diff A B' compares "
            "two snapshots (directories or saved metrics.json files) "
            "and prints per-series deltas — counters/gauges by value, "
            "histograms by count and sum."
        ),
    )
    telemetry.add_argument(
        "action", choices=("dump", "diff"), help="what to do"
    )
    telemetry.add_argument(
        "paths", nargs="+", metavar="PATH",
        help=(
            "dump: one service directory or metrics.json; "
            "diff: two of them (before, after)"
        ),
    )
    telemetry.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="dump output format (default json)",
    )

    submit = commands.add_parser(
        "submit",
        help="spool a job for an exploration service",
        description=(
            "Atomically spool one exploration job into DIR/queue.  A "
            "running (or later) 'repro serve DIR' adopts it into the "
            "job ledger and schedules it."
        ),
    )
    submit.add_argument("dir", help="service directory")
    submit.add_argument("spec", help="specification JSON file")
    submit.add_argument("--name", default=None, help="job name (default: spec name)")
    submit.add_argument(
        "--priority", type=float, default=1.0,
        help="fair-share weight (higher = more run time)",
    )
    submit.add_argument("--util-bound", type=float, default=None)
    submit.add_argument("--max-cost", type=float, default=None)
    submit.add_argument("--keep-ties", action="store_true")
    submit.add_argument(
        "--timing-mode", choices=("utilization", "schedule", "none"),
        default=None,
    )
    submit.add_argument(
        "--engine", choices=("compiled", "reference"), default=None,
        help="candidate-evaluation engine (identical results)",
    )

    jobs_cmd = commands.add_parser(
        "jobs", help="list an exploration service directory's jobs"
    )
    jobs_cmd.add_argument("dir", help="service directory")
    jobs_cmd.add_argument(
        "--json", action="store_true", help="print machine-readable JSON"
    )

    watch = commands.add_parser(
        "watch",
        help="stream a job's events from a service directory",
        description=(
            "Print a job's observation events (one JSON object per "
            "line).  With --follow, keep tailing until the job reaches "
            "a terminal state or --idle-timeout seconds pass without a "
            "new event."
        ),
    )
    watch.add_argument("dir", help="service directory")
    watch.add_argument("job", help="job id (see 'repro jobs')")
    watch.add_argument(
        "--follow", action="store_true", help="keep tailing for new events"
    )
    watch.add_argument(
        "--idle-timeout", type=float, default=30.0, metavar="SECONDS",
        help="give up following after this long without events",
    )

    return parser


def _print(text: str, out) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _cmd_demo(args, out) -> int:
    spec = build_settop_spec() if args.name == "settop" else build_tv_decoder_spec()
    _print(
        f"{spec.name}: |V_S|={spec.vs_size()}, |E_M|={len(spec.mappings)}, "
        f"{len(spec.units)} units, max flexibility "
        f"{max_flexibility(spec.problem):g}",
        out,
    )
    if args.save:
        dump_spec(spec, args.save)
        _print(f"wrote {args.save}", out)
    return EXIT_OK


def _cmd_synth(args, out) -> int:
    spec = synthetic_spec(
        n_apps=args.apps,
        interfaces_per_app=args.interfaces,
        alternatives=args.alternatives,
        n_procs=args.procs,
        n_accels=args.accels,
        seed=args.seed,
    )
    _print(
        f"{spec.name}: |V_S|={spec.vs_size()}, {len(spec.units)} units, "
        f"design space 2^{len(spec.units)}",
        out,
    )
    if args.save:
        dump_spec(spec, args.save)
        _print(f"wrote {args.save}", out)
    return EXIT_OK


def _cmd_lint(args, out) -> int:
    spec = load_spec(args.spec)
    diagnostics = lint_specification(spec)
    if not diagnostics:
        _print("no findings", out)
        return EXIT_OK
    for diagnostic in diagnostics:
        _print(repr(diagnostic), out)
    has_errors = any(d.level == ERROR for d in diagnostics)
    return EXIT_LINT if has_errors else EXIT_OK


def _cmd_table(args, out) -> int:
    spec = load_spec(args.spec)
    if spec.name == "SetTop_spec":
        text = mapping_table(
            spec, TABLE1_PROCESS_ORDER, TABLE1_RESOURCE_ORDER
        )
    else:
        text = mapping_table(spec)
    _print(text, out)
    return EXIT_OK


def _cmd_dot(args, out) -> int:
    _print(spec_to_dot(load_spec(args.spec)), out)
    return EXIT_OK


def _build_tracer(args, spec=None):
    """The tracer of an explore/trace invocation, or ``None``."""
    jsonl = getattr(args, "trace", None) or getattr(args, "jsonl", None)
    chrome = getattr(args, "chrome_trace", None) or getattr(
        args, "chrome", None
    )
    wants_report = getattr(args, "command", None) == "trace"
    if not (jsonl or chrome or wants_report):
        return None
    from .trace import Tracer, compute_trace_id

    level = getattr(args, "trace_level", None) or getattr(
        args, "level", "audit"
    )
    trace_id = compute_trace_id(spec) if spec is not None else None
    return Tracer(level=level, trace_id=trace_id)


def _export_tracer(tracer, jsonl, chrome, out) -> None:
    if tracer is None:
        return
    from .trace import write_chrome_trace, write_trace

    if jsonl:
        write_trace(tracer, jsonl)
        _print(f"wrote {jsonl}", out)
    if chrome:
        write_chrome_trace(tracer, chrome)
        _print(f"wrote {chrome}", out)


def _cmd_explore(args, out) -> int:
    if args.resume is not None:
        if args.spec is not None:
            print(
                "error: --resume continues a self-contained checkpoint; "
                "do not pass a spec file as well",
                file=sys.stderr,
            )
            return EXIT_ERROR
        from .resilience import resume_explore

        overrides = {}
        if args.deadline is not None:
            overrides["deadline_seconds"] = args.deadline
        if args.max_evaluations is not None:
            overrides["max_evaluations"] = args.max_evaluations
        if args.checkpoint_every is not None:
            overrides["checkpoint_every"] = args.checkpoint_every
        if args.engine is not None:
            overrides["engine"] = args.engine
        if args.warm_store is not None:
            overrides["warm_store"] = args.warm_store
        tracer = _build_tracer(args)
        result = resume_explore(args.resume, tracer=tracer, **overrides)
        spec_name = "resumed run"
    else:
        if args.spec is None:
            print(
                "error: a specification file is required "
                "(or --resume FILE)",
                file=sys.stderr,
            )
            return EXIT_ERROR
        spec = load_spec(args.spec)
        spec_name = spec.name
        tracer = _build_tracer(args, spec)
        result = explore(
            spec,
            util_bound=args.util_bound,
            max_cost=args.max_cost,
            check_utilization=not args.no_timing,
            keep_ties=args.keep_ties,
            timing_mode=args.timing_mode,
            deadline_seconds=args.deadline,
            max_evaluations=args.max_evaluations,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            tracer=tracer,
            engine=args.engine,
            warm_store=args.warm_store,
        )
    _print(pareto_table(result), out)
    if not result.completed and result.gap is not None:
        gap = result.gap
        _print(
            f"TRUNCATED ({gap.reason}): best-so-far front; any missed "
            f"implementation costs >= ${gap.next_cost_bound:g} and no "
            f"implementation exceeds flexibility "
            f"{gap.flexibility_bound:g} (achieved "
            f"{gap.achieved_flexibility:g})",
            out,
        )
    if args.plot:
        _print(tradeoff_plot(result.front()), out)
    if args.stats:
        _print(stats_table(result), out)
    if args.json:
        dump_result(result, args.json)
        _print(f"wrote {args.json}", out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(result_to_csv(result))
        _print(f"wrote {args.csv}", out)
    if args.svg:
        from .report import save_front_svg

        save_front_svg(
            result.front(), args.svg, title=f"{spec_name}: front"
        )
        _print(f"wrote {args.svg}", out)
    _export_tracer(tracer, args.trace, args.chrome_trace, out)
    return EXIT_OK if result.completed else EXIT_TRUNCATED


def _cmd_explain(args, out) -> int:
    from .trace import TRACE_FORMAT, explain_text, read_trace

    with open(args.file, "r", encoding="utf-8") as handle:
        first_line = handle.readline().strip()
    try:
        header = json.loads(first_line) if first_line else {}
    except ValueError:
        header = {}
    if isinstance(header, dict) and header.get("format") == TRACE_FORMAT:
        records = read_trace(args.file)
        _print(
            explain_text(records, tree=args.tree, limit=args.limit), out
        )
        return EXIT_OK
    from .io import load_result

    result = load_result(args.file)
    _print(pareto_table(result), out)
    _print(stats_table(result), out)
    if not result.completed and result.gap is not None:
        gap = result.gap
        _print(
            f"TRUNCATED ({gap.reason}): any missed implementation costs "
            f">= ${gap.next_cost_bound:g}",
            out,
        )
    return EXIT_OK


def _cmd_trace(args, out) -> int:
    from .trace import explain_text

    spec = load_spec(args.spec)
    tracer = _build_tracer(args, spec)
    result = explore(
        spec,
        util_bound=args.util_bound,
        max_cost=args.max_cost,
        keep_ties=args.keep_ties,
        timing_mode=args.timing_mode,
        tracer=tracer,
        engine=args.engine,
    )
    _print(
        explain_text(
            tracer.all_records(), tree=args.tree, limit=args.limit
        ),
        out,
    )
    _export_tracer(tracer, args.jsonl, args.chrome, out)
    return EXIT_OK if result.completed else EXIT_TRUNCATED


def _cmd_upgrade(args, out) -> int:
    spec = load_spec(args.spec)
    base_units = [u.strip() for u in args.base.split(",") if u.strip()]
    result = explore_upgrades(
        spec, base_units, max_extra_cost=args.max_extra_cost
    )
    _print(
        f"base: {sorted(result.base.units)} cost=${result.base.cost:g} "
        f"flexibility={result.base.flexibility:g}",
        out,
    )
    _print(pareto_table(result), out)
    extras = ", ".join(f"+${e:g}" for e in result.upgrade_costs())
    _print(f"upgrade costs: {extras}", out)
    return EXIT_OK


def _cmd_failures(args, out) -> int:
    from .core import evaluate_allocation, single_failure_report
    from .report import format_table

    spec = load_spec(args.spec)
    units = [u.strip() for u in args.allocation.split(",") if u.strip()]
    implementation = evaluate_allocation(spec, units)
    if implementation is None:
        print(
            f"error: allocation {units!r} has no feasible implementation",
            file=sys.stderr,
        )
        return EXIT_ERROR
    _print(
        f"baseline: cost=${implementation.cost:g} "
        f"flexibility={implementation.flexibility:g}",
        out,
    )
    rows = []
    for impact in single_failure_report(spec, implementation):
        rows.append(
            [
                ", ".join(sorted(impact.failed_units)),
                f"{impact.remaining_flexibility:g}",
                "TOTAL OUTAGE"
                if impact.total_outage
                else ", ".join(sorted(impact.lost_clusters)) or "(none)",
            ]
        )
    _print(
        format_table(["failed unit", "remaining f", "lost clusters"], rows),
        out,
    )
    return EXIT_OK


def _cmd_serve(args, out) -> int:
    from .service import ExplorationService

    kwargs = {}
    if args.slice_evaluations is not None:
        kwargs["slice_evaluations"] = args.slice_evaluations
    warm_store = None if args.warm_store == "none" else args.warm_store
    with ExplorationService(
        args.dir,
        aging_rate=args.aging_rate,
        max_queued=args.max_queued,
        overload_policy=args.overload_policy,
        slice_timeout=args.slice_timeout,
        warm_store=warm_store,
        **kwargs,
    ) as service:
        executed = service.run(
            max_slices=args.max_slices, poll_seconds=args.poll
        )
        jobs = service.list_jobs()
        failed = [j for j in jobs if j.state == "failed"]
        _print(
            f"{executed} slice(s); "
            f"{sum(1 for j in jobs if j.state == 'completed')} completed, "
            f"{sum(1 for j in jobs if j.state in ('queued', 'running'))} "
            f"pending, {len(failed)} failed",
            out,
        )
        for job in failed:
            print(
                f"error: job {job.job_id} ({job.name}): {job.error}",
                file=sys.stderr,
            )
    return EXIT_ERROR if failed else EXIT_OK


def _cmd_cache(args, out) -> int:
    from .store import describe_store, open_store

    if not os.path.isdir(args.store):
        print(
            f"error: no warm-start store at {args.store}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    store = open_store(args.store)
    if args.action == "stats":
        fmt = args.format or ("json" if args.json else "text")
        if fmt == "prometheus":
            from .telemetry import MetricRegistry, export_store_metrics

            registry = MetricRegistry()
            export_store_metrics(store, registry)
            _print(registry.to_prometheus(), out)
            return EXIT_OK
        document = store.stats()
        if fmt == "json":
            _print(json.dumps(document, indent=2, sort_keys=True), out)
        else:
            _print(describe_store(document), out)
        return EXIT_OK
    if args.action == "verify":
        report = store.verify()
        if args.json:
            _print(json.dumps(report, indent=2, sort_keys=True), out)
        else:
            _print(
                f"verified {report['segments']} segment(s), "
                f"{report['records']} record(s): "
                + ("ok" if report["ok"] else
                   f"{len(report['problems'])} problem(s)"),
                out,
            )
            for problem in report["problems"]:
                print(
                    "error: "
                    + ", ".join(
                        f"{k}={v}" for k, v in sorted(problem.items())
                    ),
                    file=sys.stderr,
                )
        return EXIT_OK if report["ok"] else EXIT_ERROR
    report = store.gc(max_bytes=args.max_bytes)
    if args.json:
        _print(json.dumps(report, indent=2, sort_keys=True), out)
    else:
        _print(
            f"compacted {report['compacted']} namespace(s), evicted "
            f"{len(report['evicted'])}; store is {report['bytes']} bytes",
            out,
        )
    return EXIT_OK


def _cmd_top(args, out) -> int:
    from .telemetry import run_top

    if not os.path.isdir(args.dir):
        print(f"error: no service directory at {args.dir}", file=sys.stderr)
        return EXIT_ERROR
    iterations = 1 if args.once else args.iterations
    try:
        run_top(
            args.dir,
            out,
            refresh=args.refresh,
            iterations=iterations,
            clear=not args.json and iterations != 1,
            as_json=args.json,
        )
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _metrics_document(path: str):
    """Load an exported metrics snapshot from a service directory or a
    saved ``metrics.json`` file."""
    from .io import job_io

    if os.path.isdir(path):
        path = job_io.metrics_json_path(path)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_telemetry(args, out) -> int:
    from .telemetry import diff_snapshots, registry_from_snapshot

    expected = 1 if args.action == "dump" else 2
    if len(args.paths) != expected:
        print(
            f"error: telemetry {args.action} takes exactly "
            f"{expected} PATH argument(s)",
            file=sys.stderr,
        )
        return EXIT_ERROR
    try:
        documents = [_metrics_document(p) for p in args.paths]
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    if args.action == "dump":
        # Round-trip through a registry: validates the snapshot's
        # metric grammar and types, not just its JSON well-formedness.
        registry = registry_from_snapshot(documents[0])
        registry.validate(strict=True)
        if args.format == "prometheus":
            _print(registry.to_prometheus(), out)
        else:
            _print(
                json.dumps(registry.as_dict(), indent=2, sort_keys=True),
                out,
            )
        return EXIT_OK
    delta = diff_snapshots(documents[0], documents[1])
    _print(json.dumps(delta, indent=2, sort_keys=True), out)
    return EXIT_OK


def _cmd_submit(args, out) -> int:
    from .io import job_io

    spec = load_spec(args.spec)
    options = {}
    if args.util_bound is not None:
        options["util_bound"] = args.util_bound
    if args.max_cost is not None:
        options["max_cost"] = args.max_cost
    if args.keep_ties:
        options["keep_ties"] = True
    if args.timing_mode is not None:
        options["timing_mode"] = args.timing_mode
    if args.engine is not None:
        options["engine"] = args.engine
    path = job_io.write_submission(
        args.dir,
        spec,
        args.name or spec.name,
        priority=args.priority,
        options=options,
    )
    _print(f"spooled {spec.name} -> {path}", out)
    return EXIT_OK


def _cmd_jobs(args, out) -> int:
    from .io import job_io
    from .report import jobs_table

    rows = []
    for entry in job_io.read_job_ledger(
        job_io.ledger_path(args.dir)
    ).values():
        rows.append(
            {
                "id": entry.job_id,
                "name": entry.name,
                "state": entry.state,
                "priority": entry.priority,
                **{
                    k: entry.fields[k]
                    for k in ("slices", "preemptions", "evaluations")
                    if k in entry.fields
                },
            }
        )
    for _, document in job_io.read_submissions(args.dir):
        rows.append(
            {
                "id": "(spooled)",
                "name": document["name"],
                "state": "spooled",
                "priority": document.get("priority", 1),
            }
        )
    if args.json:
        _print(json.dumps(rows, indent=2, sort_keys=True), out)
    elif rows:
        _print(jobs_table(rows), out)
    else:
        _print("no jobs", out)
    return EXIT_OK


#: Event kinds that end a ``watch --follow``.
_TERMINAL_EVENT_KINDS = ("completed", "failed", "cancelled")


def _cmd_watch(args, out) -> int:
    from .io import job_io

    path = job_io.events_path(args.dir, args.job)
    if not args.follow and not os.path.exists(path):
        print(f"error: no events for job {args.job!r}", file=sys.stderr)
        return EXIT_ERROR
    offset = 0
    buffered = ""
    last_event = time.monotonic()
    while True:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                handle.seek(offset)
                chunk = handle.read()
                offset = handle.tell()
            buffered += chunk
            while "\n" in buffered:
                line, buffered = buffered.split("\n", 1)
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                _print(json.dumps(event, sort_keys=True), out)
                last_event = time.monotonic()
                if event.get("kind") in _TERMINAL_EVENT_KINDS:
                    return EXIT_OK
        if not args.follow:
            return EXIT_OK
        if time.monotonic() - last_event > args.idle_timeout:
            print(
                f"error: no new events for {args.idle_timeout:g}s",
                file=sys.stderr,
            )
            return EXIT_ERROR
        time.sleep(0.1)


_HANDLERS = {
    "demo": _cmd_demo,
    "synth": _cmd_synth,
    "lint": _cmd_lint,
    "table": _cmd_table,
    "dot": _cmd_dot,
    "explore": _cmd_explore,
    "explain": _cmd_explain,
    "trace": _cmd_trace,
    "upgrade": _cmd_upgrade,
    "failures": _cmd_failures,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
    "top": _cmd_top,
    "telemetry": _cmd_telemetry,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "watch": _cmd_watch,
}


def _configure_logging(args) -> None:
    """Attach a stderr handler to the package logger when asked.

    The library itself only ever adds a :class:`logging.NullHandler`
    (see :mod:`repro`); the CLI is the place where log records become
    visible.  Without ``-v``/``--log-level`` nothing is emitted.
    """
    if args.log_level is not None:
        level = getattr(logging, args.log_level.upper())
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    package_logger = logging.getLogger("repro")
    package_logger.addHandler(handler)
    package_logger.setLevel(level)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    handler = _HANDLERS[args.command]
    try:
        return handler(args, out)
    except OverloadedError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_OVERLOADED
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # Downstream consumer (e.g. `watch ... | head`) closed the pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
