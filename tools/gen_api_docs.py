#!/usr/bin/env python3
"""Generate docs/api.md from the package's docstrings.

Walks every ``repro`` subpackage, collects the public classes and
functions (as declared by ``__all__``), and writes a compact API index
with one-line summaries.  Run from the repository root::

    python tools/gen_api_docs.py          # rewrite docs/api.md
    python tools/gen_api_docs.py --check  # exit 1 and print the diff
                                          # when docs/api.md is stale
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import sys
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.hgraph",
    "repro.boolexpr",
    "repro.spec",
    "repro.activation",
    "repro.binding",
    "repro.timing",
    "repro.core",
    "repro.compiled",
    "repro.store",
    "repro.resilience",
    "repro.supervision",
    "repro.service",
    "repro.telemetry",
    "repro.trace",
    "repro.adaptive",
    "repro.analysis",
    "repro.casestudies",
    "repro.io",
    "repro.report",
    "repro.cli",
]


#: Hand-maintained prose appended after a package's symbol table
#: (the only way narrative survives regeneration).
EXTRA_SECTIONS = {
    "repro.store": """\
### Using a warm-start store

| entry point | meaning |
|---|---|
| `explore(spec, warm_store=DIR)` | replay binding verdicts recorded in `DIR` by earlier runs and record this run's — results are byte-identical to cold (`docs/performance.md`) |
| `repro explore --warm-store DIR` | the same from the CLI |
| `repro serve DIR` | jobs share `DIR/warmstore` by default (`--warm-store none` disables) |
| `repro cache stats\\|verify\\|gc STORE` | inspect, strictly check (nonzero exit on corruption) or compact/evict (`--max-bytes`) a store |
| `invalidate(store, old_spec, new_spec)` | garbage-collect entries a spec edit can have touched (correctness never depends on it) |

Segment layout and invalidation rules: `docs/formats.md`.
""",
    "repro.core": """\
### `explore()` engine parameter

`explore()` evaluates candidates through one of two engines (see
`docs/performance.md` for the kernel design and benchmark guide):

| parameter | default | meaning |
|---|---|---|
| `engine` | `"compiled"` | `"compiled"` runs the bitmask kernel of `repro.compiled` (cross-candidate memoization, BDD-compiled possible-allocation test, precomputed binding tables); `"reference"` runs the classic per-candidate pipeline. Both produce **identical** fronts, statistics, progress events and logical traces |

### `explore()` resilience parameters

These run on the same driver as a plain run and change nothing but
what they say (Pareto set, statistics except `elapsed_seconds` and
`checkpoints_written`, tie-breaking are identical); see
`docs/resilience.md`:

| parameter | default | meaning |
|---|---|---|
| `deadline_seconds` | `None` | wall-clock budget; on expiry return the best-so-far front with `completed=False` and an `OptimalityGap` |
| `max_evaluations` | `None` | budget on binding-solver evaluations, same graceful truncation |
| `checkpoint` | `None` | path of an append-only CRC-journaled checkpoint file enabling `resume_explore()` |
| `checkpoint_every` | `4096` | consumed candidates between fsync'd snapshots when checkpointing |
""",
    "repro.resilience": """\
### Guarantees

* `resume_explore(path)` after a kill at **any** point produces a
  result whose fingerprint (front, statistics, bound) is identical to
  the uninterrupted run's.
* A truncated run's `OptimalityGap` is sound: the returned front below
  `gap.next_cost_bound` equals the full run's front below that cost,
  and nothing exceeds `gap.flexibility_bound` — checked by
  `verify_gap()`.
* Journal faults are never silent: a torn tail is discarded on load,
  a failed write or fsync raises `CheckpointError`, and a journal of
  an unsupported version is refused with a `CheckpointError` naming it.

See `docs/resilience.md` for the journal format and the resume-identity
argument.
""",
    "repro.telemetry": """\
### Attaching the plane

| entry point | meaning |
|---|---|
| `explore(spec, telemetry=Telemetry())` | profile phases + sample resources; results, progress events and trace fingerprints stay **byte-identical** (12-seed differential in `tests/test_telemetry_determinism.py`) |
| `ExplorationService(dir)` | always instrumented: `service.metrics` is the unified `MetricRegistry`, exported to `DIR/metrics.json` + `DIR/metrics.prom` |
| `repro top DIR` | live job/metric dashboard over a service directory |
| `repro telemetry dump\\|diff` | re-validated snapshot export and per-series deltas |
| `tools/bench_trend.py` | perf-trend ledger over committed `BENCH_*.json` (`--check` gates CI) |

Telemetry lives strictly on the wall-clock side of the determinism
seam; see `docs/observability.md` for the two-channel story and the
metric-name reference.
""",
    "repro.trace": """\
### The determinism contract

A tracer attached to `explore(tracer=...)` records the search's
logical history at candidate positions from deterministic data only,
so plain, budgeted, checkpointed and preempted-service runs of the
same exploration produce **byte-identical** logical traces
(`trace_fingerprint` hashes exactly that view; wall-clock lives in the
separate `t`/`t0`/`t1`/`diag`/`phase_totals` channel).  Tracing is
observation-only: with or without a tracer, fronts, statistics and
progress events are identical.  See `docs/observability.md` for the
span model, the prune-reason taxonomy and the exporters, and
`docs/formats.md` for the `repro/trace` v1 JSONL format.
""",
}


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.strip().splitlines()[0] if doc.strip() else ""
    return line.rstrip(".")


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def render_module(name: str) -> str:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    summary = first_line(module)
    if summary:
        lines.append(summary + ".")
        lines.append("")
    exported = list(getattr(module, "__all__", []))
    if not exported:
        public = [
            n for n, obj in vars(module).items()
            if not n.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and getattr(obj, "__module__", "").startswith(name)
        ]
        exported = sorted(public)
    rows = []
    for symbol in exported:
        obj = getattr(module, symbol, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            kind = "class"
            detail = first_line(obj)
        elif inspect.isfunction(obj):
            kind = "func"
            detail = first_line(obj)
        else:
            kind = "const"
            detail = ""
        rows.append((symbol, kind, detail))
    if rows:
        lines.append("| symbol | kind | summary |")
        lines.append("|---|---|---|")
        for symbol, kind, detail in rows:
            escaped = detail.replace("|", "\\|")
            lines.append(f"| `{symbol}` | {kind} | {escaped} |")
        lines.append("")
    extra = EXTRA_SECTIONS.get(name)
    if extra:
        lines.append(extra)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 and print a diff if docs/api.md "
        "differs from the generated text",
    )
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    sections = [
        "# API index",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by "
        "hand.  One-line summaries come from the objects' docstrings; "
        "see the source for full documentation.",
        "",
    ]
    for package in PACKAGES:
        sections.append(render_module(package))
    output = root / "docs" / "api.md"
    text = "\n".join(sections)
    if args.check:
        committed = output.read_text() if output.exists() else ""
        diff = list(
            difflib.unified_diff(
                committed.splitlines(keepends=True),
                text.splitlines(keepends=True),
                "docs/api.md (committed)",
                "docs/api.md (generated)",
            )
        )
        if diff:
            sys.stdout.writelines(diff)
            print("docs/api.md is stale: run python tools/gen_api_docs.py")
            return 1
        print("docs/api.md is up to date")
        return 0
    output.write_text(text)
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
