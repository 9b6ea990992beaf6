"""The ``repro explain`` engine: search statistics from a trace alone.

Given the records of an audit-level trace, this module reconstructs the
paper's search statistics (the Table-1 counters and the Fig.-3 front)
*without* the :class:`~repro.core.result.ExplorationResult` — the trace
is a complete account of the search — and renders:

* a run summary (trace id, design space, completion, stop rule);
* the per-phase wall-clock breakdown (when the trace carries the
  wall-clock channel);
* the prune-reason breakdown — how many candidates each rule killed;
* bound-tightness statistics: estimated vs. achieved flexibility over
  the fully evaluated candidates, per cost band (how loose the
  flexibility estimate was, and whether it was ever *unsound*);
* the search tree by cost band with per-band prune reasons;
* the recovered Pareto front.

The recomputed counters are cross-checked against the run's own
``explore_end`` record; a mismatch means a truncated or partial trace
and is reported rather than hidden.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from ..report import format_table
from . import tracer as taxonomy
from .tracer import PRE_EVALUATION_REASONS, PRUNE_REASONS, strip_wall_fields


def _by_type(
    records: Iterable[Dict[str, Any]],
) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        grouped.setdefault(record.get("type", "?"), []).append(record)
    return grouped


def recompute_stats(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Reconstruct the search statistics from audit records alone.

    The arithmetic mirrors the exploration loop's counters: every
    enumerated candidate is either pruned before evaluation (an audit
    record with a :data:`PRE_EVALUATION_REASONS` reason) or fully
    evaluated (an ``evaluate`` record); post-evaluation prunes (the
    other :data:`PRUNE_REASONS`) and the final dominance pass do not
    add candidates.  For a complete, un-truncated audit trace these
    equal the run's :class:`~repro.core.result.ExplorationStats`
    exactly (asserted by ``tests/test_trace.py``).
    """
    grouped = _by_type(strip_wall_fields(records))
    prunes = grouped.get("prune", [])
    evaluates = grouped.get("evaluate", [])
    incumbents = grouped.get("incumbent", [])
    reasons: Dict[str, int] = {reason: 0 for reason in PRUNE_REASONS}
    for record in prunes:
        reasons[record.get("reason", "?")] = (
            reasons.get(record.get("reason", "?"), 0) + 1
        )
    pre_pruned = sum(
        count
        for reason, count in reasons.items()
        if reason in PRE_EVALUATION_REASONS
    )
    candidates = pre_pruned + len(evaluates)
    # The max_candidates stop counts its breaking candidate without
    # processing it (the serial loop increments before the check).
    for record in grouped.get("stop", []):
        if record.get("reason") == "max_candidates":
            candidates = record.get("candidates", candidates)
    estimated = [r for r in evaluates if r.get("estimate") is not None]
    estimates_computed = (
        reasons[taxonomy.ESTIMATE_BELOW_INCUMBENT]
        + reasons[taxonomy.TIE_HIGHER_COST]
        + len(estimated)
    )
    feasible = [r for r in evaluates if r.get("feasible")]
    return {
        "candidates_enumerated": candidates,
        "possible_allocations": candidates
        - reasons[taxonomy.IMPOSSIBLE_ALLOCATION],
        "pruned_comm": reasons[taxonomy.USELESS_COMM],
        "estimates_computed": estimates_computed,
        "estimate_exceeded": len(evaluates),
        "feasible_implementations": len(feasible),
        "solver_invocations": sum(
            r.get("solver_calls", 0) for r in evaluates
        ),
        "incumbents": len(incumbents),
        "points": len(incumbents) - reasons[taxonomy.DOMINATED],
        "prune_reasons": reasons,
    }


def bound_tightness(
    records: Iterable[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Estimate-vs-achieved statistics per cost band.

    Returns ``(bands, violations)``: one row per distinct cost with the
    number of evaluations, the mean/max gap ``estimate - achieved``
    over *feasible* candidates and the count of exact estimates; and
    the soundness violations (achieved strictly above the estimate —
    the branch-and-bound would be unsound, so any entry here is a bug).
    """
    by_cost: Dict[float, List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("type") != "evaluate":
            continue
        by_cost.setdefault(record["cost"], []).append(record)
    bands: List[Dict[str, Any]] = []
    violations: List[Dict[str, Any]] = []
    for cost in sorted(by_cost):
        rows = by_cost[cost]
        gaps = []
        exact = 0
        for record in rows:
            estimate = record.get("estimate")
            if estimate is None or not record.get("feasible"):
                continue
            gap = estimate - record.get("flexibility", 0.0)
            gaps.append(gap)
            if gap == 0:
                exact += 1
            if gap < 0:
                violations.append(record)
        bands.append(
            {
                "cost": cost,
                "evaluations": len(rows),
                "feasible": sum(1 for r in rows if r.get("feasible")),
                "estimated": len(gaps),
                "exact": exact,
                "mean_gap": sum(gaps) / len(gaps) if gaps else None,
                "max_gap": max(gaps) if gaps else None,
            }
        )
    return bands, violations


def _fmt(value: Any, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return f"{value:.{digits}f}"
    return str(value)


def summary_text(records: List[Dict[str, Any]]) -> str:
    """The run-summary block of the explain report."""
    grouped = _by_type(records)
    start = (grouped.get("explore_start") or [{}])[0]
    end = (grouped.get("explore_end") or [{}])[0]
    stops = grouped.get("stop", [])
    lines = ["# Run"]
    rows = [
        ("trace id", start.get("trace") or "-"),
        ("level", start.get("level", "-")),
        ("design space", _fmt(start.get("design_space_size"))),
        ("flexibility bound f_max", _fmt(start.get("f_max"))),
        ("completed", _fmt(end.get("completed"))),
        (
            "stop rule",
            stops[-1].get("reason") if stops else "space exhausted",
        ),
        ("pareto points", _fmt(end.get("points"))),
    ]
    if start.get("resumed_from_cursor"):
        rows.append(
            ("partial trace from cursor", start["resumed_from_cursor"])
        )
    lines.append(format_table(("field", "value"), rows))
    front = end.get("front") or []
    if front:
        lines.append("")
        lines.append("# Pareto front (cost, flexibility)")
        lines.append(
            format_table(
                ("cost", "flexibility"),
                [(_fmt(c), _fmt(f)) for c, f in front],
            )
        )
    return "\n".join(lines)


def stats_text(records: List[Dict[str, Any]]) -> str:
    """The search-statistics block (the Table-1 counters, recomputed)."""
    recomputed = recompute_stats(records)
    grouped = _by_type(records)
    end = (grouped.get("explore_end") or [{}])[0]
    lines = ["# Search statistics (recomputed from the audit trail)"]
    rows = []
    checks = (
        ("candidates enumerated", "candidates_enumerated", "candidates"),
        ("possible allocations", "possible_allocations", None),
        ("pruned: useless comm", "pruned_comm", None),
        ("estimates computed", "estimates_computed", None),
        ("estimate exceeded bound", "estimate_exceeded", "evaluations"),
        ("feasible implementations", "feasible_implementations", "feasible"),
        ("binding-solver invocations", "solver_invocations", None),
        ("pareto points", "points", "points"),
    )
    mismatches = []
    for label, key, end_key in checks:
        value = recomputed[key]
        row = (label, _fmt(value))
        if end_key is not None and end_key in end:
            recorded = end[end_key]
            if recorded != value:
                mismatches.append((label, value, recorded))
                row = (label, f"{_fmt(value)} (run recorded {recorded})")
        rows.append(row)
    lines.append(format_table(("counter", "value"), rows))
    if mismatches:
        lines.append("")
        lines.append(
            "WARNING: recomputed counters disagree with the run's own "
            "explore_end record — the trace is truncated or partial."
        )
    return "\n".join(lines)


def prune_text(records: List[Dict[str, Any]]) -> str:
    """The prune-reason breakdown block."""
    reasons = recompute_stats(records)["prune_reasons"]
    total = sum(reasons.values())
    lines = ["# Pruning audit — which rule killed how many candidates"]
    if not total:
        lines.append(
            "(no audit records — trace was collected at level=spans)"
        )
        return "\n".join(lines)
    rows = []
    for reason in PRUNE_REASONS:
        count = reasons.get(reason, 0)
        if not count:
            continue
        rows.append((reason, str(count), f"{100.0 * count / total:.1f}%"))
    lines.append(format_table(("reason", "candidates", "share"), rows))
    return "\n".join(lines)


def phase_text(records: List[Dict[str, Any]]) -> str:
    """The per-phase wall-clock breakdown block."""
    grouped = _by_type(records)
    totals = (grouped.get("phase_totals") or [{}])[0].get("phases") or {}
    lines = ["# Per-phase time breakdown (wall-clock channel)"]
    if not totals:
        lines.append(
            "(no wall-clock channel recorded in this trace)"
        )
        return "\n".join(lines)
    start = (grouped.get("explore_start") or [{}])[0]
    end = (grouped.get("explore_end") or [{}])[0]
    elapsed = None
    if isinstance(start.get("t"), (int, float)) and isinstance(
        end.get("t"), (int, float)
    ):
        elapsed = end["t"] - start["t"]
    rows = []
    for phase in sorted(totals):
        calls = totals[phase].get("calls", 0)
        seconds = totals[phase].get("seconds", 0.0)
        share = (
            f"{100.0 * seconds / elapsed:.1f}%"
            if elapsed and elapsed > 0
            else "-"
        )
        rows.append((phase, str(calls), f"{seconds:.6f}", share))
    if elapsed is not None:
        rows.append(("(whole run)", "1", f"{elapsed:.6f}", "100.0%"))
    lines.append(format_table(("phase", "calls", "seconds", "share"), rows))
    return "\n".join(lines)


def tightness_text(records: List[Dict[str, Any]]) -> str:
    """The bound-tightness block: estimated vs. achieved flexibility."""
    bands, violations = bound_tightness(records)
    lines = ["# Bound tightness — estimated vs. achieved flexibility"]
    estimated = [b for b in bands if b["estimated"]]
    if not estimated:
        lines.append("(no estimated evaluations in the trace)")
        return "\n".join(lines)
    rows = [
        (
            _fmt(b["cost"]),
            str(b["evaluations"]),
            str(b["feasible"]),
            f"{b['exact']}/{b['estimated']}",
            _fmt(b["mean_gap"]),
            _fmt(b["max_gap"]),
        )
        for b in estimated
    ]
    lines.append(
        format_table(
            ("cost", "evals", "feasible", "exact", "mean gap", "max gap"),
            rows,
        )
    )
    gaps = [
        b["mean_gap"] * b["estimated"] for b in estimated if b["mean_gap"]
    ]
    total_estimated = sum(b["estimated"] for b in estimated)
    overall = sum(gaps) / total_estimated if total_estimated else 0.0
    lines.append("")
    lines.append(
        f"mean estimate-achieved gap over {total_estimated} feasible "
        f"evaluations: {overall:.3f}"
    )
    if violations:
        lines.append(
            f"SOUNDNESS VIOLATION: {len(violations)} evaluation(s) "
            f"achieved more flexibility than estimated — the estimate "
            f"is not an upper bound!"
        )
    else:
        lines.append(
            "estimate was a sound upper bound on every evaluation"
        )
    return "\n".join(lines)


def tree_text(records: List[Dict[str, Any]], limit: int = 20) -> str:
    """The search tree by cost band, with per-band prune reasons."""
    bands: Dict[float, Dict[str, Any]] = {}

    def band(cost: float) -> Dict[str, Any]:
        entry = bands.get(cost)
        if entry is None:
            entry = {"reasons": {}, "feasible": [], "incumbent": []}
            bands[cost] = entry
        return entry

    for record in records:
        kind = record.get("type")
        if kind == "prune":
            reasons = band(record["cost"])["reasons"]
            reason = record.get("reason", "?")
            reasons[reason] = reasons.get(reason, 0) + 1
        elif kind == "evaluate" and record.get("feasible"):
            band(record["cost"])["feasible"].append(
                record.get("flexibility")
            )
        elif kind == "incumbent":
            band(record["cost"])["incumbent"].append(
                record.get("flexibility")
            )
    lines = ["# Search tree (cost bands, cheapest first)"]
    if not bands:
        lines.append("(no per-candidate records in the trace)")
        return "\n".join(lines)
    shown = sorted(bands)
    truncated = 0
    if limit and len(shown) > limit:
        truncated = len(shown) - limit
        shown = shown[:limit]
    for cost in shown:
        entry = bands[cost]
        pruned = sum(entry["reasons"].values())
        kills = ", ".join(
            f"{reason}×{count}"
            for reason, count in sorted(
                entry["reasons"].items(), key=lambda kv: -kv[1]
            )
        )
        marks = ""
        if entry["incumbent"]:
            marks = " ★ incumbent f=" + ",".join(
                _fmt(f) for f in entry["incumbent"]
            )
        lines.append(f"cost {_fmt(cost)}  ({pruned} pruned){marks}")
        if kills:
            lines.append(f"  ├─ killed by: {kills}")
        if entry["feasible"]:
            lines.append(
                "  └─ feasible f=" +
                ",".join(_fmt(f) for f in entry["feasible"])
            )
    if truncated:
        lines.append(f"... {truncated} more cost bands (use --limit 0)")
    return "\n".join(lines)


def explain_text(
    records: List[Dict[str, Any]],
    tree: bool = False,
    limit: int = 20,
) -> str:
    """The full explain report over a trace's records."""
    blocks = [
        summary_text(records),
        stats_text(records),
        prune_text(records),
        tightness_text(records),
        phase_text(records),
    ]
    if tree:
        blocks.append(tree_text(records, limit=limit))
    return "\n\n".join(blocks) + "\n"
