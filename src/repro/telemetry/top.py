"""``repro top`` — a live operator view of a service directory.

Reads what a running (or finished) ``repro serve`` left on disk — the
job ledger, the exported ``metrics.json``, and each job's event stream
— and renders a refreshing terminal summary: service-level counters
on top, one row per job below.  Everything is read-only and tolerant of
torn/partial files, so ``repro top`` can point at a directory that a
live service is writing this instant.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, TextIO

from ..io import job_io

#: Job-row fields pulled from the newest matching event.
_PROGRESS_FIELDS = ("candidates", "evaluations", "flexibility")

#: ANSI clear-screen + home; used between refreshes.
_CLEAR = "\x1b[2J\x1b[H"


def _read_metrics(directory: str) -> Dict[str, Any]:
    path = job_io.metrics_json_path(directory)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return {}
    return document if isinstance(document, dict) else {}


def _metric_value(metrics: Dict[str, Any], name: str) -> Optional[float]:
    entry = metrics.get(name)
    if isinstance(entry, dict) and isinstance(
        entry.get("value"), (int, float)
    ):
        return entry["value"]
    return None


def _job_events(directory: str, job_id: str) -> Dict[str, Any]:
    """Newest progress fields + last event kind for one job."""
    state: Dict[str, Any] = {}
    path = job_io.events_path(directory, job_id)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # torn tail write of a live service
                if not isinstance(event, dict):
                    continue
                state["last_kind"] = event.get("kind")
                for field in _PROGRESS_FIELDS:
                    if field in event:
                        state[field] = event[field]
                if event.get("kind") == "incumbent":
                    state["flexibility"] = event.get("flexibility")
                    state["cost"] = event.get("cost")
    except OSError:
        pass
    return state


def top_snapshot(directory: str) -> Dict[str, Any]:
    """One read of the directory: metrics + per-job rows (JSON-ready)."""
    metrics = _read_metrics(directory)
    jobs: List[Dict[str, Any]] = []
    try:
        ledger = job_io.read_job_ledger(job_io.ledger_path(directory))
    except (OSError, ValueError):
        ledger = {}
    for job_id in sorted(ledger):
        entry = ledger[job_id]
        row: Dict[str, Any] = {
            "job": job_id,
            "name": entry.name,
            "state": entry.state,
            "priority": entry.priority,
        }
        row.update(_job_events(directory, job_id))
        jobs.append(row)
    states: Dict[str, int] = {}
    for row in jobs:
        states[row["state"]] = states.get(row["state"], 0) + 1
    return {
        "directory": os.path.abspath(directory),
        "jobs": jobs,
        "states": states,
        "metrics": {
            name: _metric_value(metrics, name)
            for name in (
                "repro_jobs_running",
                "repro_queue_depth",
                "repro_slices_total",
                "repro_evaluations_total",
                "repro_process_rss_max_bytes",
                "repro_process_cpu_user_seconds",
                "repro_store_hits_total",
                "repro_store_misses_total",
            )
            if _metric_value(metrics, name) is not None
        },
    }


def _fmt(value: Any, width: int) -> str:
    if value is None:
        text = "-"
    elif isinstance(value, float):
        text = f"{value:.4g}"
    else:
        text = str(value)
    return text[:width].ljust(width)


def format_top(snapshot: Dict[str, Any]) -> str:
    """Render a snapshot as the fixed-width ``repro top`` screen."""
    lines = [f"repro top — {snapshot['directory']}"]
    states = snapshot.get("states", {})
    if states:
        summary = ", ".join(
            f"{count} {state}" for state, count in sorted(states.items())
        )
        lines.append(f"jobs: {summary}")
    metrics = snapshot.get("metrics", {})
    if metrics:
        parts = []
        for name, value in sorted(metrics.items()):
            short = name.replace("repro_", "", 1)
            parts.append(f"{short}={_fmt(value, 14).strip()}")
        lines.append("metrics: " + "  ".join(parts))
    lines.append("")
    lines.append(
        _fmt("JOB", 10)
        + _fmt("NAME", 16)
        + _fmt("STATE", 10)
        + _fmt("PRI", 4)
        + _fmt("CAND", 8)
        + _fmt("EVAL", 8)
        + _fmt("FLEX", 8)
        + _fmt("LAST", 12)
    )
    for row in snapshot.get("jobs", []):
        lines.append(
            _fmt(row.get("job"), 10)
            + _fmt(row.get("name"), 16)
            + _fmt(row.get("state"), 10)
            + _fmt(row.get("priority"), 4)
            + _fmt(row.get("candidates"), 8)
            + _fmt(row.get("evaluations"), 8)
            + _fmt(row.get("flexibility"), 8)
            + _fmt(row.get("last_kind"), 12)
        )
    if not snapshot.get("jobs"):
        lines.append("(no jobs)")
    return "\n".join(lines)


def run_top(
    directory: str,
    out: TextIO,
    refresh: float = 1.0,
    iterations: Optional[int] = None,
    clear: bool = True,
    as_json: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """The ``repro top`` loop: snapshot, render, sleep, repeat.

    ``iterations=None`` refreshes until interrupted; tests pass a small
    count and a no-op ``sleep``.  Returns the number of refreshes.
    """
    shown = 0
    while iterations is None or shown < iterations:
        snapshot = top_snapshot(directory)
        if as_json:
            out.write(json.dumps(snapshot, sort_keys=True) + "\n")
        else:
            if clear and shown:
                out.write(_CLEAR)
            out.write(format_top(snapshot) + "\n")
        out.flush()
        shown += 1
        if iterations is not None and shown >= iterations:
            break
        try:
            sleep(refresh)
        except KeyboardInterrupt:
            break
    return shown


__all__ = ["format_top", "run_top", "top_snapshot"]
