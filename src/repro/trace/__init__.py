"""Deterministic tracing, pruning audit and explain tooling for EXPLORE.

The observability layer of the exploration engine (see
``docs/observability.md``):

* :class:`Tracer` — spans over every search phase plus a per-candidate
  pruning audit trail, emitted at candidate positions so plain,
  budgeted, checkpointed and service runs of one spec produce
  byte-identical logical traces;
* :mod:`repro.trace.export` — JSONL span logs, Chrome trace-event JSON
  (Perfetto-loadable) and a bridge into
  :class:`repro.service.metrics.MetricsRegistry`;
* :mod:`repro.trace.explain` — the ``repro explain`` engine: search
  statistics, prune breakdowns and bound-tightness reports recovered
  from a trace alone.
"""

from .explain import (
    bound_tightness,
    explain_text,
    recompute_stats,
    tree_text,
)
from .export import (
    TRACE_FORMAT,
    TRACE_VERSION,
    bridge_trace_metrics,
    chrome_trace,
    logical_view,
    read_trace,
    trace_to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace,
)
from .tracer import (
    PRUNE_REASONS,
    STOP_REASONS,
    TRACE_LEVELS,
    Tracer,
    compute_trace_id,
    strip_wall_fields,
    trace_fingerprint,
)

__all__ = [
    "PRUNE_REASONS",
    "STOP_REASONS",
    "TRACE_FORMAT",
    "TRACE_LEVELS",
    "TRACE_VERSION",
    "Tracer",
    "bound_tightness",
    "bridge_trace_metrics",
    "chrome_trace",
    "compute_trace_id",
    "explain_text",
    "logical_view",
    "read_trace",
    "recompute_stats",
    "strip_wall_fields",
    "trace_fingerprint",
    "trace_to_jsonl",
    "tree_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_trace",
]
