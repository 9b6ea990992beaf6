"""Runtime telemetry plane: unified metrics, resources, `top`.

Everything in this package lives strictly on the *wall-clock* side of
the determinism seam (``docs/observability.md``): with telemetry on or
off, exploration results, progress events and logical trace
fingerprints are byte-identical.  The plane has three parts:

* :class:`MetricRegistry` — one namespace absorbing the service
  instruments, warm-store counters and trace-bridge
  metrics, with registered *collectors* refreshed before every export
  and a :meth:`MetricRegistry.validate` grammar/collision check;
* :class:`ResourceSampler` and :class:`PhaseProfiler` — process
  resources (RSS, CPU via ``os.times``/``resource``, GC) and
  per-phase wall-clock histograms riding the explorer's existing
  injectable-clock seam, bundled by :class:`Telemetry` for
  ``explore(telemetry=...)``;
* operator surfaces — :func:`top_snapshot`/:func:`run_top` behind
  ``repro top``, and snapshot reconstruction/diffing behind
  ``repro telemetry dump|diff``.
"""

from .registry import (
    MetricRegistry,
    diff_snapshots,
    load_snapshot,
    registry_from_snapshot,
)
from .resources import ResourceSampler
from .profiler import PHASE_BUCKETS, PhaseProfiler
from .runtime import Telemetry
from .bridge import export_store_metrics, store_collector
from .top import format_top, run_top, top_snapshot

__all__ = [
    "MetricRegistry",
    "PHASE_BUCKETS",
    "PhaseProfiler",
    "ResourceSampler",
    "Telemetry",
    "diff_snapshots",
    "export_store_metrics",
    "format_top",
    "load_snapshot",
    "registry_from_snapshot",
    "run_top",
    "store_collector",
    "top_snapshot",
]
