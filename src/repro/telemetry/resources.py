"""Process resource sampling: RSS, CPU time, GC — stdlib only.

:class:`ResourceSampler` reads what the standard library exposes
without a single dependency: CPU time from :func:`os.times`, peak RSS
from :mod:`resource` (``ru_maxrss``; kilobytes on Linux, bytes on
macOS — normalised to bytes here, 0 where the module is unavailable),
and collector pressure from :mod:`gc`.  Snapshots are plain dicts, and
:meth:`ResourceSampler.export` mirrors them into ``repro_process_*``
gauges.

Sampling reads OS accounting and never touches exploration state, so
it sits entirely on the wall-clock side of the determinism seam.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from typing import Any, Callable, Dict, Optional

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None

#: ``ru_maxrss`` unit: bytes on macOS, kilobytes everywhere else.
_RSS_SCALE = 1 if sys.platform == "darwin" else 1024

#: Gauge help text per snapshot key.
_HELP = {
    "rss_max_bytes": "Peak resident set size of the process (bytes).",
    "cpu_user_seconds": "User CPU time consumed by the process.",
    "cpu_system_seconds": "System CPU time consumed by the process.",
    "uptime_seconds": "Seconds since the sampler was created.",
    "gc_collections": "Cyclic garbage collections across generations.",
    "gc_collected": "Objects reclaimed by the cyclic collector.",
    "gc_uncollectable": "Objects the cyclic collector could not free.",
    "gc_objects": "Currently tracked objects (sum of generation counts).",
}


class ResourceSampler:
    """Point-in-time process resource snapshots, exportable as gauges.

    ``clock`` is injectable (monotonic seconds) so uptime is testable;
    everything else reads OS accounting at call time.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        prefix: str = "repro_process_",
    ) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self.prefix = prefix
        self.samples = 0
        self._start = self._clock()

    def snapshot(self) -> Dict[str, Any]:
        """One resource reading as a JSON-ready dict (keys of ``_HELP``)."""
        times = os.times()
        snap: Dict[str, Any] = {
            "rss_max_bytes": 0,
            "cpu_user_seconds": times.user,
            "cpu_system_seconds": times.system,
            "uptime_seconds": max(0.0, self._clock() - self._start),
            "gc_collections": 0,
            "gc_collected": 0,
            "gc_uncollectable": 0,
            "gc_objects": sum(gc.get_count()),
        }
        if _resource is not None:
            usage = _resource.getrusage(_resource.RUSAGE_SELF)
            snap["rss_max_bytes"] = int(usage.ru_maxrss) * _RSS_SCALE
        for stat in gc.get_stats():
            snap["gc_collections"] += int(stat.get("collections", 0))
            snap["gc_collected"] += int(stat.get("collected", 0))
            snap["gc_uncollectable"] += int(stat.get("uncollectable", 0))
        self.samples += 1
        return snap

    def export(self, registry) -> Dict[str, Any]:
        """Take a snapshot and mirror it into ``<prefix>*`` gauges."""
        snap = self.snapshot()
        for key, value in snap.items():
            registry.gauge(self.prefix + key, _HELP[key]).set(float(value))
        registry.counter(
            self.prefix + "samples_total",
            "Resource snapshots taken by this process.",
        ).set_to(self.samples)
        return snap


__all__ = ["ResourceSampler"]
