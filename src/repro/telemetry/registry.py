"""The unified metric registry: collectors, validation, snapshots.

:class:`MetricRegistry` extends the service's
:class:`~repro.service.metrics.MetricsRegistry` with *collectors* —
callables invoked in registration order immediately before every
snapshot export (``as_dict``/``to_prometheus``), so surfaces whose
truth lives elsewhere (process resources, warm-store counters) are
always current without a background thread.  A
collector that raises never breaks an export; failures are counted on
``repro_telemetry_collector_errors_total``.

The module also provides the snapshot algebra behind
``repro telemetry dump|diff``: :func:`registry_from_snapshot`
reconstructs a registry from an exported ``metrics.json`` document and
:func:`diff_snapshots` reports what changed between two exports.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from ..service.metrics import (
    MetricError,
    MetricsRegistry,
    _NAME_RE,
)

#: Suffixes a histogram expands into in the exposition format; a scalar
#: metric whose name collides with an expansion corrupts the export.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")

#: Counter of collector callbacks that raised during an export.
COLLECTOR_ERRORS_METRIC = "repro_telemetry_collector_errors_total"


class MetricRegistry(MetricsRegistry):
    """One namespace for every metric surface, refreshed on export."""

    def __init__(self) -> None:
        super().__init__()
        self._collectors: List[Callable[["MetricRegistry"], None]] = []
        self._collector_lock = threading.Lock()

    def register_collector(
        self, collect: Callable[["MetricRegistry"], None]
    ) -> None:
        """Add ``collect(registry)`` to run before every export.

        Registration is idempotent by identity; collectors run in
        registration order.
        """
        with self._collector_lock:
            if all(existing is not collect for existing in self._collectors):
                self._collectors.append(collect)

    def collect(self) -> None:
        """Run every registered collector once (export freshness)."""
        with self._collector_lock:
            collectors = list(self._collectors)
        for collect in collectors:
            try:
                collect(self)
            except Exception:
                # Observability must never take the observed system
                # down; surface the failure as a metric instead.
                self.counter(
                    COLLECTOR_ERRORS_METRIC,
                    "Collector callbacks that raised during export.",
                ).inc()

    def as_dict(self) -> Dict[str, Any]:
        self.collect()
        return super().as_dict()

    def to_prometheus(self) -> str:
        self.collect()
        return super().to_prometheus()

    def validate(self, strict: bool = False) -> List[str]:
        """Check the merged namespace for grammar and collisions.

        Returns a list of problem descriptions (empty means the export
        is sound); with ``strict=True`` raises :class:`MetricError`
        instead of returning problems.
        """
        with self._lock:
            metrics = dict(self._metrics)
        problems: List[str] = []
        for name in sorted(metrics):
            if not _NAME_RE.match(name):
                problems.append(f"invalid metric name {name!r}")
        for name in sorted(metrics):
            metric = metrics[name]
            if metric.kind != "histogram":
                continue
            for suffix in _HISTOGRAM_SUFFIXES:
                other = metrics.get(name + suffix)
                if other is not None:
                    problems.append(
                        f"histogram {name!r} series {name + suffix!r} "
                        f"collides with registered {other.kind}"
                    )
        if strict and problems:
            raise MetricError(
                "metric namespace validation failed: "
                + "; ".join(problems)
            )
        return problems


def _parse_bound(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def load_snapshot(
    registry: MetricsRegistry, document: Dict[str, Any]
) -> None:
    """Load an exported ``as_dict`` document into ``registry``."""
    for name, entry in document.items():
        if not isinstance(entry, dict):
            raise MetricError(f"snapshot entry {name!r} is not an object")
        kind = entry.get("kind")
        help_text = entry.get("help", "")
        if kind == "counter":
            registry.counter(name, help_text).set_to(
                float(entry.get("value", 0.0))
            )
        elif kind == "gauge":
            registry.gauge(name, help_text).set(
                float(entry.get("value", 0.0))
            )
        elif kind == "histogram":
            buckets = entry.get("buckets", {})
            # A JSON round-trip (sort_keys) orders the bound keys
            # lexically; re-sort numerically before reconstructing.
            pairs = sorted(
                ((_parse_bound(key), int(value))
                 for key, value in buckets.items()),
            )
            histogram = registry.histogram(
                name, help_text, [bound for bound, _ in pairs]
            )
            histogram.restore(
                [count for _, count in pairs],
                float(entry.get("sum", 0.0)),
                int(entry.get("count", 0)),
            )
        else:
            raise MetricError(
                f"snapshot entry {name!r} has unknown kind {kind!r}"
            )


def registry_from_snapshot(document: Dict[str, Any]) -> MetricRegistry:
    """Reconstruct a registry from an exported ``metrics.json`` doc."""
    registry = MetricRegistry()
    load_snapshot(registry, document)
    return registry


def _scalar_view(entry: Optional[Dict[str, Any]]) -> Any:
    if entry is None:
        return None
    if entry.get("kind") == "histogram":
        return {"count": entry.get("count"), "sum": entry.get("sum")}
    return entry.get("value")


def diff_snapshots(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """What changed between two ``as_dict`` documents.

    Maps each added, removed, or changed metric name to
    ``{"kind", "change", "before", "after"[, "delta"]}``; unchanged
    metrics are omitted.  Histograms compare by ``(count, sum)``.
    """
    changes: Dict[str, Dict[str, Any]] = {}
    for name in sorted(set(before) | set(after)):
        entry_a = before.get(name)
        entry_b = after.get(name)
        view_a = _scalar_view(entry_a)
        view_b = _scalar_view(entry_b)
        if entry_a is not None and entry_b is not None and view_a == view_b:
            continue
        source = entry_b if entry_b is not None else entry_a
        change = {
            "kind": source.get("kind") if source else None,
            "change": (
                "added"
                if entry_a is None
                else "removed" if entry_b is None else "changed"
            ),
            "before": view_a,
            "after": view_b,
        }
        if isinstance(view_a, (int, float)) and isinstance(
            view_b, (int, float)
        ):
            change["delta"] = view_b - view_a
        changes[name] = change
    return changes


__all__ = [
    "COLLECTOR_ERRORS_METRIC",
    "MetricRegistry",
    "diff_snapshots",
    "load_snapshot",
    "registry_from_snapshot",
]
