"""Service-wide metrics: counters, gauges, histograms; JSON + Prometheus.

A tiny, dependency-free metrics registry in the Prometheus data model.
The exploration service registers its instruments here (queue depth,
wait/slice times, evaluation throughput, preemptions, retries, ...)
and exports two snapshot forms:

* :meth:`MetricsRegistry.as_dict` — JSON-ready, for dashboards and the
  benchmarks;
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# HELP``/``# TYPE`` comments, ``_bucket``/
  ``_sum``/``_count`` histogram series with cumulative ``le`` buckets),
  validated against the format grammar in
  ``tests/test_service_metrics.py``.

The registry is deliberately synchronous and lock-protected: the
service mutates metrics from its scheduler thread and exports from
any thread.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError

#: Prometheus metric-name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets (seconds): spans sub-millisecond slices
#: to multi-minute waits.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 300.0,
)


class MetricError(ReproError):
    """A metric was declared or used inconsistently."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(
            f"invalid metric name {name!r} (must match "
            f"{_NAME_RE.pattern})"
        )
    return name


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help_text: str) -> None:
        self.name = _check_name(name)
        self.help = help_text
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc({amount!r}))"
            )
        self._value += amount

    def set_to(self, total: float) -> None:
        """Synchronise with an externally accumulated monotone total.

        Collectors that mirror another component's lifetime counters
        (warm-store hits, ...) set the absolute value
        instead of computing deltas; monotonicity is still enforced.
        """
        total = float(total)
        if total < self._value:
            raise MetricError(
                f"counter {self.name!r} cannot decrease "
                f"(set_to({total!r}) < {self._value!r})"
            )
        self._value = total

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help, "value": self._value}

    def render(self) -> List[str]:
        return [f"{self.name} {_format_value(self._value)}"]


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help_text: str) -> None:
        self.name = _check_name(name)
        self.help = help_text
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help, "value": self._value}

    def render(self) -> List[str]:
        return [f"{self.name} {_format_value(self._value)}"]


class Histogram:
    """A distribution with cumulative buckets, a sum and a count.

    Bucket bounds are upper-inclusive (`le`) as in Prometheus; the
    implicit ``+Inf`` bucket always equals the observation count.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "_raw_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = _check_name(name)
        self.help = help_text
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise MetricError(
                f"histogram {name!r} buckets must be non-empty and "
                f"sorted, got {bounds!r}"
            )
        self.bounds: Tuple[float, ...] = bounds
        # Per-bucket (non-cumulative) counts; ``bucket_counts`` exposes
        # the cumulative Prometheus view.
        self._raw_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        i = bisect_left(self.bounds, value)
        if i < len(self._raw_counts):
            self._raw_counts[i] += 1

    @property
    def bucket_counts(self) -> List[int]:
        """Cumulative per-bucket counts (the Prometheus ``le`` view)."""
        cumulative = []
        total = 0
        for raw in self._raw_counts:
            total += raw
            cumulative.append(total)
        return cumulative

    def restore(
        self,
        cumulative_counts: Sequence[int],
        total_sum: float,
        count: int,
    ) -> None:
        """Overwrite state from a snapshot (cumulative bucket counts).

        Used when reconstructing a registry from an exported document
        (``repro telemetry diff``) and when folding externally
        accumulated distributions (the phase profiler) into a registry.
        """
        if len(cumulative_counts) != len(self.bounds):
            raise MetricError(
                f"histogram {self.name!r} snapshot has "
                f"{len(cumulative_counts)} buckets, expected "
                f"{len(self.bounds)}"
            )
        previous = 0
        for i, cumulative in enumerate(cumulative_counts):
            if cumulative < previous:
                raise MetricError(
                    f"histogram {self.name!r} snapshot buckets are not "
                    f"cumulative"
                )
            self._raw_counts[i] = cumulative - previous
            previous = cumulative
        self.sum = float(total_sum)
        self.count = int(count)

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bucket bound).

        Good enough for operational percentiles (p50/p99 in the
        service bench); exact values require the raw samples.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        for bound, cumulative in zip(self.bounds, self.bucket_counts):
            if cumulative >= target:
                return bound
        return float("inf")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": {
                _format_value(bound): cumulative
                for bound, cumulative in zip(
                    self.bounds, self.bucket_counts
                )
            },
            "sum": self.sum,
            "count": self.count,
        }

    def render(self) -> List[str]:
        lines = []
        for bound, cumulative in zip(self.bounds, self.bucket_counts):
            lines.append(
                f'{self.name}_bucket{{le="{_format_value(bound)}"}} '
                f"{cumulative}"
            )
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.count}')
        lines.append(f"{self.name}_sum {_format_value(self.sum)}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without the dot)."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """A named collection of instruments with snapshot exports."""

    def __init__(self) -> None:
        self._metrics: "Dict[str, Any]" = {}
        self._lock = threading.Lock()

    def _register(self, metric):
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise MetricError(
                        f"metric {metric.name!r} already registered as "
                        f"{existing.kind}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get-or-create a counter."""
        return self._register(Counter(name, help_text))

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get-or-create a gauge."""
        return self._register(Gauge(name, help_text))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get-or-create a histogram."""
        return self._register(Histogram(name, help_text, buckets))

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every instrument (sorted by name)."""
        with self._lock:
            return {
                name: self._metrics[name].as_dict()
                for name in sorted(self._metrics)
            }

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    escaped = metric.help.replace("\\", "\\\\").replace(
                        "\n", "\\n"
                    )
                    lines.append(f"# HELP {name} {escaped}")
                lines.append(f"# TYPE {name} {metric.kind}")
                lines.extend(metric.render())
        return "\n".join(lines) + "\n"
