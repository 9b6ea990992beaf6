"""The :class:`Telemetry` bundle handed to ``explore(telemetry=...)``.

One object carrying the three runtime surfaces — a unified
:class:`~repro.telemetry.registry.MetricRegistry`, a
:class:`~repro.telemetry.resources.ResourceSampler` and a
:class:`~repro.telemetry.profiler.PhaseProfiler` — wired together so a
single export (``as_dict``/``to_prometheus``) refreshes resources and
phase histograms via the registry's collector hook.

Exploration code only ever touches ``telemetry.profiler`` (duck-typed:
a bare :class:`PhaseProfiler` also satisfies the seam), which is why
``repro.core`` needs no import of this package.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .profiler import PhaseProfiler
from .registry import MetricRegistry
from .resources import ResourceSampler


class Telemetry:
    """Registry + resource sampler + phase profiler, export-coherent."""

    def __init__(
        self,
        registry: Optional[MetricRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.sampler = ResourceSampler(clock=clock)
        self.profiler = PhaseProfiler(clock=clock)
        self.registry.register_collector(self._collect)

    def _collect(self, registry) -> None:
        self.sampler.export(registry)
        self.profiler.export(registry)

    def sample(self) -> Dict[str, Any]:
        """One resource snapshot (also refreshes sample counters)."""
        return self.sampler.snapshot()

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{"calls", "seconds"}`` accumulated so far."""
        return self.profiler.totals()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the full registry (collectors run)."""
        return self.registry.as_dict()

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the full registry."""
        return self.registry.to_prometheus()


__all__ = ["Telemetry"]
