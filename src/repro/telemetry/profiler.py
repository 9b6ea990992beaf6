"""Per-phase wall-clock profiling on the explorer's tracer seam.

:class:`PhaseProfiler` speaks the same ``charge(phase, seconds)`` /
``timed(phase, fn, *args)`` protocol as
:meth:`repro.trace.Tracer.charge`, so the explorer and the compiled
evaluator feed it through the seam they already have — no new instrumentation points, and nothing it records can reach
the logical (deterministic) channel.

The hot path is deliberately tiny: one dict lookup, two adds, and a
single bisect-indexed bucket increment per charge (the service
histogram's cumulative view is materialised only at export).

Charges are lock-free: each field update is a single GIL-atomic list
operation, so concurrent charging from several threads can at worst
lose an occasional increment — acceptable for wall-clock
observability, and the price of keeping the hot path unsynchronised.
"""

from __future__ import annotations

import re
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional

#: Histogram bounds (seconds) for phase charges: the explorer charges
#: per candidate, so the distribution spans microseconds to minutes.
PHASE_BUCKETS = (
    0.000001, 0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0,
)

#: Phase names become metric-name segments; anything outside the
#: Prometheus grammar is mapped to ``_``.
_PHASE_SAFE = re.compile(r"[^a-zA-Z0-9_]")


class PhaseProfiler:
    """Accumulates wall-clock per phase: calls, total, bucket counts."""

    __slots__ = ("_phases", "prefix", "_clock")

    def __init__(
        self,
        prefix: str = "repro_phase_",
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        # phase -> [calls, total_seconds, raw bucket counts (+overflow)]
        self._phases: Dict[str, List[Any]] = {}
        self.prefix = prefix
        self._clock = clock if clock is not None else time.perf_counter

    @property
    def profiler(self) -> "PhaseProfiler":
        """Self — so a bare profiler satisfies the ``telemetry`` seam
        (``Telemetry`` exposes the same attribute)."""
        return self

    def charge(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` of wall-clock to ``phase``."""
        stat = self._phases.get(phase)
        if stat is None:
            stat = self._phases[phase] = [
                0,
                0.0,
                [0] * (len(PHASE_BUCKETS) + 1),
            ]
        stat[0] += 1
        stat[1] += seconds
        stat[2][bisect_left(PHASE_BUCKETS, seconds)] += 1

    def timed(self, phase: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)``, charging its duration to ``phase``."""
        clock = self._clock
        start = clock()
        try:
            return fn(*args)
        finally:
            self.charge(phase, clock() - start)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"calls", "seconds"}}`` — the tracer's
        ``phase_totals`` shape."""
        return {
            phase: {"calls": stat[0], "seconds": stat[1]}
            for phase, stat in sorted(self._phases.items())
        }

    def export(self, registry) -> None:
        """Materialise ``<prefix><phase>_seconds`` histograms."""
        for phase in sorted(self._phases):
            calls, total, raw = self._phases[phase]
            name = self.prefix + _PHASE_SAFE.sub("_", phase) + "_seconds"
            histogram = registry.histogram(
                name,
                f"Wall-clock seconds charged to the {phase} phase.",
                PHASE_BUCKETS,
            )
            cumulative = []
            running = 0
            for count in raw[:-1]:
                running += count
                cumulative.append(running)
            histogram.restore(cumulative, total, calls)


__all__ = ["PHASE_BUCKETS", "PhaseProfiler"]
