"""Clocks of the exploration service (real and seeded-deterministic).

Every time-dependent scheduling decision — priority aging, wait-time
accounting, slice accounting — reads the service's
:class:`ServiceClock`, never ``time`` directly.  Production uses
:class:`MonotonicClock`; tests use :class:`ManualClock`, whose time
advances only when the scheduler charges it, so schedules (which job
runs which slice, in which order) are exactly reproducible and can be
asserted literally — see ``tests/test_service_scheduler.py``.
"""

from __future__ import annotations

import time


class ServiceClock:
    """The clock interface scheduling decisions are made against."""

    def now(self) -> float:
        """The current time in seconds (monotonic within a clock)."""
        raise NotImplementedError

    def advance(self, seconds: float) -> None:
        """Charge simulated elapsed time (no-op on real clocks)."""
        raise NotImplementedError


class MonotonicClock(ServiceClock):
    """Real wall-clock time (``time.monotonic``); ``advance`` is a
    no-op because real time advances by itself."""

    __slots__ = ()

    def now(self) -> float:
        return time.monotonic()

    def advance(self, seconds: float) -> None:
        pass


class ManualClock(ServiceClock):
    """A deterministic clock that moves only when told to.

    The service charges one virtual slice duration per scheduling
    decision, so under a manual clock wait times, aging and slice
    accounting are exact integers of the chosen granularity —
    independent of machine speed and OS scheduling.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards: {seconds!r}")
        self._now += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ManualClock(now={self._now!r})"
