"""Liveness supervision: heartbeats, hang detection, bounded execution.

The runtime already survives *deaths* (a killed worker drops its
connection; a killed service restarts from its ledger).  This module
covers the nastier half of real failure — activities that are alive
but not progressing.  A :class:`Watchdog` tracks per-key heartbeats
against an injectable clock (the same seam as
:mod:`repro.service.clock`, so tests drive it with a
:class:`~repro.service.clock.ManualClock`) and declares a key *hung*
once ``timeout_seconds`` pass without a beat.  :func:`run_bounded`
applies the same discipline to a single callable: run it on a worker
thread, and if it exceeds its budget raise a typed
:class:`~repro.errors.HangError` instead of blocking the caller
forever — the wedged thread is abandoned (daemonic, exceptions
swallowed), which turns "a stuck slice" into "a preemption the
supervisor can act on".

Terminology used across the supervision plane:

``dead``
    The peer is gone — the OS says so (``ConnectionError``).
``hung``
    The peer is reachable but silent past the heartbeat timeout.
``slow``
    Heartbeats keep arriving; the activity merely takes long.  A slow
    activity is never preempted by the watchdog.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..errors import HangError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.clock import ServiceClock


def _default_clock():
    # Imported lazily: the service package imports this module, so a
    # top-level import of repro.service.clock would be a cycle.
    from ..service.clock import MonotonicClock

    return MonotonicClock()

#: Default heartbeat cadence (seconds) of supervised remote runs.
HEARTBEAT_SECONDS_DEFAULT = 1.0

#: Default silence (seconds) after which a supervised activity is
#: declared hung.  Generous relative to the heartbeat cadence so GC
#: pauses and scheduler hiccups never trip it.
HEARTBEAT_TIMEOUT_DEFAULT = 30.0


class Watchdog:
    """Per-key hang detection against an injectable clock.

    ``arm(key)`` starts (or restarts) supervision of a key;
    ``beat(key, **info)`` records a liveness proof (the latest ``info``
    — cursor, evaluations — is kept for diagnostics); ``expired(key)``
    and ``check()`` report keys whose last beat is older than
    ``timeout_seconds``.  The watchdog never acts on its own: the
    owning supervisor decides what a hang means (failover, preemption,
    quarantine).
    """

    def __init__(
        self,
        timeout_seconds: float = HEARTBEAT_TIMEOUT_DEFAULT,
        clock: Optional["ServiceClock"] = None,
    ) -> None:
        if timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be > 0, got {timeout_seconds!r}"
            )
        self.timeout_seconds = timeout_seconds
        self.clock = clock if clock is not None else _default_clock()
        self._last_beat: Dict[str, float] = {}
        self._info: Dict[str, Dict[str, Any]] = {}
        self._beats: Dict[str, int] = {}

    def arm(self, key: str) -> None:
        """Begin supervising ``key`` (counts as a beat at time zero)."""
        self._last_beat[key] = self.clock.now()
        self._info.setdefault(key, {})
        self._beats.setdefault(key, 0)

    def beat(self, key: str, **info: Any) -> None:
        """Record a liveness proof for ``key``."""
        self._last_beat[key] = self.clock.now()
        self._beats[key] = self._beats.get(key, 0) + 1
        if info:
            self._info.setdefault(key, {}).update(info)

    def disarm(self, key: str) -> None:
        """Stop supervising ``key`` (activity finished or failed)."""
        self._last_beat.pop(key, None)

    def beats(self, key: str) -> int:
        """Heartbeats recorded for ``key`` (excluding the arming one)."""
        return self._beats.get(key, 0)

    def info(self, key: str) -> Dict[str, Any]:
        """The latest heartbeat payload of ``key`` (diagnostics)."""
        return dict(self._info.get(key, {}))

    def silence(self, key: str) -> Optional[float]:
        """Seconds since the last beat of ``key`` (``None`` unarmed)."""
        last = self._last_beat.get(key)
        if last is None:
            return None
        return max(0.0, self.clock.now() - last)

    def expired(self, key: str) -> bool:
        """``True`` when ``key`` is armed and silent past the timeout."""
        silence = self.silence(key)
        return silence is not None and silence > self.timeout_seconds

    def check(self) -> List[str]:
        """Every armed key currently past its timeout (sorted)."""
        return sorted(k for k in self._last_beat if self.expired(k))


def run_bounded(
    fn: Callable[[], Any],
    timeout_seconds: Optional[float],
    name: str = "supervised",
):
    """Run ``fn()`` with a wall-clock bound; raise on overrun.

    Returns ``fn()``'s value, re-raises its exception, or raises
    :class:`HangError` after ``timeout_seconds`` — in which case the
    worker thread is *abandoned* (daemonic; any late exception is
    swallowed) so the caller's slot frees immediately.  With
    ``timeout_seconds=None`` the call is unsupervised and runs inline
    (zero threads, zero overhead).
    """
    if timeout_seconds is None:
        return fn()
    if timeout_seconds <= 0:
        raise ValueError(
            f"timeout_seconds must be > 0, got {timeout_seconds!r}"
        )
    box: Dict[str, Any] = {}
    done = threading.Event()

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as error:  # noqa: BLE001 - relayed below
            box["error"] = error
        finally:
            done.set()

    thread = threading.Thread(
        target=target, name=f"{name}-bounded", daemon=True
    )
    thread.start()
    if not done.wait(timeout_seconds):
        raise HangError(
            f"{name} exceeded its {timeout_seconds:g}s watchdog budget "
            f"(abandoned; the wedged thread no longer holds the slot)"
        )
    if "error" in box:
        raise box["error"]
    return box.get("value")


__all__ = [
    "HEARTBEAT_SECONDS_DEFAULT",
    "HEARTBEAT_TIMEOUT_DEFAULT",
    "Watchdog",
    "run_bounded",
]
