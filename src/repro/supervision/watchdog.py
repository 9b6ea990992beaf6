"""Bounded execution: preempt a wedged call with a typed error.

:func:`run_bounded` runs a callable on a worker thread, and if it
exceeds its budget raises a typed :class:`~repro.errors.HangError`
instead of blocking the caller forever — the wedged thread is
abandoned (daemonic, exceptions swallowed), which turns "a stuck
slice" into "a preemption the supervisor can act on".  The exploration
service bounds each job slice with it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from ..errors import HangError


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


__all__ = ["run_bounded"]
