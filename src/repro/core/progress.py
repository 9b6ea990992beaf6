"""Structured progress events for EXPLORE (the observation seam).

Long-running explorations need to be observable while they run: the
CLI prints a live status line, and the exploration service
(:mod:`repro.service`) fans job progress out to streaming subscribers
and its metrics registry.  Both consume the same seam — an
``explore(progress=...)`` callback invoked with plain-dictionary
events from positions of the candidate loop.

Determinism contract
--------------------
Events are emitted at candidate positions with enumeration-order data
only (counters, incumbent points) and carry **no wall-clock fields**,
so a plain run and any budgeted, checkpointed or resumed run of the
same exploration emit byte-identical event sequences — differentially tested in
``tests/test_progress_events.py``.  Consumers that want timestamps or
rates (the service does) attach them on receipt.

Event kinds, in order of appearance:

``explore_start``
    once, before the first candidate: ``design_space_size``, ``f_max``.
``progress``
    every ``progress_every`` enumerated candidates: ``candidates``,
    ``evaluations``, ``feasible``, ``flexibility`` (the incumbent).
``incumbent``
    whenever a new point is recorded: ``cost``, ``flexibility``,
    ``units`` (sorted), plus the ``candidates``/``evaluations``
    counters at discovery time.
``explore_end``
    once: ``completed``, ``reason`` (``None`` or the truncation
    reason), ``candidates``, ``evaluations``, ``points``.

Callbacks must not raise; an exception from a callback aborts the
exploration (it is the caller's own code) — wrap defensively when
forwarding to untrusted subscribers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import ExplorationError

#: Signature of the ``explore(progress=...)`` callback.
ProgressCallback = Callable[[Dict[str, Any]], None]

#: The event kinds, in lifecycle order.
PROGRESS_EVENT_KINDS = (
    "explore_start",
    "progress",
    "incumbent",
    "explore_end",
)


def validate_progress_options(
    progress: Optional[ProgressCallback],
    progress_every: Optional[int],
) -> None:
    """Reject unusable progress options with an :class:`ExplorationError`."""
    if progress is not None and not callable(progress):
        raise ExplorationError(
            f"progress must be callable, got {progress!r}"
        )
    if progress_every is not None and progress_every < 1:
        raise ExplorationError(
            f"progress_every must be a positive integer, "
            f"got {progress_every!r}"
        )


class ProgressEmitter:
    """Emits the structured event stream of one exploration run.

    A ``None`` callback turns every method into a cheap no-op, so the
    hot loops call unconditionally.  ``every`` is the cadence (in
    enumerated candidates) of ``progress`` events; ``None`` emits only
    the start/incumbent/end lifecycle events.
    """

    __slots__ = ("_callback", "every")

    def __init__(
        self,
        callback: Optional[ProgressCallback],
        every: Optional[int] = None,
    ) -> None:
        validate_progress_options(callback, every)
        self._callback = callback
        self.every = every

    @property
    def active(self) -> bool:
        return self._callback is not None

    def start(self, design_space_size: int, f_max: float) -> None:
        if self._callback is not None:
            self._callback(
                {
                    "kind": "explore_start",
                    "design_space_size": design_space_size,
                    "f_max": f_max,
                }
            )

    def candidate(
        self,
        candidates: int,
        evaluations: int,
        feasible: int,
        flexibility: float,
    ) -> None:
        """Called once per enumerated candidate (enumeration order)."""
        if (
            self._callback is not None
            and self.every is not None
            and candidates % self.every == 0
        ):
            self._callback(
                {
                    "kind": "progress",
                    "candidates": candidates,
                    "evaluations": evaluations,
                    "feasible": feasible,
                    "flexibility": flexibility,
                }
            )

    def incumbent(
        self,
        cost: float,
        flexibility: float,
        units,
        candidates: int,
        evaluations: int,
    ) -> None:
        if self._callback is not None:
            self._callback(
                {
                    "kind": "incumbent",
                    "cost": cost,
                    "flexibility": flexibility,
                    "units": sorted(units),
                    "candidates": candidates,
                    "evaluations": evaluations,
                }
            )

    def end(
        self,
        completed: bool,
        reason: Optional[str],
        candidates: int,
        evaluations: int,
        points: int,
    ) -> None:
        if self._callback is not None:
            self._callback(
                {
                    "kind": "explore_end",
                    "completed": completed,
                    "reason": reason,
                    "candidates": candidates,
                    "evaluations": evaluations,
                    "points": points,
                }
            )
