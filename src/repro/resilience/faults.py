"""Deterministic fault injection for the exploration runtime.

Flexibility claims about the *runtime* deserve the same standard the
paper applies to designs: quantified behaviour under disturbance.  This
module injects disturbances at two seams of the checkpoint journal —

* ``"checkpoint"`` — fired right after a checkpoint record reaches
  stable storage; its ``abort`` action raises :class:`SimulatedCrash`
  (a process killed at a checkpoint boundary);
* ``"disk"`` — fired per journal write
  (:meth:`repro.resilience.journal.JournalWriter.append`).  Actions:
  ``torn`` (half the record reaches disk, then the process dies —
  :class:`SimulatedCrash`), ``enospc`` (``OSError(ENOSPC)``),
  ``fsync_fail`` (data written, durability barrier fails).

A :class:`FaultPlan` is an explicit schedule: per site, the 1-based
call numbers that inject a fault and the action each injects.

The ``checkpoint`` seam calls :func:`maybe_inject`, which *performs*
the abort.  The ``disk`` seam calls :func:`maybe_action` instead,
which only *names* the scheduled action — tearing a record or failing
an fsync needs the site's own file handle, so the site implements the
behaviour and the plan stays a pure schedule.  Install a plan with
:func:`inject` (a context manager).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional

#: Disk fault actions (implemented by the ``"disk"`` seam).
DISK_ACTIONS = ("torn", "enospc", "fsync_fail")

#: Fault actions a plan may schedule.
ACTIONS = ("abort",) + DISK_ACTIONS

#: The seams at which :func:`maybe_inject` / :func:`maybe_action` fire.
SITES = ("checkpoint", "disk")


class SimulatedCrash(RuntimeError):
    """The fault harness aborted the whole exploration process.

    Raised by the ``"abort"`` action to model a hard kill at a point
    where the journal is on disk; tests catch it and resume from the
    checkpoint file exactly as they would after a real ``kill -9``.
    """


class FaultPlan:
    """A reproducible schedule of injected faults.

    ``schedule`` — maps a site to ``{call_index: action}`` (1-based
    call numbering per site).

    ``max_faults`` — global cap on injected faults, after which the
    plan goes quiet.
    """

    def __init__(
        self,
        schedule: Optional[Dict[str, Dict[int, str]]] = None,
        max_faults: Optional[int] = None,
    ) -> None:
        self.schedule = {
            site: dict(indices) for site, indices in (schedule or {}).items()
        }
        for site in self.schedule:
            if site not in SITES:
                raise ValueError(f"unknown fault site {site!r}")
        for indices in self.schedule.values():
            for action in indices.values():
                if action not in ACTIONS:
                    raise ValueError(f"unknown fault action {action!r}")
        self.max_faults = max_faults
        self._calls: Dict[str, int] = {site: 0 for site in SITES}
        self._injected = 0
        #: ``(site, call_index, action)`` triples actually injected.
        self.log: list = []

    def take(self, site: str, **context: Any) -> Optional[str]:
        """Count one firing of ``site``; name the scheduled action.

        Returns the action name (logged, counted against
        ``max_faults``) or ``None``.  The caller implements the
        behaviour — this is the API of the ``"disk"`` seam, whose
        faults need the site's own file handle.
        """
        self._calls[site] = self._calls.get(site, 0) + 1
        call_index = self._calls[site]
        if self.max_faults is not None and self._injected >= self.max_faults:
            return None
        action = self.schedule.get(site, {}).get(call_index)
        if action is None:
            return None
        self._injected += 1
        self.log.append((site, call_index, action))
        return action

    def fire(self, site: str, **context: Any) -> None:
        """One firing of the seam ``site``; may abort the process."""
        action = self.take(site, **context)
        if action is None:
            return
        if action == "abort":
            raise SimulatedCrash(
                f"injected process abort at {site}#{self._calls[site]}"
            )
        raise ValueError(
            f"action {action!r} scheduled at generic seam {site!r}; "
            f"disk actions are implemented by their seam via "
            f"maybe_action()"
        )


# --- plan installation ------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the process-wide active fault plan (or clear it)."""
    global _ACTIVE
    _ACTIVE = plan


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _ACTIVE


def maybe_inject(site: str, **context: Any) -> None:
    """Fire the active plan at ``site``."""
    if _ACTIVE is not None:
        _ACTIVE.fire(site, **context)


def maybe_action(site: str, **context: Any) -> Optional[str]:
    """Name the active plan's scheduled action at ``site`` (or ``None``).

    The caller-implemented twin of :func:`maybe_inject`, used by the
    ``"disk"`` seam whose faults require the site's own file handle.
    """
    if _ACTIVE is None:
        return None
    return _ACTIVE.take(site, **context)


@contextlib.contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager installing ``plan`` for the duration of a block."""
    install(plan)
    try:
        yield plan
    finally:
        install(None)
