"""Deterministic fault injection for the exploration runtime.

Flexibility claims about the *runtime* deserve the same standard the
paper applies to designs: quantified behaviour under disturbance.  This
module injects disturbances at three seams of the runtime —

* ``"worker"`` — fired at the top of
  :func:`repro.parallel.worker.evaluate_candidate`;
* ``"checkpoint"`` — fired right after a checkpoint record reaches
  stable storage (used to simulate a process killed at a checkpoint
  boundary);
* ``"disk"`` — fired per journal write
  (:meth:`repro.resilience.journal.JournalWriter.append`).  Actions:
  ``torn`` (half
  the record reaches disk, then the process dies —
  :class:`SimulatedCrash`), ``enospc`` (``OSError(ENOSPC)``),
  ``fsync_fail`` (data written, durability barrier fails).

A :class:`FaultPlan` decides, deterministically from its seed and
per-site call counters, whether a given firing injects a fault and
which one: a transient error, a permanent error, a worker crash
(modelled as a transient loss of the in-flight evaluation), a delay,
or a whole-process abort (:class:`SimulatedCrash`).

The ``worker``/``checkpoint`` seams call :func:`maybe_inject`,
which *performs* the generic actions.  The ``disk`` seam calls
:func:`maybe_action` instead, which only *names* the scheduled action —
tearing a record or failing an fsync needs the site's own file handle,
so the site implements the behaviour and the plan stays a pure
schedule.

Install a plan with :func:`inject` (a context manager) and keep
correctness paths honest with :func:`suppressed`, which the quarantine
rescue uses so that *injected* worker faults cannot corrupt the
fault-free inline evaluation.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from ..errors import PermanentWorkerError, TransientWorkerError

#: Disk fault actions (implemented by the ``"disk"`` seam).
DISK_ACTIONS = ("torn", "enospc", "fsync_fail")

#: Fault actions a plan may schedule.
ACTIONS = (
    "transient", "permanent", "crash", "delay", "abort"
) + DISK_ACTIONS

#: The seams at which :func:`maybe_inject` / :func:`maybe_action` fire.
SITES = ("worker", "checkpoint", "disk")


class SimulatedCrash(RuntimeError):
    """The fault harness aborted the whole exploration process.

    Raised by the ``"abort"`` action to model a hard kill at a point
    where the journal is on disk; tests catch it and resume from the
    checkpoint file exactly as they would after a real ``kill -9``.
    """


class FaultPlan:
    """A seeded, reproducible schedule of injected faults.

    ``schedule`` — explicit faults: maps a site to ``{call_index:
    action}`` (1-based call numbering per site).  Exact and fully
    deterministic; preferred in differential tests.

    ``transient_rate`` / ``permanent_rate`` / ``crash_rate`` /
    ``delay_rate`` — probabilistic faults at the ``"worker"`` site,
    decided by a :class:`random.Random` seeded with ``seed``, so a
    plan is exactly reproducible.

    ``max_faults`` — global cap on injected faults, after which the
    plan goes quiet (lets transient storms end so runs complete).
    """

    def __init__(
        self,
        seed: int = 0,
        schedule: Optional[Dict[str, Dict[int, str]]] = None,
        transient_rate: float = 0.0,
        permanent_rate: float = 0.0,
        crash_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.0,
        max_faults: Optional[int] = None,
    ) -> None:
        self.seed = seed
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
        self.transient_rate = transient_rate
        self.permanent_rate = permanent_rate
        self.crash_rate = crash_rate
        self.delay_rate = delay_rate
        self.delay_seconds = delay_seconds
        self.max_faults = max_faults
        self._rng = random.Random(seed)
        self._calls: Dict[str, int] = {site: 0 for site in SITES}
        self._injected = 0
        #: ``(site, call_index, action)`` triples actually injected.
        self.log: list = []

    def _pick(self, site: str, call_index: int) -> Optional[str]:
        action = self.schedule.get(site, {}).get(call_index)
        if action is not None:
            return action
        if site != "worker":
            return None
        roll = self._rng.random()
        threshold = 0.0
        for rate, name in (
            (self.transient_rate, "transient"),
            (self.permanent_rate, "permanent"),
            (self.crash_rate, "crash"),
            (self.delay_rate, "delay"),
        ):
            threshold += rate
            if rate > 0.0 and roll < threshold:
                return name
        return None

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
        action = self._pick(site, call_index)
        if action is None:
            return None
        self._injected += 1
        self.log.append((site, call_index, action))
        return action

    def fire(self, site: str, **context: Any) -> None:
        """One firing of the seam ``site``; may raise / crash / sleep."""
        action = self.take(site, **context)
        if action is None:
            return
        call_index = self._calls[site]
        if action == "delay":
            time.sleep(self.delay_seconds)
            return
        if action == "transient":
            raise TransientWorkerError(
                f"injected transient fault at {site}#{call_index}"
            )
        if action == "permanent":
            raise PermanentWorkerError(
                f"injected permanent fault at {site}#{call_index}"
            )
        if action == "crash":
            raise TransientWorkerError(
                f"injected worker crash at {site}#{call_index} "
                f"(modelled as a transient loss of the in-flight job)"
            )
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
_LOCAL = threading.local()


def install(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the process-wide active fault plan (or clear it).

    Also installs/clears the worker-side hook so the zero-cost default
    path in :func:`repro.parallel.worker.evaluate_candidate` stays a
    single global read when no plan is active.
    """
    global _ACTIVE
    _ACTIVE = plan
    from ..parallel import worker

    worker._FAULT_HOOK = maybe_inject if plan is not None else None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _ACTIVE


def maybe_inject(site: str, **context: Any) -> None:
    """Fire the active plan at ``site`` unless injection is suppressed."""
    plan = _ACTIVE
    if plan is not None and not getattr(_LOCAL, "suppressed", False):
        plan.fire(site, **context)


def maybe_action(site: str, **context: Any) -> Optional[str]:
    """Name the active plan's scheduled action at ``site`` (or ``None``).

    The caller-implemented twin of :func:`maybe_inject`, used by the
    ``"disk"`` seam whose faults require the site's own file handle.
    Respects :func:`suppressed`.
    """
    plan = _ACTIVE
    if plan is None or getattr(_LOCAL, "suppressed", False):
        return None
    return plan.take(site, **context)


@contextlib.contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager installing ``plan`` for the duration of a block."""
    install(plan)
    try:
        yield plan
    finally:
        install(None)


@contextlib.contextmanager
def suppressed() -> Iterator[None]:
    """Disable injection on this thread (used by rescue/verification
    paths that must run fault-free)."""
    previous = getattr(_LOCAL, "suppressed", False)
    _LOCAL.suppressed = True
    try:
        yield
    finally:
        _LOCAL.suppressed = previous


# --- cache corruption -------------------------------------------------------


def corrupt_cache_entry(
    cache, index: int = 0, flexibility_delta: float = 100.0
) -> Optional[Tuple[Any, Any]]:
    """Silently corrupt one memo-cache entry (bit-rot model).

    Mutates the ``index``-th stored outcome *without* touching its
    integrity checksum, exactly like in-memory or on-disk corruption
    would; the cache must detect the mismatch on the next ``get`` and
    re-evaluate.  Returns ``(signature, outcome)`` of the corrupted
    entry, or ``None`` when the cache holds fewer entries.
    """
    signatures = sorted(cache._entries, key=sorted)
    if index >= len(signatures):
        return None
    signature = signatures[index]
    outcome, _crc = cache._entries[signature]
    outcome.flexibility += flexibility_delta
    outcome.feasible = True
    return signature, outcome
