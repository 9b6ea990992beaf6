"""The supervision plane: hang preemption and overload.

PR 2 taught the runtime to survive *crashes* (checkpoint/resume, sound
optimality gaps); this package covers the failure modes that do not
announce themselves — activities that hang rather than die, and
overload that would otherwise queue unboundedly:

* **hang preemption** (:mod:`.watchdog`) — :func:`run_bounded`
  preempts a wedged callable with a typed
  :class:`~repro.errors.HangError` instead of blocking its caller
  forever; the exploration service bounds each job slice with it;
* **admission control + load shedding** (:mod:`.admission`) — the
  service's submit queue is bounded; overload either rejects with a
  typed :class:`~repro.errors.OverloadedError` (CLI exit code 4) or
  sheds the lowest-priority queued job with a journaled ``shed``
  event.  Overload is a visible, recoverable state.

The companion chaos plane lives in :mod:`repro.resilience.faults`
(the ``"disk"`` fault site); ``tests/test_chaos.py`` proves the
trichotomy — every injected fault ends in byte-identical recovery, a
``verify_gap``-sound degraded result, or a typed loud error; never a
hang, never a silently wrong front.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionController",
    "AdmissionDecision",
    "run_bounded",
]

_LAZY = {
    "ADMISSION_POLICIES": ("admission", "ADMISSION_POLICIES"),
    "AdmissionController": ("admission", "AdmissionController"),
    "AdmissionDecision": ("admission", "AdmissionDecision"),
    "run_bounded": ("watchdog", "run_bounded"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, attribute)


def __dir__():
    return sorted(__all__)
