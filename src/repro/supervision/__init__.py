"""The supervision plane: liveness, overload, degradation by policy.

PR 2 taught the runtime to survive *crashes* (checkpoint/resume, sound
optimality gaps); this package covers the failure modes that do not
announce themselves — processes that hang rather than die, flapping
remote hosts, and overload that would otherwise queue unboundedly:

* **heartbeats + hang detection** (:mod:`.watchdog`) — a
  :class:`Watchdog` (injectable clock, same seam as
  :mod:`repro.service.clock`) declares an activity *hung* after its
  heartbeat timeout; :func:`run_bounded` preempts a wedged callable
  with a typed :class:`~repro.errors.HangError` instead of blocking
  its caller forever.  The shard wire protocol streams ``heartbeat``
  frames (worker → coordinator, carrying cursor/evaluations) so the
  coordinator distinguishes *hung* from *dead* from merely *slow*;
* **circuit breakers** (:mod:`.breaker`) — per-worker-address
  closed/open/half-open state with a deterministic seeded probe
  schedule (the :class:`~repro.resilience.RetryPolicy` backoff shape),
  exported through the service metrics JSON + Prometheus snapshots;
* **admission control + load shedding** (:mod:`.admission`) — the
  service's submit queue is bounded; overload either rejects with a
  typed :class:`~repro.errors.OverloadedError` (CLI exit code 4) or
  sheds the lowest-priority queued job with a journaled ``shed``
  event.  Overload is a visible, recoverable state.

The companion chaos plane lives in :mod:`repro.resilience.faults`
(``"net"`` and ``"disk"`` fault sites); ``tests/test_chaos.py`` proves
the trichotomy — every injected fault ends in byte-identical recovery,
a ``verify_gap``-sound degraded result, or a typed loud error; never a
hang, never a silently wrong front.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionController",
    "AdmissionDecision",
    "BreakerRegistry",
    "CircuitBreaker",
    "HEARTBEAT_SECONDS_DEFAULT",
    "HEARTBEAT_TIMEOUT_DEFAULT",
    "Watchdog",
    "run_bounded",
]

_LAZY = {
    "ADMISSION_POLICIES": ("admission", "ADMISSION_POLICIES"),
    "AdmissionController": ("admission", "AdmissionController"),
    "AdmissionDecision": ("admission", "AdmissionDecision"),
    "BreakerRegistry": ("breaker", "BreakerRegistry"),
    "CircuitBreaker": ("breaker", "CircuitBreaker"),
    "HEARTBEAT_SECONDS_DEFAULT": ("watchdog", "HEARTBEAT_SECONDS_DEFAULT"),
    "HEARTBEAT_TIMEOUT_DEFAULT": ("watchdog", "HEARTBEAT_TIMEOUT_DEFAULT"),
    "Watchdog": ("watchdog", "Watchdog"),
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
