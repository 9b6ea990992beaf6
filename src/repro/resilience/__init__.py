"""Fault-tolerant, anytime exploration runtime.

The EXPLORE branch-and-bound is NP-complete; production runs are long,
get preempted, and hit flaky hosts.  This package makes the explorer
return a *valid, bounded* answer under all of that:

* **checkpoint/resume** (:mod:`.checkpoint`, :mod:`.journal`) —
  ``explore(..., checkpoint=path)`` journals snapshots of the search
  state to an append-only CRC-checked file; :func:`resume_explore`
  continues a killed run to a result fingerprint identical to the
  uninterrupted run;
* **anytime deadlines** (:mod:`.anytime`) — ``deadline_seconds=`` /
  ``max_evaluations=`` stop gracefully with the best-so-far front, an
  explicit :class:`~repro.core.result.OptimalityGap`, and
  ``completed=False``;
* a **fault-injection harness** (:mod:`.faults`) — deterministic
  process aborts at a checkpoint plus the ``"disk"`` (torn write /
  ENOSPC / fsync failure) seam for the chaos matrix in
  ``tests/test_chaos.py``.

Submodules are imported lazily (PEP 562): :mod:`.checkpoint` imports
the explorer, which imports this package's :mod:`.anytime` only when a
run has a budget.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "AnytimeBudget",
    "CHECKPOINT_EVERY_DEFAULT",
    "CheckpointWriter",
    "FaultPlan",
    "JournalWriter",
    "LoadedCheckpoint",
    "OptimalityGap",
    "SimulatedCrash",
    "inject",
    "load_checkpoint",
    "maybe_action",
    "read_journal",
    "resume_explore",
    "verify_gap",
]

_LAZY = {
    "AnytimeBudget": ("anytime", "AnytimeBudget"),
    "verify_gap": ("anytime", "verify_gap"),
    "OptimalityGap": ("anytime", "OptimalityGap"),
    "CHECKPOINT_EVERY_DEFAULT": ("checkpoint", "CHECKPOINT_EVERY_DEFAULT"),
    "CheckpointWriter": ("checkpoint", "CheckpointWriter"),
    "LoadedCheckpoint": ("checkpoint", "LoadedCheckpoint"),
    "load_checkpoint": ("checkpoint", "load_checkpoint"),
    "resume_explore": ("checkpoint", "resume_explore"),
    "FaultPlan": ("faults", "FaultPlan"),
    "SimulatedCrash": ("faults", "SimulatedCrash"),
    "inject": ("faults", "inject"),
    "maybe_action": ("faults", "maybe_action"),
    "JournalWriter": ("journal", "JournalWriter"),
    "read_journal": ("journal", "read_journal"),
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
