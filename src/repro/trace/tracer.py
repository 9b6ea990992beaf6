"""Deterministic tracing of the EXPLORE search (spans + pruning audit).

A :class:`Tracer` is an optional observation seam threaded through the
explorer (:func:`repro.core.explorer.explore`, with or without budgets
and checkpoints), :func:`repro.resilience.resume_explore` and the
exploration service (:mod:`repro.service`).  It records, as plain dictionaries:

* **spans** — one ``explore_start``/``explore_end`` pair framing the
  run, one ``evaluate`` record per fully evaluated candidate (the
  binding solve + timing test), one ``incumbent`` record per
  Pareto-front update, and a ``stop`` record naming the rule that
  ended the enumeration;
* **audit records** (``level="audit"``) — one ``prune`` record for
  *every* discarded candidate, carrying a machine-readable reason from
  :data:`PRUNE_REASONS` and the numbers that justified the decision
  (estimate vs. incumbent, solver calls, achieved flexibility, ...).

Determinism contract
--------------------
Every record is emitted at the candidate's position in the
enumeration order and built only from deterministic data, mirroring
the :class:`repro.core.progress.ProgressEmitter` invariant: plain,
budgeted, checkpointed and service-multiplexed runs of the same
specification and options produce **byte-identical logical traces**.  Wall-clock lives
only in the fields named by :data:`WALL_FIELDS` (``t``/``t0``/``t1``
and the diagnostic ``diag`` payload) plus the trailing
``phase_totals`` record; :meth:`Tracer.logical_records` strips them
and :meth:`Tracer.fingerprint` hashes what remains.  Timestamps come
from an injectable clock (any object with a ``now()`` method, e.g.
:class:`repro.service.clock.ManualClock`); the default is
:func:`time.monotonic`.

A tracer with ``record_truncation=False`` (the service's per-job
configuration) suppresses budget-truncation ``stop`` records and
incomplete ``explore_end`` records, so a job preempted across many
service slices accumulates exactly the trace of one uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, Iterable, List, Optional

from ..errors import TraceError

#: Accepted tracing levels.  ``"spans"`` records the run frame,
#: evaluations, incumbents and stops; ``"audit"`` additionally records
#: one ``prune`` record per discarded candidate.
TRACE_LEVELS = ("spans", "audit")

#: Record fields carrying wall-clock (or wall-clock-derived) data,
#: excluded from the logical trace and the fingerprint.
WALL_FIELDS = frozenset({"t", "t0", "t1", "diag"})

#: Record types that exist only for the wall-clock channel.
NONLOGICAL_TYPES = frozenset({"phase_totals"})

#: The machine-readable prune-reason taxonomy (see
#: ``docs/observability.md``):
#:
#: * ``impossible_allocation`` — the possible-resource-allocation
#:   boolean equation rejected the unit set;
#: * ``useless_comm`` — the allocation contains a communication unit
#:   connecting nothing (useless-communication pruning);
#: * ``estimate_below_incumbent`` — the flexibility estimate does not
#:   exceed the incumbent bound;
#: * ``tie_higher_cost`` — under ``keep_ties``, same estimated
#:   flexibility as the incumbent at strictly higher cost;
#: * ``infeasible_binding`` — the binding solver found no feasible
#:   binding even with the timing test disabled;
#: * ``timing_test`` — structurally bindable, but the timing test
#:   (utilisation bound / exact schedule) rejected every binding;
#: * ``not_improving`` — feasible, but the achieved flexibility does
#:   not beat the incumbent;
#: * ``dominated`` — removed by the final Pareto dominance pass.
PRUNE_REASONS = (
    IMPOSSIBLE_ALLOCATION,
    USELESS_COMM,
    ESTIMATE_BELOW_INCUMBENT,
    TIE_HIGHER_COST,
    INFEASIBLE_BINDING,
    TIMING_TEST,
    NOT_IMPROVING,
    DOMINATED,
) = (
    "impossible_allocation",
    "useless_comm",
    "estimate_below_incumbent",
    "tie_higher_cost",
    "infeasible_binding",
    "timing_test",
    "not_improving",
    "dominated",
)

#: Reasons of ``stop`` records: what ended the enumeration early.
STOP_REASONS = (
    FLEXIBILITY_BOUND_REACHED,
    COST_BOUND,
    MAX_CANDIDATES,
    BUDGET,
) = (
    "flexibility_bound_reached",
    "cost_bound",
    "max_candidates",
    "budget",
)

#: Prune reasons recorded *before* a full evaluation (the candidate has
#: no ``evaluate`` record).
PRE_EVALUATION_REASONS = frozenset(
    {
        IMPOSSIBLE_ALLOCATION,
        USELESS_COMM,
        ESTIMATE_BELOW_INCUMBENT,
        TIE_HIGHER_COST,
    }
)


def compute_trace_id(spec) -> str:
    """Deterministic trace id of a specification (16 hex chars).

    The id hashes only the canonical specification document — not the
    exploration options — so plain, checkpointed and service runs of
    the same spec share one id and their events/spans can be joined (the
    service stamps it on every job event; see ``docs/formats.md``).
    """
    from ..io.json_io import spec_to_dict

    canonical = json.dumps(
        spec_to_dict(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class Tracer:
    """Collects the deterministic span/audit records of one exploration.

    Parameters
    ----------
    level:
        ``"spans"`` or ``"audit"`` (see :data:`TRACE_LEVELS`).
    clock:
        Any object with a ``now() -> float`` method (the injectable
        clock protocol of :mod:`repro.service.clock`); defaults to
        :func:`time.monotonic`.  Clock readings land only in
        wall-clock fields, never in the logical trace.
    trace_id:
        Stamped on the ``explore_start`` record and every export;
        usually :func:`compute_trace_id` of the spec.

    The per-candidate hooks (:meth:`prune`, :meth:`evaluate`,
    :meth:`incumbent`, :meth:`stop`) are called by the exploration
    loops at candidate positions; user code normally only constructs the
    tracer, passes it to ``explore(tracer=...)`` and exports the
    records (:mod:`repro.trace.export`).
    """

    __slots__ = (
        "level",
        "trace_id",
        "records",
        "record_truncation",
        "phase_totals",
        "_seq",
        "_started",
        "_now",
    )

    def __init__(
        self,
        level: str = "spans",
        clock=None,
        trace_id: Optional[str] = None,
    ) -> None:
        if level not in TRACE_LEVELS:
            raise TraceError(
                f"unknown trace level {level!r}; "
                f"expected one of {TRACE_LEVELS}"
            )
        self.level = level
        self.trace_id = trace_id
        #: The recorded events, in emission order.
        self.records: List[Dict[str, Any]] = []
        #: When ``False`` (the service's per-job setting), budget
        #: truncations — preemptions — leave no logical record.
        self.record_truncation = True
        #: Wall-clock totals per phase: ``{phase: [calls, seconds]}``.
        self.phase_totals: Dict[str, List[float]] = {}
        self._seq = 0
        self._started = False
        self._now = clock.now if clock is not None else time.monotonic

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def audit(self) -> bool:
        """Whether per-prune audit records are collected."""
        return self.level == "audit"

    def _record(self, record: Dict[str, Any]) -> None:
        record["seq"] = self._seq
        self._seq += 1
        self.records.append(record)

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by the exploration loops)
    # ------------------------------------------------------------------
    def start(
        self, design_space_size: int, f_max: float, cursor: int = 0
    ) -> None:
        """Open the root span.  Idempotent: a job resumed across
        service slices keeps one ``explore_start`` record."""
        if self._started:
            return
        self._started = True
        record: Dict[str, Any] = {
            "type": "explore_start",
            "trace": self.trace_id,
            "level": self.level,
            "design_space_size": design_space_size,
            "f_max": f_max,
            "t": self._now(),
        }
        if cursor:
            # A fresh tracer attached to a mid-run resume: the records
            # before `cursor` were traced (if at all) by a previous
            # process.  Recorded so explain() does not misreport the
            # partial trace as a complete run.
            record["resumed_from_cursor"] = cursor
        self._record(record)

    def prune(
        self, reason: str, cost: float, units: Iterable[str], **numbers: Any
    ) -> None:
        """Audit one discarded candidate (``level="audit"`` only)."""
        if self.level != "audit":
            return
        record: Dict[str, Any] = {
            "type": "prune",
            "reason": reason,
            "cost": cost,
            "units": sorted(units),
        }
        record.update(numbers)
        record["t"] = self._now()
        self._record(record)

    def evaluate(
        self,
        cost: float,
        units: Iterable[str],
        estimate: Optional[float],
        solver_calls: int,
        feasible: bool,
        flexibility: float,
        incumbent: float,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        diag: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one full candidate evaluation (binding + timing).

        ``t0``/``t1``/``diag`` belong to the wall-clock channel: the
        explorer attaches real timings and the solver's phase
        breakdown; the logical trace never depends on them.
        """
        record: Dict[str, Any] = {
            "type": "evaluate",
            "cost": cost,
            "units": sorted(units),
            "estimate": estimate,
            "solver_calls": solver_calls,
            "feasible": feasible,
            "flexibility": flexibility,
            "incumbent": incumbent,
        }
        if t0 is not None:
            record["t0"] = t0
            record["t1"] = t1 if t1 is not None else self._now()
        else:
            record["t"] = self._now()
        if diag:
            record["diag"] = diag
        self._record(record)

    def incumbent(
        self,
        cost: float,
        flexibility: float,
        units: Iterable[str],
        candidates: int,
        evaluations: int,
    ) -> None:
        """Record one Pareto-front update."""
        self._record(
            {
                "type": "incumbent",
                "cost": cost,
                "flexibility": flexibility,
                "units": sorted(units),
                "candidates": candidates,
                "evaluations": evaluations,
                "t": self._now(),
            }
        )

    def stop(self, reason: str, **fields: Any) -> None:
        """Record the rule that ended the enumeration early."""
        if reason == "budget" and not self.record_truncation:
            return
        record: Dict[str, Any] = {"type": "stop", "reason": reason}
        record.update(fields)
        record["t"] = self._now()
        self._record(record)

    def end(
        self,
        completed: bool,
        reason: Optional[str],
        candidates: int,
        evaluations: int,
        feasible: int,
        points: int,
        front: List[List[float]],
    ) -> None:
        """Close the root span with the run's summary counters."""
        if not completed and not self.record_truncation:
            return
        self._record(
            {
                "type": "explore_end",
                "completed": completed,
                "reason": reason,
                "candidates": candidates,
                "evaluations": evaluations,
                "feasible": feasible,
                "points": points,
                "front": [list(point) for point in front],
                "t": self._now(),
            }
        )

    # ------------------------------------------------------------------
    # Wall-clock channel
    # ------------------------------------------------------------------
    def charge(self, phase: str, seconds: float) -> None:
        """Accumulate wall-clock seconds against a named phase."""
        totals = self.phase_totals.get(phase)
        if totals is None:
            self.phase_totals[phase] = [1, seconds]
        else:
            totals[0] += 1
            totals[1] += seconds

    def timed(self, phase: str, fn, *args: Any) -> Any:
        """Run ``fn(*args)`` charging its duration to ``phase``."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.charge(phase, time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # Export views
    # ------------------------------------------------------------------
    def all_records(self) -> List[Dict[str, Any]]:
        """The recorded events plus the trailing ``phase_totals``
        record (the wall-clock channel's summary)."""
        records = list(self.records)
        if self.phase_totals:
            records.append(
                {
                    "type": "phase_totals",
                    "phases": {
                        phase: {"calls": int(calls), "seconds": seconds}
                        for phase, (calls, seconds) in sorted(
                            self.phase_totals.items()
                        )
                    },
                }
            )
        return records

    def logical_records(self) -> List[Dict[str, Any]]:
        """The deterministic view: wall-clock fields stripped."""
        return strip_wall_fields(self.records)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON of the logical records."""
        return trace_fingerprint(self.records)


def strip_wall_fields(
    records: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Drop wall-clock fields/records; what remains is deterministic."""
    logical = []
    for record in records:
        if record.get("type") in NONLOGICAL_TYPES:
            continue
        logical.append(
            {k: v for k, v in record.items() if k not in WALL_FIELDS}
        )
    return logical


def trace_fingerprint(records: Iterable[Dict[str, Any]]) -> str:
    """SHA-256 fingerprint of a record sequence's logical view."""
    canonical = json.dumps(
        strip_wall_fields(records), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
