"""Checkpoint/resume of EXPLORE (crash-consistent).

A checkpointed exploration journals two things into one append-only,
CRC-checked file (see :mod:`repro.resilience.journal` for the record
encoding):

* a ``header`` — the full specification document plus every parameter
  of the run, making the journal self-contained (``resume_explore``
  needs nothing else);
* ``checkpoint`` records — snapshots of the search state
  (:meth:`repro.core.explorer.ExploreState.snapshot`): the cursor
  (candidates consumed in the deterministic enumeration order), the
  incumbent front, the statistics counters and events, ``fsync``'d
  every ``checkpoint_every`` consumed candidates and at the end.

Resume restores the newest snapshot, restarts the (deterministic)
enumeration past the cursor, and continues the same driver.  Every
snapshot sits on a candidate boundary, and the state there is a
function of the candidates before it alone, so the resumed run returns
a result fingerprint identical to the uninterrupted run — ``kill -9``
at any point loses at most the work since the last checkpoint.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, NamedTuple, Optional

from ..core.explorer import (
    BUDGET,
    GEOMETRY,
    POSITION,
    RESULT,
    bound_params,
    param_names,
    run_exploration,
)
from ..core.result import ExplorationResult, Implementation
from ..errors import CheckpointError
from ..io.json_io import spec_from_dict, spec_to_dict
from ..io.result_io import implementation_from_dict, implementation_to_dict
from ..spec import SpecificationGraph
from . import faults
from .journal import JournalWriter, read_journal

logger = logging.getLogger(__name__)

#: Checkpoint-document format identifier (stored in the header record).
CHECKPOINT_FORMAT = "repro/explore-checkpoint"
#: Current checkpoint-document version.  Version 1 journals also held
#: one ``outcome`` record per evaluated candidate for a replay reader;
#: they are refused.
CHECKPOINT_VERSION = 2
#: Default cadence of fsync'd snapshots, in consumed candidates: one
#: snapshot of a full front costs about as much as a block of the
#: vectorized kernel, so snapshots come once per block.
CHECKPOINT_EVERY_DEFAULT = 4096


class CheckpointWriter:
    """Journals the snapshots of one exploration run."""

    def __init__(
        self,
        path: str,
        spec: SpecificationGraph,
        params: Dict[str, Any],
        resume_length: Optional[int] = None,
    ) -> None:
        self.path = path
        if resume_length is None:
            self._journal = JournalWriter(path, fresh=True)
            self._journal.append(
                "header",
                {
                    "format": CHECKPOINT_FORMAT,
                    "version": CHECKPOINT_VERSION,
                    "spec": spec_to_dict(spec),
                    "params": params,
                },
                sync=True,
            )
        else:
            # Continue an existing journal: chop any torn final line so
            # appended records start on a clean line boundary.
            self._journal = JournalWriter(path, truncate_to=resume_length)

    def checkpoint(
        self,
        cursor: int,
        f_cur: float,
        points: List[Implementation],
        counters: Dict[str, Any],
        events: List[Dict[str, Any]],
        completed: bool = False,
    ) -> None:
        """Journal a snapshot (fsync'd: survives a hard kill).

        Fires the ``"checkpoint"`` fault seam *after* the record is on
        stable storage, so an injected abort models a process killed at
        the worst honest moment.
        """
        self._journal.append(
            "checkpoint",
            {
                "cursor": cursor,
                "f_cur": f_cur,
                "points": [implementation_to_dict(p) for p in points],
                "stats": counters,
                "events": events,
                "completed": completed,
            },
            sync=True,
        )
        faults.maybe_inject("checkpoint", cursor=cursor)

    def close(self) -> None:
        self._journal.close()


class LoadedCheckpoint(NamedTuple):
    """Everything :func:`resume_explore` restores from a journal."""

    #: The specification the run was exploring.
    spec: SpecificationGraph
    #: The original ``explore()`` parameters (header document).
    params: Dict[str, Any]
    #: Candidates consumed at the newest checkpoint.
    cursor: int
    #: Incumbent flexibility at the newest checkpoint.
    f_cur: float
    #: Incumbent front (discovery order, pre-dominance-filter).
    points: List[Implementation]
    #: Statistics counters at the newest checkpoint.
    counters: Dict[str, Any]
    #: Degradation events recorded up to the newest checkpoint.
    events: List[Dict[str, Any]]
    #: Byte length of the journal's valid prefix (truncate-to offset).
    valid_length: int
    #: Whether the journaled run had already completed.
    completed: bool


def load_checkpoint(path: str) -> LoadedCheckpoint:
    """Parse and validate a checkpoint journal."""
    records, valid_length = read_journal(path)
    if not records:
        raise CheckpointError(f"checkpoint journal {path!r} is empty")
    first_type, header = records[0]
    if first_type != "header" or not isinstance(header, dict):
        raise CheckpointError(
            f"checkpoint journal {path!r} does not start with a header"
        )
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not an explore checkpoint: format={header.get('format')!r}"
        )
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} in {path!r} "
            f"(this release reads version {CHECKPOINT_VERSION}); "
            f"start a fresh run"
        )
    params = dict(header.get("params", {}))
    spec = spec_from_dict(header["spec"])
    snapshot: Dict[str, Any] = {
        "cursor": 0,
        "f_cur": 0.0,
        "points": [],
        "stats": {},
        "events": [],
        "completed": False,
    }
    for record_type, payload in records[1:]:
        if record_type == "checkpoint":
            snapshot = payload
        elif record_type == "header":
            raise CheckpointError(
                f"checkpoint journal {path!r} has multiple headers"
            )
        else:
            raise CheckpointError(
                f"checkpoint journal {path!r} holds an unknown "
                f"{record_type!r} record"
            )
    points = [
        implementation_from_dict(entry)
        for entry in snapshot.get("points", ())
    ]
    return LoadedCheckpoint(
        spec=spec,
        params=params,
        cursor=int(snapshot["cursor"]),
        f_cur=float(snapshot["f_cur"]),
        points=points,
        counters=dict(snapshot.get("stats", {})),
        events=list(snapshot.get("events", ())),
        valid_length=valid_length,
        completed=bool(snapshot.get("completed", False)),
    )


#: ``explore()`` keyword arguments persisted in the header and
#: restored verbatim on resume: every parameter but the per-session
#: seams.  Execution geometry and budgets are overridable on resume.
_RESUMABLE_PARAMS = param_names(RESULT, POSITION, GEOMETRY, BUDGET)
#: The resumable parameters a resume may not change: the journaled
#: snapshots and cursor were computed under them.
_FROZEN_PARAMS = param_names(RESULT, POSITION)


def header_params(options: Dict[str, Any], **values: Any) -> Dict[str, Any]:
    """The JSON-ready checkpoint-header form of a run's bound
    parameters (``values`` replace bound ones)."""
    document = bound_params(dict(options, **values), _RESUMABLE_PARAMS)
    for key in ("require_units", "forbid_units"):
        value = document[key]
        document[key] = sorted(value) if value is not None else None
    return document


def resume_explore(
    path: str,
    progress=None,
    progress_every: Optional[int] = None,
    tracer=None,
    telemetry=None,
    **overrides: Any,
) -> ExplorationResult:
    """Continue a checkpointed exploration to its (identical) result.

    Restores the newest fsync'd snapshot from ``path`` and runs the
    remaining candidates; the returned result fingerprint (Pareto
    points, statistics except wall-clock, flexibility bound) is
    identical to the run never having been interrupted.

    ``overrides`` replace header parameters for the continuation —
    useful ones are ``engine``/``checkpoint_every`` (execution geometry
    never affects results) and fresh anytime budgets
    (``deadline_seconds``/``max_evaluations`` — the deadline is
    measured from the resume, the evaluation budget is cumulative over
    the whole run, and ``None`` lifts the original budget).  Overriding
    result-affecting parameters (``backend``, ``weighted``, ...) is
    rejected — the journaled snapshots were computed under the original
    semantics.

    ``progress``/``progress_every``/``tracer``/``telemetry`` are
    per-session observation seams (never journaled): the structured
    progress callback (:mod:`repro.core.progress`), a deterministic
    :class:`repro.trace.Tracer` and a :class:`repro.telemetry.Telemetry`
    bundle for this continuation.  A tracer kept
    alive across preemption slices (the service's configuration)
    accumulates the logical trace of one uninterrupted run; a fresh
    tracer attached mid-run records from the restored cursor onward
    and marks its ``explore_start`` with ``resumed_from_cursor``.
    """
    loaded = load_checkpoint(path)
    logger.info(
        "resume: %s cursor=%d completed=%s",
        path,
        loaded.cursor,
        loaded.completed,
    )
    unknown = set(overrides) - set(_RESUMABLE_PARAMS)
    if unknown:
        raise CheckpointError(
            f"unknown resume override(s) {sorted(unknown)!r}"
        )
    bad = {
        name
        for name in overrides
        if name in _FROZEN_PARAMS
        and overrides[name] != loaded.params.get(name)
    }
    if bad:
        raise CheckpointError(
            f"cannot change result-affecting parameter(s) {sorted(bad)!r} "
            f"on resume; start a fresh run instead"
        )
    options = bound_params(loaded.params, _RESUMABLE_PARAMS)
    options.update(
        overrides,
        checkpoint=path,
        progress=progress,
        progress_every=progress_every,
        tracer=tracer,
        telemetry=telemetry,
    )
    return run_exploration(loaded.spec, options, resume=loaded)
