"""Checkpoint/resume for the batched EXPLORE (crash-consistent).

A checkpointed exploration journals three things into one append-only,
CRC-checked file (see :mod:`repro.resilience.journal` for the record
encoding):

* a ``header`` — the full specification document plus every parameter
  of the run, making the journal self-contained (``resume_explore``
  needs nothing else);
* ``outcome`` records — one per evaluated canonical signature, written
  as soon as the outcome enters the memo cache.  These are pure cache:
  losing the tail costs recomputation, never correctness;
* ``checkpoint`` records — the replay cursor (candidates consumed in
  the deterministic enumeration order), the incumbent front, and the
  statistics counters, ``fsync``'d every ``checkpoint_every``
  candidates.

Resume rebuilds the memo cache from the outcome records, restores the
newest checkpoint, fast-forwards the (deterministic) enumerator past
the cursor, and continues the replay.  Because the replay is exactly
the serial loop (see :mod:`repro.parallel.batched`), the resumed run
returns a result fingerprint identical to the uninterrupted run —
``kill -9`` at any point loses at most the work since the last
checkpoint.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional

from ..core.explorer import (
    BUDGET,
    GEOMETRY,
    POSITION,
    RESULT,
    bound_params,
    param_names,
)
from ..core.result import ExplorationResult, ExplorationStats, Implementation
from ..errors import CheckpointError
from ..io.json_io import spec_from_dict, spec_to_dict
from ..io.result_io import implementation_from_dict, implementation_to_dict
from ..parallel.cache import EvaluationCache
from ..parallel.worker import CandidateOutcome
from ..spec import SpecificationGraph
from . import faults
from .journal import JournalWriter, read_journal

logger = logging.getLogger(__name__)

#: Checkpoint-document format identifier (stored in the header record).
CHECKPOINT_FORMAT = "repro/explore-checkpoint"
#: Current checkpoint-document version.
CHECKPOINT_VERSION = 1
#: Default replay-candidate cadence between fsync'd checkpoints.
CHECKPOINT_EVERY_DEFAULT = 64


def outcome_to_dict(outcome: CandidateOutcome) -> Dict[str, Any]:
    """JSON-ready form of one candidate outcome."""
    return {
        "possible": outcome.possible,
        "comm_pruned": outcome.comm_pruned,
        "estimate": outcome.estimate,
        "evaluated": outcome.evaluated,
        "solver_calls": outcome.solver_calls,
        "feasible": outcome.feasible,
        "flexibility": outcome.flexibility,
        "clusters": sorted(outcome.clusters),
        "coverage": [
            {
                "selection": dict(record.selection),
                "binding": dict(record.binding),
            }
            for record in outcome.coverage
        ],
    }


def outcome_from_dict(document: Dict[str, Any]) -> CandidateOutcome:
    """Rebuild a candidate outcome from its dictionary form."""
    from ..core.result import EcsRecord

    outcome = CandidateOutcome()
    try:
        outcome.possible = bool(document["possible"])
        outcome.comm_pruned = bool(document["comm_pruned"])
        estimate = document["estimate"]
        outcome.estimate = None if estimate is None else float(estimate)
        outcome.evaluated = bool(document["evaluated"])
        outcome.solver_calls = int(document["solver_calls"])
        outcome.feasible = bool(document["feasible"])
        outcome.flexibility = float(document["flexibility"])
        outcome.clusters = frozenset(document["clusters"])
        outcome.coverage = [
            EcsRecord(entry["selection"], entry["binding"])
            for entry in document["coverage"]
        ]
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"malformed outcome record: {error}"
        ) from None
    return outcome


class CheckpointWriter:
    """Journals outcomes and replay snapshots for one exploration run."""

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

    def outcome(
        self, signature: FrozenSet[str], outcome: CandidateOutcome
    ) -> None:
        """Journal one freshly evaluated outcome (flushed, not fsync'd)."""
        self._journal.append(
            "outcome",
            {"sig": sorted(signature), "outcome": outcome_to_dict(outcome)},
        )

    def checkpoint(
        self,
        cursor: int,
        f_cur: float,
        points: List[Implementation],
        stats: ExplorationStats,
        cache: EvaluationCache,
        completed: bool = False,
    ) -> None:
        """Journal a replay snapshot (fsync'd: survives a hard kill).

        Fires the ``"checkpoint"`` fault seam *after* the record is on
        stable storage, so an injected abort models a process killed at
        the worst honest moment.
        """
        # Count this checkpoint *before* snapshotting the counters: the
        # M-th record must store ``checkpoints_written == M`` so that a
        # run killed after record M and resumed writes the same total as
        # the uninterrupted run.
        stats.checkpoints_written += 1
        counters = {
            k: v
            for k, v in stats.as_dict().items()
            if k != "elapsed_seconds"
        }
        self._journal.append(
            "checkpoint",
            {
                "cursor": cursor,
                "f_cur": f_cur,
                "points": [implementation_to_dict(p) for p in points],
                "stats": counters,
                "events": list(stats.events),
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
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
    #: The original ``explore_batched`` parameters (header document).
    params: Dict[str, Any]
    #: Replay candidates consumed at the newest checkpoint.
    cursor: int
    #: Incumbent flexibility at the newest checkpoint.
    f_cur: float
    #: Incumbent front (discovery order, pre-dominance-filter).
    points: List[Implementation]
    #: Statistics counters at the newest checkpoint.
    counters: Dict[str, Any]
    #: Degradation events recorded up to the newest checkpoint.
    events: List[Dict[str, Any]]
    #: Memo cache rebuilt from every journaled outcome record.
    cache: EvaluationCache
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
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')!r}"
        )
    params = dict(header.get("params", {}))
    if params.get("shard") is not None:
        # The journal of a run over one slice of the allocation space
        # (a parameter this version no longer has): its front is not
        # the answer for the whole space, so refuse it loudly.
        raise CheckpointError(
            f"checkpoint journal {path!r} records a 'shard' run; its "
            f"front covers only part of the allocation space and it "
            f"cannot be resumed"
        )
    spec = spec_from_dict(header["spec"])
    cache = EvaluationCache()
    snapshot: Optional[Dict[str, Any]] = None
    for record_type, payload in records[1:]:
        if record_type == "outcome":
            signature = frozenset(payload["sig"])
            # keep the *first* record per signature: it was computed at
            # the lowest dispatch incumbent, which is what makes the
            # speculation-coverage invariant of the replay hold across
            # resume sessions (see docs/resilience.md).
            if signature not in cache:
                cache.put(signature, outcome_from_dict(payload["outcome"]))
        elif record_type == "checkpoint":
            snapshot = payload
        elif record_type == "header":
            raise CheckpointError(
                f"checkpoint journal {path!r} has multiple headers"
            )
    if snapshot is None:
        snapshot = {
            "cursor": 0,
            "f_cur": 0.0,
            "points": [],
            "stats": {},
            "events": [],
            "cache_hits": 0,
            "cache_misses": 0,
            "completed": False,
        }
    cache.hits = int(snapshot.get("cache_hits", 0))
    cache.misses = int(snapshot.get("cache_misses", 0))
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
        cache=cache,
        valid_length=valid_length,
        completed=bool(snapshot.get("completed", False)),
    )


#: ``explore_batched`` keyword arguments persisted in the header and
#: restored verbatim on resume: every parameter but the per-session
#: seams.  Execution geometry and budgets are overridable on resume.
_RESUMABLE_PARAMS = param_names(RESULT, POSITION, GEOMETRY, BUDGET)
#: The resumable parameters a resume may not change: the journaled
#: outcomes and cursor were computed under them.
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
    useful ones are ``batch_size``/``engine`` (execution geometry never
    affects results) and fresh anytime budgets
    (``deadline_seconds``/``max_evaluations`` — the deadline is
    measured from the resume, the evaluation budget is cumulative over
    the whole run, and ``None`` lifts the original budget).  Overriding
    result-affecting parameters (``backend``, ``weighted``, ...) is
    rejected — the journaled outcomes were computed under the original
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
    from ..parallel.batched import explore_batched

    loaded = load_checkpoint(path)
    logger.info(
        "resume: %s cursor=%d outcomes=%d completed=%s",
        path,
        loaded.cursor,
        len(loaded.cache),
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
    kwargs = bound_params(loaded.params, _RESUMABLE_PARAMS)
    kwargs.update(overrides)
    return explore_batched(
        loaded.spec,
        cache=loaded.cache,
        checkpoint=path,
        progress=progress,
        progress_every=progress_every,
        tracer=tracer,
        telemetry=telemetry,
        _resume=loaded,
        **kwargs,
    )
