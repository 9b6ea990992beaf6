"""The in-memory job object of the exploration service."""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.explorer import param_names
from ..core.result import ExplorationResult
from ..errors import ReproError
from ..io.job_io import JOB_STATES, TERMINAL_STATES
from ..spec import SpecificationGraph
from ..trace import compute_trace_id

#: ``explore()`` keyword arguments a submission may set.  Checkpointing
#: and budgets are the service's own levers — a job describes *what* to
#: explore, the service decides *how*.  ``trace`` is not an ``explore()`` parameter:
#: it asks the service to record the job's search trace ("spans" or
#: "audit", see repro.trace) into job-<id>.trace.jsonl, and is stripped
#: before explore().
SUBMIT_OPTIONS = param_names(tag="job") + ("trace",)


class ServiceError(ReproError):
    """A service request is malformed or the service cannot honour it."""


def validate_options(options: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Check a submission's explore options against :data:`SUBMIT_OPTIONS`."""
    options = dict(options or {})
    unknown = set(options) - set(SUBMIT_OPTIONS)
    if unknown:
        raise ServiceError(
            f"unknown explore option(s) {sorted(unknown)!r}; "
            f"a job may set {SUBMIT_OPTIONS}"
        )
    trace = options.get("trace")
    if trace is not None and trace not in ("spans", "audit"):
        raise ServiceError(
            f"trace option must be 'spans' or 'audit', got {trace!r}"
        )
    return options


class Job:
    """One named exploration job owned by the service."""

    __slots__ = (
        "job_id",
        "name",
        "spec",
        "options",
        "priority",
        "state",
        "submitted_at",
        "started_at",
        "finished_at",
        "slices",
        "preemptions",
        "evaluations",
        "candidates",
        "checkpoints",
        "error",
        "result",
        "recovered",
        "trace_id",
    )

    def __init__(
        self,
        job_id: str,
        name: str,
        spec: SpecificationGraph,
        options: Dict[str, Any],
        priority: float,
        submitted_at: float,
    ) -> None:
        self.job_id = job_id
        self.name = name
        self.spec = spec
        self.options = validate_options(options)
        self.priority = priority
        self.state = "queued"
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Scheduler slices this job has run.
        self.slices = 0
        #: Times a slice ended on the preemption budget (checkpointed
        #: and re-queued rather than finished).
        self.preemptions = 0
        #: Full candidate evaluations performed so far (the slice
        #: budget currency).
        self.evaluations = 0
        #: Candidates consumed so far.
        self.candidates = 0
        #: Checkpoint records written for this job so far.
        self.checkpoints = 0
        self.error: Optional[str] = None
        #: The exploration result (terminal ``completed`` state only).
        self.result: Optional[ExplorationResult] = None
        #: Whether this job was restored from the ledger by a restart.
        self.recovered = False
        #: Deterministic trace id of the job's specification — the same
        #: spec explored solo, checkpointed, or under the service
        #: carries the same id, so traces and job events can be
        #: correlated.
        self.trace_id = compute_trace_id(spec)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, state: str) -> None:
        if state not in JOB_STATES:
            raise ServiceError(f"unknown job state {state!r}")
        if self.terminal:
            raise ServiceError(
                f"job {self.job_id!r} is already {self.state}"
            )
        self.state = state

    def counters(self) -> Dict[str, Any]:
        """The progress counters journaled with each state record."""
        return {
            "slices": self.slices,
            "preemptions": self.preemptions,
            "evaluations": self.evaluations,
            "candidates": self.candidates,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id!r}, name={self.name!r}, "
            f"state={self.state!r}, priority={self.priority}, "
            f"slices={self.slices})"
        )
