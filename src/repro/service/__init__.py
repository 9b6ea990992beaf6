"""The exploration service: multi-job queue, scheduler, observation.

An in-process service (:class:`ExplorationService`) that accepts many
named exploration jobs, runs them in-process under a deterministic
stride scheduler with checkpoint-preemption
time-slicing, and exposes streaming per-job events plus a service-wide
metrics registry (JSON + Prometheus text).  The durable substrate —
job ledger, spool, checkpoints, event files — is
:mod:`repro.io.job_io`; see ``docs/service.md`` for the design.
"""

from .clock import ManualClock, MonotonicClock, ServiceClock
from .events import SERVICE_EVENT_KINDS, EventBus, Subscription
from .job import SUBMIT_OPTIONS, Job, ServiceError, validate_options
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from .scheduler import STRIDE_SCALE, SchedulerError, StrideScheduler
from .service import (
    PROGRESS_EVERY_DEFAULT,
    SLICE_EVALUATIONS_DEFAULT,
    ExplorationService,
)

__all__ = [
    "Counter",
    "EventBus",
    "ExplorationService",
    "Gauge",
    "Histogram",
    "Job",
    "ManualClock",
    "MetricError",
    "MetricsRegistry",
    "MonotonicClock",
    "PROGRESS_EVERY_DEFAULT",
    "SERVICE_EVENT_KINDS",
    "SLICE_EVALUATIONS_DEFAULT",
    "STRIDE_SCALE",
    "SUBMIT_OPTIONS",
    "SchedulerError",
    "ServiceClock",
    "ServiceError",
    "StrideScheduler",
    "Subscription",
    "validate_options",
]
