"""Exception hierarchy for the ``repro`` library.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish model errors from solver errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class ModelError(ReproError):
    """A hierarchical graph or specification graph is malformed.

    Raised while *building* models, e.g. duplicate names, edges that
    reference unknown nodes, or port mappings onto undeclared ports.
    """


class ValidationError(ModelError):
    """A completed model failed structural validation."""


class ActivationError(ReproError):
    """A hierarchical activation violates the activation rules 1-4."""


class BindingError(ReproError):
    """A binding request is malformed or provably infeasible."""


class InfeasibleError(ReproError):
    """No feasible implementation exists for the requested activation."""


class TimingError(ReproError):
    """A timing specification is malformed (e.g. non-positive period)."""


class ExplorationError(ReproError):
    """The design-space exploration was configured inconsistently."""


class SerializationError(ReproError):
    """A document could not be parsed into a model (or vice versa)."""


class CheckpointError(ReproError):
    """A checkpoint journal is missing, corrupt, or inconsistent."""


class TraceError(ReproError):
    """A trace was configured inconsistently or failed validation."""


class HangError(ReproError):
    """A supervised activity stopped making observable progress.

    Raised by :func:`repro.supervision.run_bounded` when a supervised
    call overruns its wall-clock budget: a service job slice that
    wedged inside an evaluation.  A hang is distinct from a failure
    (the call raised) and from mere slowness (the call finished within
    its budget): the activity is alive but not progressing, so the
    supervisor preempts it rather than waiting forever.
    """


class OverloadedError(ReproError):
    """The service declined work because its admission queue is full.

    Raised by :class:`repro.service.ExplorationService` under the
    ``"reject"`` overload policy when a submission arrives with
    ``max_queued`` jobs already queued.  Overload is a visible,
    recoverable state — the caller backs off and resubmits — never
    unbounded queue growth.  The CLI maps it to exit code 4.
    """
