"""Batched EXPLORE with a deterministic replay reduction.

The exploration pulls candidates from the cost-ordered enumerator in
batches, evaluates the incumbent-independent pipeline of each batch
in-process, and *replays* the outcomes in the exact serial candidate
order against the shared incumbent flexibility bound.  The replay does
not restate EXPLORE's decision rule: it hands each candidate, with an
:class:`~repro.parallel.worker.OutcomeProbe` over its outcome, to the
:class:`~repro.core.explorer.ExploreState` the serial loop drives, so
every incumbent-dependent decision — estimate pruning, tie handling,
stops, Pareto recording — is the serial loop's by construction.  This
module only batches, evaluates, advances the replay cursor, checks the
anytime budgets and writes checkpoints: every budgeted, checkpointed,
resumed or service-sliced run goes through it.

Why the replay always has what it needs
---------------------------------------
A batch speculatively evaluates a candidate when its estimate exceeds
``f_entry``, the incumbent bound when the batch was evaluated.  The
incumbent is monotone non-decreasing, so for any candidate the serial
loop would evaluate (``estimate > f_cur``, or ``>=`` under
``keep_ties``) we have ``estimate > f_cur >= f_entry`` — the
speculative evaluation happened.  Candidates whose speculation was
skipped satisfy ``estimate <= f_entry <= f_cur`` at replay time and
are pruned exactly as the serial loop would prune them.  The same
monotonicity argument covers cached outcomes reused from earlier
batches (their ``f_entry`` was at most the current incumbent) and
outcomes journaled by a killed run and restored on resume (an outcome
is journaled at its *first* evaluation, whose ``f_entry`` is bounded
by the incumbent at every later replay position).

Statistics are charged by the replay, not by the work actually
performed: a speculatively evaluated candidate that the replay prunes
contributes nothing, and a cache hit contributes the recorded solver
invocations of its first evaluation — both exactly what the serial
loop would have counted.

An injected worker fault (see :mod:`repro.resilience.faults`) is
quarantined — counted in ``stats.quarantined`` and recorded as a
``quarantine`` event — and the candidate is rescued by a fault-free
re-evaluation, so results are unchanged.

Checkpointing journals evaluated outcomes and fsync'd replay snapshots
(cursor, incumbent front, statistics) so a killed run resumes —
:func:`repro.resilience.resume_explore` — to an identical result;
``deadline_seconds``/``max_evaluations`` truncate gracefully with an
explicit :class:`~repro.core.result.OptimalityGap`.
"""

from __future__ import annotations

import functools
import itertools
import logging
import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.candidates import iter_cost_batches
from ..core.explorer import (
    ExploreState,
    _charged_enumeration,
    bound_params,
    prepare_exploration,
    validate_bound_options,
    warm_store_path,
)
from ..core.progress import ProgressEmitter
from ..core.result import (
    ExplorationResult,
    ExplorationStats,
    OptimalityGap,
)
from ..errors import CheckpointError, ExplorationError, WorkerError
from ..spec import SpecificationGraph
from ..timing import PAPER_UTILIZATION_BOUND
from ..trace.tracer import BUDGET
from .cache import EvaluationCache
from .signature import canonical_signature
from . import worker as worker_module
from .worker import (
    CandidateOutcome,
    EvalParams,
    OutcomeProbe,
    evaluate_candidate,
)

logger = logging.getLogger(__name__)

#: Default number of candidates evaluated per batch.  Small enough to
#: keep speculative over-evaluation near the incumbent's rise points
#: rare, large enough to amortise the per-batch overhead.
BATCH_SIZE_DEFAULT = 32


def _faults():
    """The fault-injection seams (lazy import: avoids a package cycle)."""
    from ..resilience import faults

    return faults


def _evaluate_jobs(
    evaluator,
    params: EvalParams,
    stats: ExplorationStats,
    unit_sets: List[FrozenSet[str]],
    f_entry: float,
) -> List[CandidateOutcome]:
    """Evaluate ``unit_sets`` (in order) at incumbent ``f_entry``.

    When the compiled engine offers the batch-vectorized kernel and no
    fault injection is armed, the whole batch's pre-filters run as one
    uint64 block (identical outcomes to the per-candidate pipeline;
    falls through to it when the kernel declines, e.g. numpy absent).
    """
    if worker_module._FAULT_HOOK is None:
        block = getattr(evaluator, "block_outcomes", None)
        if block is not None:
            outcomes = block(unit_sets, params, f_entry)
            if outcomes is not None:
                return outcomes
    outcomes = []
    for units in unit_sets:
        try:
            outcome = evaluate_candidate(evaluator, params, units, f_entry)
        except WorkerError as error:
            # An injected worker fault: quarantine the candidate
            # (counted, never dropped) and rescue it fault-free.
            stats.quarantined += 1
            stats.record_event(
                "quarantine", units=sorted(units), error=repr(error)
            )
            with _faults().suppressed():
                outcome = evaluate_candidate(
                    evaluator, params, units, f_entry
                )
        outcomes.append(outcome)
    return outcomes


def _evaluate_batch(
    spec: SpecificationGraph,
    batch: List[Tuple[float, FrozenSet[str]]],
    required: FrozenSet[str],
    f_entry: float,
    cache: EvaluationCache,
    evaluate,
    writer=None,
) -> List[Tuple[FrozenSet[str], CandidateOutcome]]:
    """Resolve one batch to ``(units, outcome)`` pairs in batch order.

    Checks the memo cache first; evaluates exactly one job per distinct
    uncached signature through ``evaluate(unit_sets, f_entry)``
    (same-batch duplicates share the first job's outcome) and stores
    the new outcomes for later batches.  Freshly
    computed outcomes are journaled through ``writer`` (when
    checkpointing) the moment they are cached.
    """
    unit_sets = [
        required | extras if required else extras for _, extras in batch
    ]
    signatures = [canonical_signature(spec, units) for units in unit_sets]
    outcomes: List[Optional[CandidateOutcome]] = [None] * len(batch)
    owners: Dict[FrozenSet[str], int] = {}
    job_positions: List[int] = []
    for pos, signature in enumerate(signatures):
        entry = cache.get(signature)
        if entry is not None:
            outcomes[pos] = entry
            cache.hits += 1
        elif signature in owners:
            cache.hits += 1  # same-batch duplicate, outcome in flight
        else:
            owners[signature] = pos
            cache.misses += 1
            job_positions.append(pos)
    if job_positions:
        results = evaluate(
            [unit_sets[pos] for pos in job_positions], f_entry
        )
        for pos, outcome in zip(job_positions, results):
            cache.put(signatures[pos], outcome)
            if writer is not None:
                writer.outcome(signatures[pos], outcome)
            outcomes[pos] = outcome
    for pos, signature in enumerate(signatures):
        if outcomes[pos] is None:  # same-batch duplicate
            outcomes[pos] = outcomes[owners[signature]]
    return list(zip(unit_sets, outcomes))


def explore_batched(
    spec: SpecificationGraph,
    util_bound: float = PAPER_UTILIZATION_BOUND,
    max_cost: Optional[float] = None,
    max_candidates: Optional[int] = None,
    use_possible_filter: bool = True,
    use_estimation: bool = True,
    prune_comm: bool = True,
    check_utilization: bool = True,
    weighted: bool = False,
    backend: str = "csp",
    keep_ties: bool = False,
    timing_mode: Optional[str] = None,
    require_units: Optional[Iterable[str]] = None,
    forbid_units: Optional[Iterable[str]] = None,
    batch_size: Optional[int] = None,
    cache: Optional[EvaluationCache] = None,
    deadline_seconds: Optional[float] = None,
    max_evaluations: Optional[int] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    progress=None,
    progress_every: Optional[int] = None,
    tracer=None,
    engine: Optional[str] = None,
    warm_store=None,
    telemetry=None,
    _resume=None,
) -> ExplorationResult:
    """EXPLORE with batched candidate evaluation and a deterministic replay.

    Takes every :func:`repro.core.explorer.explore` parameter, with the
    meaning documented there; results (Pareto set, statistics except
    ``elapsed_seconds``, tie-breaking, progress events, logical
    traces) are identical to the serial loop by construction — see the
    module docstring.  A checkpoint header records every parameter but
    the per-session seams (:data:`repro.core.explorer.EXPLORE_PARAMS`).
    Batch evaluation is charged to the ``dispatch`` phase of ``tracer``
    and ``telemetry``; a budget truncation under a tracer with
    ``record_truncation=False`` (a service preemption) records nothing,
    so a job traced across slices accumulates one uninterrupted trace.
    Two parameters exist only here:

    ``cache`` — pass an :class:`EvaluationCache` to reuse memoised
    evaluation outcomes across runs on the *same* specification and
    parameters (e.g. what-if sweeps over ``require_units``); by default
    each run gets a fresh cache.

    ``_resume`` — internal: a
    :class:`repro.resilience.checkpoint.LoadedCheckpoint` to continue
    from (use :func:`repro.resilience.resume_explore`).
    """
    options = bound_params(locals())
    validate_bound_options(options)
    from ..resilience.anytime import AnytimeBudget

    emitter = ProgressEmitter(progress, progress_every)
    if not spec.frozen:
        raise ExplorationError("specification must be frozen before explore()")
    warm_path = warm_store_path(warm_store)
    options["warm_store"] = warm_path
    params = EvalParams(**bound_params(options, EvalParams._fields))
    evaluator = params.evaluator(spec)
    setup = prepare_exploration(
        spec,
        require_units,
        forbid_units,
        max_cost,
        weighted,
        evaluator=evaluator,
    )
    required = setup.required
    cursor = _resume.cursor if _resume is not None else 0
    # Telemetry rides the same duck-typed seam as in the serial loop
    # (``.profiler`` on Telemetry and PhaseProfiler); the compiled
    # evaluator additionally charges per-solve binding/timing through
    # its ``phase_sink`` when evaluation happens in this process.
    profiler = getattr(telemetry, "profiler", None)
    if profiler is not None and hasattr(evaluator, "phase_sink"):
        evaluator.phase_sink = profiler
    state = ExploreState(
        setup.f_max,
        1 << len(setup.extra_names),
        name=spec.name,
        max_cost=max_cost,
        max_candidates=max_candidates,
        use_possible_filter=use_possible_filter,
        prune_comm=prune_comm,
        use_estimation=use_estimation,
        keep_ties=keep_ties,
        emitter=emitter,
        tracer=tracer,
        profiler=profiler,
        evaluator=evaluator,
        cursor=cursor,
    )
    stats = state.stats
    if _resume is not None:
        for name, value in _resume.counters.items():
            if name in ExplorationStats.__slots__ and name != "events":
                setattr(stats, name, value)
        stats.events = list(_resume.events)
        stats.design_space_size = 1 << len(setup.extra_names)
        state.f_cur = _resume.f_cur
        state.points = list(_resume.points)
    cache = cache if cache is not None else EvaluationCache()
    corruptions_at_start = cache.corruptions
    size = BATCH_SIZE_DEFAULT if batch_size is None else batch_size
    every = checkpoint_every
    writer = None
    if checkpoint is not None:
        from ..resilience.checkpoint import (
            CHECKPOINT_EVERY_DEFAULT,
            CheckpointWriter,
            header_params,
        )

        every = CHECKPOINT_EVERY_DEFAULT if every is None else every
        writer = CheckpointWriter(
            checkpoint,
            spec,
            header_params(options, checkpoint_every=every),
            resume_length=(
                _resume.valid_length if _resume is not None else None
            ),
        )
    budget = AnytimeBudget(deadline_seconds, max_evaluations)
    evaluate = functools.partial(_evaluate_jobs, evaluator, params, stats)
    logger.info(
        "explore start: spec=%s design_space=%d f_max=%g batched "
        "cursor=%d",
        spec.name,
        stats.design_space_size,
        state.f_max,
        cursor,
    )

    candidate_stream = iter(
        evaluator.enumerator(setup.extra_names, include_empty=bool(required))
    )
    if tracer is not None or profiler is not None:
        candidate_stream = _charged_enumeration(
            candidate_stream, (tracer, profiler)
        )
    if cursor:
        skipped = sum(
            1 for _ in itertools.islice(candidate_stream, cursor)
        )
        if skipped < cursor:
            raise CheckpointError(
                f"checkpoint cursor {cursor} exceeds the enumeration "
                f"({skipped} candidates); the journal does not belong "
                f"to this specification"
            )

    probe = OutcomeProbe(evaluator, spec.units)
    stop = False
    truncation: Optional[OptimalityGap] = None

    def out_of_budget(cost: float) -> bool:
        """Stop at this candidate when a budget is spent: it bounds
        everything unexplored."""
        nonlocal truncation
        reason = budget.exhausted(stats.estimate_exceeded)
        if reason is None:
            return False
        truncation = OptimalityGap(
            next_cost_bound=cost,
            flexibility_bound=state.f_max,
            achieved_flexibility=state.f_cur,
            reason=reason,
        )
        state.stop(BUDGET, budget=reason, next_cost_bound=cost)
        return True

    try:
        for batch in iter_cost_batches(candidate_stream, size):
            if out_of_budget(setup.required_cost + batch[0][0]):
                break
            t_dispatch = time.perf_counter()
            resolved = _evaluate_batch(
                spec, batch, required, state.f_cur, cache, evaluate, writer
            )
            state.charge("dispatch", time.perf_counter() - t_dispatch)
            # --- deterministic replay: the decision rule of the serial
            # loop, with the incumbent-independent answers looked up.
            for (extra_cost, _), (units, outcome) in zip(batch, resolved):
                cost = setup.required_cost + extra_cost
                if out_of_budget(cost):
                    break
                probe.outcome = outcome
                if not (state.admit(cost) and state.step(cost, units, probe)):
                    stop = True
                    break
                cursor = _advance(cursor, writer, every, state, cache)
            if stop or truncation is not None:
                break
        if cache.corruptions > corruptions_at_start:
            fresh = cache.corruptions - corruptions_at_start
            stats.cache_corruptions += fresh
            stats.record_event(
                "cache_corruption",
                count=fresh,
                signatures=[
                    sorted(s) for s in cache.corrupted_signatures[-fresh:]
                ],
            )
        # Final snapshot — skipped when resuming reproduced the journaled
        # end state exactly (no candidate consumed, same completion), so
        # that resuming a finished run is idempotent: the result
        # fingerprint, including ``checkpoints_written``, is unchanged.
        idempotent = (
            _resume is not None
            and cursor == _resume.cursor
            and _resume.completed == (truncation is None)
        )
        if writer is not None and not idempotent:
            writer.checkpoint(
                cursor,
                state.f_cur,
                state.points,
                stats,
                cache,
                completed=truncation is None,
            )
    finally:
        if writer is not None:
            writer.close()

    return state.finish(truncation)


def _advance(
    cursor: int,
    writer,
    every: Optional[int],
    state: ExploreState,
    cache: EvaluationCache,
) -> int:
    """Count one fully replayed candidate; checkpoint on cadence."""
    cursor += 1
    if writer is not None and every and cursor % every == 0:
        writer.checkpoint(
            cursor, state.f_cur, state.points, state.stats, cache
        )
    return cursor

