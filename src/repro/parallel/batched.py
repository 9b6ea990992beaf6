"""Batched parallel EXPLORE with a deterministic replay reduction.

The exploration pulls candidates from the cost-ordered enumerator in
batches, fans the incumbent-independent pipeline of each batch out to a
worker pool (threads, processes, or inline when no pool is available),
and *replays* the outcomes in the exact serial candidate order against
the shared incumbent flexibility bound.  The replay does not restate
EXPLORE's decision rule: it hands each candidate, with an
:class:`~repro.parallel.worker.OutcomeProbe` over its outcome, to the
:class:`~repro.core.explorer.ExploreState` the serial loop drives, so
every incumbent-dependent decision — estimate pruning, tie handling,
stops, Pareto recording — is the serial loop's by construction.  This
module only batches, dispatches, advances the replay cursor, checks
the anytime budgets and writes checkpoints.

Why the replay always has what it needs
---------------------------------------
Workers speculatively evaluate a candidate when its estimate exceeds
``f_entry``, the incumbent bound at dispatch time.  The incumbent is
monotone non-decreasing, so for any candidate the serial loop would
evaluate (``estimate > f_cur``, or ``>=`` under ``keep_ties``) we have
``estimate > f_cur >= f_entry`` — the speculative evaluation happened.
Candidates whose speculation was skipped satisfy ``estimate <=
f_entry <= f_cur`` at replay time and are pruned exactly as the serial
loop would prune them.  The same monotonicity argument covers cached
outcomes reused from earlier batches (their ``f_entry`` was at most the
current incumbent) and outcomes journaled by a killed run and restored
on resume (an outcome is journaled at its *first* dispatch, whose
``f_entry`` is bounded by the incumbent at every later replay
position).

Statistics are charged by the replay, not by the work actually
performed: a speculatively evaluated candidate that the replay prunes
contributes nothing, and a cache hit contributes the recorded solver
invocations of its first evaluation — both exactly what the serial
loop would have counted.

Fault tolerance (see :mod:`repro.resilience` and ``docs/resilience.md``)
------------------------------------------------------------------------
Because candidate outcomes are deterministic, *where* they are computed
is irrelevant to the result; the dispatcher therefore degrades freely —
transient worker failures retry with exponential backoff and jitter,
hung batches are abandoned on ``batch_timeout`` and finished inline,
repeatedly failing candidates are quarantined (recorded in the
statistics, then rescued by a fault-free inline evaluation), and a dead
pool falls back to inline execution — with unchanged results.  None of
this is silent: every degradation increments a counter and appends an
event to ``ExplorationResult.stats.events``, and permanent pool loss
additionally emits a :class:`RuntimeWarning`.

Checkpointing journals evaluated outcomes and fsync'd replay snapshots
(cursor, incumbent front, statistics) so a killed run resumes —
:func:`repro.resilience.resume_explore` — to an identical result;
``deadline_seconds``/``max_evaluations`` truncate gracefully with an
explicit :class:`~repro.core.result.OptimalityGap`.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
import warnings
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.candidates import iter_cost_batches
from ..core.explorer import (
    PARALLEL_MODES,
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
from ..errors import (
    CheckpointError,
    ExplorationError,
    PermanentWorkerError,
    TransientWorkerError,
    WorkerError,
)
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
    init_worker,
    pool_evaluate,
)

logger = logging.getLogger(__name__)

#: Default number of candidates dispatched per batch.  Small enough to
#: keep speculative over-evaluation near the incumbent's rise points
#: rare, large enough to amortise dispatch overhead.
BATCH_SIZE_DEFAULT = 32

#: Exceptions on pool creation/use that trigger the inline fallback.
_POOL_FAILURES = (OSError, ValueError, ImportError, NotImplementedError)
try:  # BrokenProcessPool only exists where process pools do
    from concurrent.futures.process import BrokenProcessPool

    _POOL_FAILURES = _POOL_FAILURES + (BrokenProcessPool,)
except ImportError:  # pragma: no cover - exotic platforms
    pass


def _faults():
    """The fault-injection seams (lazy import: avoids a package cycle)."""
    from ..resilience import faults

    return faults


def _default_retry():
    from ..resilience.retry import RetryPolicy

    return RetryPolicy()


class _BatchRunner:
    """Dispatches unit-set jobs to a pool, degrading — loudly — to
    inline evaluation.

    Failure handling, in escalation order:

    * transient dispatch/worker failures → exponential backoff + jitter
      retries (``retry`` policy, counted in ``stats.pool_retries``);
    * per-candidate failures that survive the retries, and permanent
      worker errors → the candidate is *quarantined* (counted and
      logged, never dropped) and rescued by a fault-free inline
      evaluation;
    * a batch exceeding ``batch_timeout`` seconds → the pool results
      are abandoned and the stragglers are finished inline
      (``stats.batch_timeouts``);
    * pool creation failure or pool death (``BrokenProcessPool``) →
      permanent fallback to inline execution, with a
      :class:`RuntimeWarning` and a ``pool_fallback`` event.

    Candidate outcomes are deterministic, so every degradation path
    returns exactly the outcome the healthy pool would have returned.
    """

    def __init__(
        self,
        parallel: str,
        workers: Optional[int],
        spec: SpecificationGraph,
        evaluator,
        params: EvalParams,
        stats: ExplorationStats,
        retry=None,
        batch_timeout: Optional[float] = None,
        pool=None,
    ) -> None:
        self.spec = spec
        self.evaluator = evaluator
        self.params = params
        self.stats = stats
        self.retry = retry if retry is not None else _default_retry()
        self.batch_timeout = batch_timeout
        self.workers = workers or os.cpu_count() or 1
        self.executor: Optional[Executor] = None
        self.kind = "inline"
        #: Whether this runner owns (and must shut down) the executor;
        #: a shared :class:`repro.parallel.pool.WorkerPool` stays alive
        #: across runs and is shut down by its owner instead.
        self.owns_executor = True
        if pool is not None:
            # Shared-pool geometry overrides the per-run `parallel` kind.
            if pool.executor is not None:
                self.executor = pool.executor
                self.kind = pool.kind
                self.workers = pool.workers
                self.owns_executor = False
        elif parallel == "thread":
            self.executor = ThreadPoolExecutor(max_workers=self.workers)
            self.kind = "thread"
        elif parallel == "process":
            try:
                self.executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=init_worker,
                    initargs=(spec, params, _faults().active_plan()),
                )
                self.kind = "process"
            except _POOL_FAILURES as error:
                self._lose_pool("create", error)

    # --- degradation bookkeeping (never silent) ------------------------

    def _lose_pool(self, stage: str, error: BaseException) -> None:
        """Abandon the pool permanently; warn and record the event."""
        self.stats.pool_fallbacks += 1
        self.stats.record_event(
            "pool_fallback", stage=stage, error=repr(error)
        )
        warnings.warn(
            f"exploration worker pool lost during {stage} ({error!r}); "
            f"continuing with inline evaluation — results are unchanged "
            f"but wall-clock parallelism is gone",
            RuntimeWarning,
            stacklevel=4,
        )
        self.shutdown()

    def _quarantine(
        self, units: FrozenSet[str], error: BaseException
    ) -> None:
        self.stats.quarantined += 1
        self.stats.record_event(
            "quarantine", units=sorted(units), error=repr(error)
        )

    # --- evaluation paths ----------------------------------------------

    def _submit(self, units: FrozenSet[str], f_entry: float) -> Future:
        if self.kind == "process":
            return self.executor.submit(pool_evaluate, (units, f_entry))
        return self.executor.submit(
            evaluate_candidate,
            self.evaluator,
            self.params,
            units,
            f_entry,
        )

    def _rescue(
        self, units: FrozenSet[str], f_entry: float
    ) -> CandidateOutcome:
        """Fault-free inline evaluation (injection suppressed)."""
        with _faults().suppressed():
            return evaluate_candidate(
                self.evaluator, self.params, units, f_entry
            )

    def _evaluate_inline(
        self, units: FrozenSet[str], f_entry: float
    ) -> CandidateOutcome:
        """Inline evaluation; worker-level faults quarantine + rescue."""
        try:
            return evaluate_candidate(
                self.evaluator, self.params, units, f_entry
            )
        except WorkerError as error:
            self._quarantine(units, error)
            return self._rescue(units, f_entry)

    def _dispatch(
        self, unit_sets: List[FrozenSet[str]], f_entry: float
    ) -> Optional[List[Future]]:
        """Submit a batch, retrying transient dispatch failures.

        Returns ``None`` when the pool is lost (caller goes inline).
        """
        last: Optional[BaseException] = None
        site_key = "dispatch:" + (
            ",".join(sorted(unit_sets[0])) if unit_sets else ""
        )
        for attempt, delay in enumerate(
            itertools.chain([0.0], self.retry.delays(site_key=site_key))
        ):
            if attempt:
                self.stats.pool_retries += 1
                self.stats.record_event(
                    "pool_retry",
                    stage="dispatch",
                    attempt=attempt,
                    delay=round(delay, 6),
                    error=repr(last),
                )
                time.sleep(delay)
            try:
                _faults().maybe_inject("pool", batch=len(unit_sets))
                return [self._submit(u, f_entry) for u in unit_sets]
            except TransientWorkerError as error:
                last = error
                continue
            except PermanentWorkerError as error:
                self._lose_pool("dispatch", error)
                return None
            except _POOL_FAILURES as error:
                self._lose_pool("dispatch", error)
                return None
        self._lose_pool("dispatch", last)
        return None

    def _retry_candidate(
        self,
        units: FrozenSet[str],
        f_entry: float,
        error: BaseException,
    ) -> CandidateOutcome:
        """Backoff-retry one failed candidate in the pool, then rescue."""
        last = error
        site_key = "candidate:" + ",".join(sorted(units))
        for attempt, delay in enumerate(
            self.retry.delays(site_key=site_key), start=1
        ):
            if self.executor is None:
                break
            self.stats.pool_retries += 1
            self.stats.record_event(
                "pool_retry",
                stage="candidate",
                units=sorted(units),
                attempt=attempt,
                delay=round(delay, 6),
                error=repr(last),
            )
            time.sleep(delay)
            try:
                return self._submit(units, f_entry).result(
                    timeout=self.batch_timeout
                )
            except (TransientWorkerError, FuturesTimeoutError) as retry_error:
                last = retry_error
                continue
            except PermanentWorkerError as retry_error:
                last = retry_error
                break
            except _POOL_FAILURES as pool_error:
                self._lose_pool("retry", pool_error)
                break
        self._quarantine(units, last)
        return self._rescue(units, f_entry)

    def _collect(
        self,
        unit_sets: List[FrozenSet[str]],
        futures: List[Future],
        f_entry: float,
    ) -> List[CandidateOutcome]:
        """Harvest a dispatched batch under the shared batch timeout."""
        outcomes: List[Optional[CandidateOutcome]] = [None] * len(futures)
        deadline = (
            time.monotonic() + self.batch_timeout
            if self.batch_timeout is not None
            else None
        )
        timed_out = False
        for pos, future in enumerate(futures):
            if self.executor is None:
                # pool died earlier in this batch; finish inline
                future.cancel()
                outcomes[pos] = self._evaluate_inline(unit_sets[pos], f_entry)
                continue
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                outcomes[pos] = future.result(timeout=remaining)
            except FuturesTimeoutError:
                if not timed_out:
                    timed_out = True
                    self.stats.batch_timeouts += 1
                    self.stats.record_event(
                        "batch_timeout",
                        timeout=self.batch_timeout,
                        abandoned_at=pos,
                        batch=len(futures),
                    )
                future.cancel()
                outcomes[pos] = self._rescue(unit_sets[pos], f_entry)
            except TransientWorkerError as error:
                outcomes[pos] = self._retry_candidate(
                    unit_sets[pos], f_entry, error
                )
            except PermanentWorkerError as error:
                self._quarantine(unit_sets[pos], error)
                outcomes[pos] = self._rescue(unit_sets[pos], f_entry)
            except _POOL_FAILURES as error:
                self._lose_pool("batch", error)
                outcomes[pos] = self._rescue(unit_sets[pos], f_entry)
        return outcomes

    def run(
        self, unit_sets: List[FrozenSet[str]], f_entry: float
    ) -> List[CandidateOutcome]:
        """Evaluate ``unit_sets`` (in order) at incumbent ``f_entry``."""
        if self.executor is not None:
            futures = self._dispatch(unit_sets, f_entry)
            if futures is not None:
                return self._collect(unit_sets, futures, f_entry)
        # Inline execution: when the compiled engine offers the
        # batch-vectorized kernel and no fault injection is armed, the
        # whole batch's pre-filters run as one uint64 block (identical
        # outcomes to the per-candidate pipeline; falls through to it
        # when the kernel declines, e.g. numpy absent).
        if worker_module._FAULT_HOOK is None:
            block = getattr(self.evaluator, "block_outcomes", None)
            if block is not None:
                outcomes = block(unit_sets, self.params, f_entry)
                if outcomes is not None:
                    return outcomes
        return [
            self._evaluate_inline(units, f_entry) for units in unit_sets
        ]

    def shutdown(self) -> None:
        if self.executor is not None:
            if self.owns_executor:
                self.executor.shutdown(wait=False, cancel_futures=True)
            self.executor = None
            self.kind = "inline"


def _evaluate_batch(
    spec: SpecificationGraph,
    batch: List[Tuple[float, FrozenSet[str]]],
    required: FrozenSet[str],
    f_entry: float,
    cache: EvaluationCache,
    runner: _BatchRunner,
    writer=None,
) -> List[Tuple[FrozenSet[str], CandidateOutcome]]:
    """Resolve one batch to ``(units, outcome)`` pairs in batch order.

    Checks the memo cache first; dispatches exactly one job per distinct
    uncached signature (same-batch duplicates share the first job's
    outcome) and stores the new outcomes for later batches.  Freshly
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
        results = runner.run(
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
    parallel: str = "thread",
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    cache: Optional[EvaluationCache] = None,
    deadline_seconds: Optional[float] = None,
    max_evaluations: Optional[int] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    batch_timeout: Optional[float] = None,
    retry=None,
    pool=None,
    progress=None,
    progress_every: Optional[int] = None,
    tracer=None,
    engine: Optional[str] = None,
    shard=None,
    warm_store=None,
    telemetry=None,
    _resume=None,
) -> ExplorationResult:
    """EXPLORE with batched, pooled, fault-tolerant candidate evaluation.

    Takes every :func:`repro.core.explorer.explore` parameter, with the
    meaning documented there (``parallel="serial"`` means inline
    execution, no pool); results (Pareto set, statistics except
    ``elapsed_seconds``, tie-breaking, progress events, logical
    traces) are identical to the serial loop by construction — see the
    module docstring.  A checkpoint header records every parameter but
    the per-session seams (:data:`repro.core.explorer.EXPLORE_PARAMS`).
    Batch dispatch is charged to the ``dispatch`` phase of ``tracer``
    and ``telemetry``; a budget truncation under a tracer with
    ``record_truncation=False`` (a service preemption) records nothing,
    so a job traced across slices accumulates one uninterrupted trace.
    Three parameters exist only here:

    ``cache`` — pass an :class:`EvaluationCache` to reuse memoised
    evaluation outcomes across runs on the *same* specification and
    parameters (e.g. what-if sweeps over ``require_units``); by default
    each run gets a fresh cache.

    ``pool`` — a shared :class:`repro.parallel.pool.WorkerPool`; when
    given it overrides the ``parallel``/``workers`` execution geometry
    and is *not* shut down when the run ends (the owner shuts it down).
    Used by the exploration service to multiplex many jobs over one
    bounded pool; results are unchanged by construction.

    ``_resume`` — internal: a
    :class:`repro.resilience.checkpoint.LoadedCheckpoint` to continue
    from (use :func:`repro.resilience.resume_explore`).
    """
    options = bound_params(locals())
    validate_bound_options(options)
    if shard is not None:
        from ..distributed.partition import Shard

        if isinstance(shard, dict):
            shard = Shard.from_dict(shard)
        if not isinstance(shard, Shard):
            raise ExplorationError(
                f"shard must be a repro.distributed.Shard (or its "
                f"dictionary form), got {type(shard).__name__}"
            )
        if max_candidates is not None:
            raise ExplorationError(
                "max_candidates counts enumeration positions, which "
                "differ per shard; it cannot be combined with shard"
            )
    from ..resilience.anytime import AnytimeBudget

    emitter = ProgressEmitter(progress, progress_every)
    # "serial" means: batched replay semantics, inline execution (no pool).
    parallel_kind = "inline" if parallel == "serial" else parallel
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
            header_params(
                options,
                checkpoint_every=every,
                shard=shard.to_dict() if shard is not None else None,
            ),
            resume_length=(
                _resume.valid_length if _resume is not None else None
            ),
        )
    budget = AnytimeBudget(deadline_seconds, max_evaluations)
    runner = _BatchRunner(
        parallel_kind,
        workers,
        spec,
        evaluator,
        params,
        stats,
        retry=retry,
        batch_timeout=batch_timeout,
        pool=pool,
    )
    logger.info(
        "explore start: spec=%s design_space=%d f_max=%g mode=%s "
        "cursor=%d",
        spec.name,
        stats.design_space_size,
        state.f_max,
        runner.kind,
        cursor,
    )

    candidate_stream = iter(
        evaluator.enumerator(setup.extra_names, include_empty=bool(required))
    )
    if tracer is not None or profiler is not None:
        candidate_stream = _charged_enumeration(
            candidate_stream, (tracer, profiler)
        )
    if shard is not None:
        # The shard's sub-stream preserves global enumeration order, so
        # the replay below — and the checkpoint cursor — count positions
        # in the shard's own deterministic sequence.
        shard.validate_for(setup.extra_names)
        candidate_stream = shard.filter_stream(
            candidate_stream, setup.required_cost
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
                spec, batch, required, state.f_cur, cache, runner, writer
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
        runner.shutdown()
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

