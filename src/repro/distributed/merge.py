"""Provably sound merging of per-shard exploration results.

Exactness is the product.  A shard run (``explore(shard=...)``) is the
batched replay loop over the sub-stream of candidates its shard owns,
journaling one :class:`~repro.parallel.worker.CandidateOutcome` per
distinct canonical signature it consumes.  The merge replays the
*global* candidate enumeration — the same deterministic cost order the
single-host loop walks — looking every incumbent-independent outcome
up in the shard journals instead of recomputing it.  Every
incumbent-dependent decision (estimate pruning, tie handling, Pareto
recording, early stops) is made by the single-host rule itself,
:class:`~repro.core.explorer.ExploreState`, fed an
:class:`~repro.parallel.worker.OutcomeProbe` per candidate; the merge
adds only the journal lookup and the shard-gap stop.  The merged
front, statistics, progress events and logical trace are therefore
byte-identical to the uninterrupted single-host run — the property the
differential tests in ``tests/test_distributed.py`` enforce over the
randspec corpus and both case studies.

Why the shard journals always contain what the merge needs
----------------------------------------------------------
A shard's replay runs over a *prefix-closed filtered* sub-stream: every
shard candidate preceding a candidate *c* in the shard's order also
precedes *c* globally.  The shard incumbent is built from a subset of
the evaluations the global run has seen by *c*, so at every position
``f_entry(shard dispatch) <= f_cur(shard) <= f_cur(global)``.  Whenever
the global replay needs an evaluation (``estimate > f_cur(global)``, or
``>=`` under ``keep_ties``) the owning shard's dispatch bound was no
larger, hence the shard evaluated speculatively and journaled the
outcome — the same monotonicity argument that makes the single-host
batched replay exact (:mod:`repro.parallel.batched`), applied
per shard.  A shard stopping early at the global bound ``f_max`` is
covered too: the global run reaches ``f_max`` at a position no later
than the shard's (its incumbent is never smaller), so candidates past
a shard's stop point are never requested.

Soundness under loss (the combined :class:`OptimalityGap`)
----------------------------------------------------------
When a shard is unfinished — truncated by a budget, or lost with at
most a partial journal — the merge replays the global order up to the
first candidate owned by an unfinished shard beyond its durable cursor
and stalls there, returning ``completed=False`` and a gap whose
``next_cost_bound`` is that candidate's cost.  Costs are non-
decreasing, so the stall cost is exactly ``min`` over unfinished
shards of the cost of their next unprocessed candidate: nothing any
unfinished shard could still contribute lies below the bound, and the
merged prefix equals a single-host run truncated at the same position
— which is why :func:`repro.resilience.verify_gap` accepts the merged
gap against the full run (tested).
"""

from __future__ import annotations

import json
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.evaluation import make_evaluator
from ..core.explorer import (
    RESULT,
    ExploreState,
    bound_params,
    param_names,
    prepare_exploration,
    validate_bound_options,
)
from ..core.pareto import final_front
from ..core.progress import ProgressEmitter
from ..core.result import (
    ExplorationResult,
    ExplorationStats,
    OptimalityGap,
)
from ..errors import CheckpointError, ExplorationError
from ..parallel.cache import EvaluationCache
from ..parallel.signature import canonical_signature
from ..parallel.worker import CandidateOutcome, OutcomeProbe
from ..spec import SpecificationGraph
from ..timing import PAPER_UTILIZATION_BOUND
from .partition import Shard, owner_index, validate_partition

#: The result-affecting ``explore`` parameters a merge must share with
#: the shard runs it combines (the checkpoint-header subset that the
#: resume machinery also freezes).
RESULT_PARAMS = param_names(RESULT)

#: Gap reason recorded when the merge stalls on an unfinished shard.
SHARD_GAP_REASON = "shard_incomplete"


class ShardRun:
    """What the merge needs from one shard's execution.

    ``cursor`` — candidates of the shard's sub-stream durably consumed
    (the newest fsync'd checkpoint's cursor); ``None`` means unbounded
    (only legal for completed runs).  ``completed`` — whether the shard
    ran its sub-stream to a sound stop (exhaustion or an early stop).
    """

    __slots__ = ("shard", "cache", "cursor", "completed", "source", "_seen")

    def __init__(
        self,
        shard: Shard,
        cache: EvaluationCache,
        cursor: Optional[int],
        completed: bool,
        source: str = "<memory>",
    ) -> None:
        if not completed and cursor is None:
            raise ExplorationError(
                "an unfinished shard run needs a durable cursor; "
                "run it with a checkpoint journal"
            )
        self.shard = shard
        self.cache = cache
        self.cursor = cursor
        self.completed = completed
        self.source = source
        self._seen = 0

    @classmethod
    def lost(cls, shard: Shard) -> "ShardRun":
        """A shard whose worker (and journal) is permanently gone."""
        return cls(shard, EvaluationCache(), 0, False, source="<lost>")

    @classmethod
    def from_checkpoint(cls, path: str) -> Tuple["ShardRun", Any]:
        """Load a shard run from its checkpoint journal.

        Returns ``(run, loaded)`` where ``loaded`` is the underlying
        :class:`~repro.resilience.checkpoint.LoadedCheckpoint` (the
        caller validates spec/parameter consistency across shards).
        """
        from ..resilience.checkpoint import load_checkpoint

        loaded = load_checkpoint(path)
        shard_doc = loaded.params.get("shard")
        if shard_doc is None:
            raise CheckpointError(
                f"checkpoint {path!r} is not a shard run (no shard "
                f"recorded in its header)"
            )
        return (
            cls(
                Shard.from_dict(shard_doc),
                loaded.cache,
                loaded.cursor,
                loaded.completed,
                source=path,
            ),
            loaded,
        )


def _lookup(
    runs: Sequence[ShardRun],
    owner: int,
    signature: FrozenSet[str],
) -> Optional[CandidateOutcome]:
    """The journaled outcome for a signature, preferring evaluated
    records (outcomes are deterministic, so any evaluated record of the
    same signature is *the* record the serial loop would compute)."""
    best = runs[owner].cache.get(signature)
    if best is not None and best.evaluated:
        return best
    for run in runs:
        entry = run.cache.get(signature)
        if entry is not None:
            if entry.evaluated:
                return entry
            if best is None:
                best = entry
    return best


def merge_shard_runs(
    spec: SpecificationGraph,
    runs: Sequence[ShardRun],
    util_bound: float = PAPER_UTILIZATION_BOUND,
    max_cost: Optional[float] = None,
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
    engine: Optional[str] = None,
    progress=None,
    progress_every: Optional[int] = None,
    tracer=None,
) -> ExplorationResult:
    """Replay-merge shard runs into the single-host exploration result.

    The parameters must equal the ones the shard runs used (the
    checkpoint-based entry point :func:`merge_shard_checkpoints`
    extracts and cross-checks them automatically).  When every shard
    completed, the returned result — front, statistics (except
    wall-clock), progress events, logical trace — is byte-identical to
    ``explore(spec, ...)`` on one host; otherwise the result is the
    exact single-host prefix up to the first unprocessed candidate of
    an unfinished shard, with ``completed=False`` and the combined
    :class:`~repro.core.result.OptimalityGap` (see module docstring).
    """
    options = bound_params(locals())
    validate_bound_options(options)
    ordered = validate_partition([run.shard for run in runs])
    by_index: List[ShardRun] = list(runs)
    by_index.sort(key=lambda run: run.shard.index)
    if [run.shard for run in by_index] != ordered:
        raise ExplorationError("shard runs do not form the validated partition")
    for run in by_index:
        run._seen = 0
    emitter = ProgressEmitter(progress, progress_every)
    evaluator = make_evaluator(
        spec, **bound_params(options, param_names(tag="evaluator"))
    )
    setup = prepare_exploration(
        spec, require_units, forbid_units, max_cost, weighted,
        evaluator=evaluator,
    )
    for run in by_index:
        run.shard.validate_for(setup.extra_names)
    required = setup.required
    state = ExploreState(
        setup.f_max,
        1 << len(setup.extra_names),
        name=spec.name,
        max_cost=max_cost,
        use_possible_filter=use_possible_filter,
        prune_comm=prune_comm,
        use_estimation=use_estimation,
        keep_ties=keep_ties,
        emitter=emitter,
        tracer=tracer,
    )
    probe = OutcomeProbe(evaluator, spec.units)
    truncation: Optional[OptimalityGap] = None
    # --- the single-host replay, outcomes looked up in shard journals
    for extra_cost, extras in evaluator.enumerator(
        setup.extra_names, include_empty=bool(required)
    ):
        cost = setup.required_cost + extra_cost
        if not state.admit(cost):
            break
        owner = owner_index(ordered, cost, extras)
        run = by_index[owner]
        run._seen += 1
        if not run.completed and run._seen > run.cursor:
            # First candidate no shard durably processed: everything
            # unexplored (in this shard and, by cost order, in every
            # other unfinished shard) costs at least `cost`.
            truncation = OptimalityGap(
                next_cost_bound=cost,
                flexibility_bound=state.f_max,
                achieved_flexibility=state.f_cur,
                reason=SHARD_GAP_REASON,
            )
            state.stop(SHARD_GAP_REASON, shard=owner, next_cost_bound=cost)
            break
        units = required | extras if required else extras
        probe.outcome = _lookup(
            by_index, owner, canonical_signature(spec, units)
        )
        if probe.outcome is None:
            raise ExplorationError(
                f"internal: shard {owner} journal has no outcome for a "
                f"candidate it owns (units {sorted(units)!r}); the "
                f"journals do not belong to this partition/specification"
            )
        state.step(cost, units, probe)
    return state.finish(truncation)


def _canonical_spec(document: Dict[str, Any]) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def merge_shard_checkpoints(
    paths: Sequence[str],
    lost_shards: Sequence[Shard] = (),
    progress=None,
    progress_every: Optional[int] = None,
    tracer=None,
    engine: Optional[str] = None,
) -> ExplorationResult:
    """Merge shard checkpoint journals into one exploration result.

    Loads every journal, cross-checks that all shards explored the same
    specification with the same result-affecting parameters (loud
    :class:`~repro.errors.CheckpointError` otherwise), and replays the
    merge.  ``lost_shards`` declares partition members whose journals
    are permanently gone — the merge then degrades to the exact prefix
    before their first unprocessed candidate (``completed=False`` with
    a sound combined gap) instead of failing.
    """
    from ..io.json_io import spec_to_dict

    if not paths and not lost_shards:
        raise CheckpointError("no shard checkpoints to merge")
    runs: List[ShardRun] = [ShardRun.lost(s) for s in lost_shards]
    spec: Optional[SpecificationGraph] = None
    spec_doc: Optional[str] = None
    params: Optional[Dict[str, Any]] = None
    for path in paths:
        run, loaded = ShardRun.from_checkpoint(path)
        runs.append(run)
        doc = _canonical_spec(spec_to_dict(loaded.spec))
        relevant = {
            name: loaded.params.get(name) for name in RESULT_PARAMS
        }
        if spec is None:
            spec, spec_doc, params = loaded.spec, doc, relevant
        else:
            if doc != spec_doc:
                raise CheckpointError(
                    f"shard checkpoint {path!r} explored a different "
                    f"specification than its siblings"
                )
            if relevant != params:
                changed = sorted(
                    name for name in RESULT_PARAMS
                    if relevant[name] != params[name]
                )
                raise CheckpointError(
                    f"shard checkpoint {path!r} used different "
                    f"result-affecting parameter(s) {changed!r}"
                )
    if spec is None:
        raise CheckpointError(
            "cannot merge: every shard of the partition is lost"
        )
    return merge_shard_runs(
        spec,
        runs,
        engine=engine,
        progress=progress,
        progress_every=progress_every,
        tracer=tracer,
        **params,
    )


def combine_gaps(gaps: Sequence[OptimalityGap]) -> OptimalityGap:
    """The sound combination of per-shard optimality gaps.

    Anything an unfinished shard could still produce costs at least its
    own ``next_cost_bound`` and reaches at most its
    ``flexibility_bound``; over a disjoint, exhaustive partition the
    combined bounds are therefore the ``min`` and ``max`` respectively.
    """
    if not gaps:
        raise ExplorationError("combine_gaps needs at least one gap")
    return OptimalityGap(
        next_cost_bound=min(g.next_cost_bound for g in gaps),
        flexibility_bound=max(g.flexibility_bound for g in gaps),
        achieved_flexibility=max(g.achieved_flexibility for g in gaps),
        reason=SHARD_GAP_REASON,
    )


def merge_fronts(
    results: Sequence[ExplorationResult],
) -> ExplorationResult:
    """Front-level union of shard results (the cheap, lossy merge).

    Unlike :func:`merge_shard_runs` this needs only the shard
    *results*, not their journals: it unions the points, re-applies the
    dominance filter, sums the per-shard effort counters and combines
    the gaps of unfinished shards.  The (cost, flexibility) front is
    sound — every merged point was feasible, every gap bound holds —
    but byte-level identity with the single-host run is *not*
    guaranteed: without ``keep_ties`` the single-host loop keeps the
    first-enumerated representative per point and counts only the work
    its own incumbent admitted, neither of which survives a union.
    Use the replay merge when exactness matters.
    """
    if not results:
        raise ExplorationError("merge_fronts needs at least one result")
    merged: List = []
    for result in results:
        merged.extend(result.points)
    merged.sort(key=lambda p: (p.cost, p.flexibility))
    front = final_front(merged)
    stats = ExplorationStats()
    for result in results:
        for name in ExplorationStats.__slots__:
            if name in ("events", "elapsed_seconds"):
                continue
            setattr(
                stats, name,
                getattr(stats, name) + getattr(result.stats, name),
            )
        stats.elapsed_seconds += result.stats.elapsed_seconds
        stats.events.extend(result.stats.events)
    stats.design_space_size = max(
        result.stats.design_space_size for result in results
    )
    f_max = max(result.max_flexibility_bound for result in results)
    achieved = max((p.flexibility for p in front), default=0.0)
    gaps = [r.gap for r in results if r.gap is not None]
    completed = all(r.completed for r in results)
    gap = None
    if not completed:
        combined = combine_gaps(gaps) if gaps else OptimalityGap(
            next_cost_bound=min(p.cost for p in front) if front else 0.0,
            flexibility_bound=f_max,
            achieved_flexibility=achieved,
            reason=SHARD_GAP_REASON,
        )
        gap = OptimalityGap(
            next_cost_bound=combined.next_cost_bound,
            flexibility_bound=combined.flexibility_bound,
            achieved_flexibility=achieved,
            reason=combined.reason,
        )
    return ExplorationResult(
        front, stats, f_max, completed=completed, gap=gap,
    )
