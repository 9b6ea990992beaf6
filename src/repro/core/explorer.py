"""The EXPLORE branch-and-bound design-space exploration (Section 4).

Candidates (resource allocations) are inspected in order of increasing
allocation cost; the possible-resource-allocation boolean equation and
the flexibility estimate prune the search; the NP-complete binding
solver is invoked only for candidates whose estimated flexibility
exceeds the best implemented flexibility so far.  Exploration stops as
soon as the implemented flexibility reaches the global upper bound
(nothing more flexible can exist at any cost).

The published pseudocode contains a garbled guard (``WHILE f < f_cur``);
per the surrounding prose — "we are only interested in design points
with a greater flexibility than already implemented" — the intended
semantics implemented here is: attempt an implementation when the
*estimate* exceeds the best implemented flexibility, and record it when
the *achieved* flexibility does.

The decision rule is written once, in :class:`ExploreState`: it owns
the incumbent, ties, the stop rules, the statistics and all emission
to the progress emitter, tracer and profiler, and — for budgeted or
checkpointed runs — the anytime budget, the enumeration cursor and the
snapshots a checkpoint journals.  Every way of running EXPLORE is a
driver that only supplies candidates in cost order and a probe
answering the rule's questions — the serial loop below (the evaluator
itself), the block kernel of :mod:`repro.compiled.batch` (its arrays)
and the upgrade search of :mod:`repro.core.incremental`.  Their
pruning decisions, statistics and tie-breaking therefore agree by
construction, with or without budgets, checkpoints and resumption.
"""

from __future__ import annotations

import inspect
import itertools
import logging
import time
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from ..boolexpr import Expr
from ..errors import CheckpointError, ExplorationError
from ..spec import SpecificationGraph
from ..timing import PAPER_UTILIZATION_BOUND
from .candidates import possible_allocation_expr
from .estimate import estimate_flexibility
from .evaluation import (
    BINDING_BACKENDS,
    ENGINES,
    TIMING_MODES,
    cache_counter_snapshot,
    charge_cache_counters,
    make_evaluator,
)
from ..trace import tracer as taxonomy
from .pareto import final_front
from .progress import ProgressEmitter
from .result import ExplorationResult, ExplorationStats, OptimalityGap

logger = logging.getLogger(__name__)

def warm_store_path(warm_store) -> Optional[str]:
    """Normalise ``explore(warm_store=...)`` to a directory path.

    Accepts ``None``, a directory path, or a
    :class:`repro.store.WarmStore` (its root is used); anything else
    raises :class:`ExplorationError`.
    """
    if warm_store is None:
        return None
    root = getattr(warm_store, "root", warm_store)
    if not isinstance(root, str) or not root:
        raise ExplorationError(
            f"warm_store must be a store directory path or a "
            f"repro.store.WarmStore, got {warm_store!r}"
        )
    return root


class ExplorationSetup(NamedTuple):
    """Validated, precomputed inputs of one exploration run."""

    #: Units every candidate must contain (resolved names).
    required: FrozenSet[str]
    #: Units no candidate may contain (resolved names).
    forbidden: FrozenSet[str]
    #: The freely allocatable units, i.e. neither required nor forbidden.
    extra_names: List[str]
    #: Total cost of the required units.
    required_cost: float
    #: The possible-resource-allocation boolean equation.
    possible: Expr
    #: Global flexibility upper bound (the stop condition).
    f_max: float


# --- the parameter table ----------------------------------------------------
#
# Every ``explore()`` parameter after ``spec`` is declared once, below,
# with its role; every other list of parameter names in the package
# (resume, checkpoint header, service jobs, evaluator parameters) is
# derived from this table.

#: Changes the front: a resume may not change it.
RESULT = "result"
#: Counts enumeration positions (``max_candidates``): frozen on resume.
POSITION = "position"
#: How the work runs; never changes the result, so a resume may
#: override it.
GEOMETRY = "geometry"
#: Anytime budgets: they truncate with an explicit gap, and a resume
#: may override them.
BUDGET = "budget"
#: Per-session seams (journal path, observers): never journaled.
SESSION = "session"


class ExploreParam(NamedTuple):
    """One row of :data:`EXPLORE_PARAMS`."""

    name: str
    role: str
    #: Where the parameter travels besides its role: ``job`` (a service
    #: submission may set it) and ``evaluator`` (an argument of
    #: :func:`~repro.core.evaluation.make_evaluator`).
    tags: FrozenSet[str]


#: Every ``explore()`` parameter after ``spec``, in signature order.
EXPLORE_PARAMS = tuple(
    ExploreParam(name, role, frozenset(tags.split()))
    for name, role, tags in (
        # name                 role      tags
        ("util_bound",          RESULT,   "job evaluator"),
        ("max_cost",            RESULT,   "job"),
        ("max_candidates",      POSITION, "job"),
        ("use_possible_filter", RESULT,   "job"),
        ("use_estimation",      RESULT,   "job"),
        ("prune_comm",          RESULT,   "job"),
        ("check_utilization",   RESULT,   "job evaluator"),
        ("weighted",            RESULT,   "job evaluator"),
        ("backend",             RESULT,   "job evaluator"),
        ("keep_ties",           RESULT,   "job"),
        ("timing_mode",         RESULT,   "job evaluator"),
        ("require_units",       RESULT,   "job"),
        ("forbid_units",        RESULT,   "job"),
        ("deadline_seconds",    BUDGET,   ""),
        ("max_evaluations",     BUDGET,   ""),
        ("checkpoint",          SESSION,  ""),
        ("checkpoint_every",    GEOMETRY, ""),
        ("progress",            SESSION,  ""),
        ("progress_every",      SESSION,  ""),
        ("tracer",              SESSION,  ""),
        ("engine",              GEOMETRY, "job evaluator"),
        ("warm_store",          GEOMETRY, "evaluator"),
        ("telemetry",           SESSION,  ""),
    )
)


def param_names(*roles: str, tag: Optional[str] = None) -> Tuple[str, ...]:
    """Names of the :data:`EXPLORE_PARAMS` rows with one of ``roles``
    (any role when none is given) and carrying ``tag``, in table
    order."""
    return tuple(
        p.name
        for p in EXPLORE_PARAMS
        if (not roles or p.role in roles) and (tag is None or tag in p.tags)
    )


def bound_params(
    namespace: Mapping[str, Any], names: Iterable[str] = param_names()
) -> Dict[str, Any]:
    """The parameters ``names`` (default: all of them) as bound in
    ``namespace`` — a call's ``locals()`` or a checkpoint header;
    names it lacks are skipped."""
    return {name: namespace[name] for name in names if name in namespace}


def validate_explore_options(
    backend: str,
    timing_mode: Optional[str],
    *,
    deadline_seconds: Optional[float] = None,
    max_evaluations: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    engine: Optional[str] = None,
) -> None:
    """Reject unknown modes/backends with a clear :class:`ExplorationError`.

    Historically an unknown ``backend`` silently fell through to the CSP
    solver and an unknown ``timing_mode`` surfaced as a ``ValueError``
    from deep inside the evaluation; exploration now fails fast instead.
    """
    if backend not in BINDING_BACKENDS:
        raise ExplorationError(
            f"unknown binding backend {backend!r}; "
            f"expected one of {BINDING_BACKENDS}"
        )
    if timing_mode is not None and timing_mode not in TIMING_MODES:
        raise ExplorationError(
            f"unknown timing_mode {timing_mode!r}; "
            f"expected one of {TIMING_MODES}"
        )
    if deadline_seconds is not None and deadline_seconds < 0:
        raise ExplorationError(
            f"deadline_seconds must be >= 0, got {deadline_seconds!r}"
        )
    if max_evaluations is not None and max_evaluations < 0:
        raise ExplorationError(
            f"max_evaluations must be >= 0, got {max_evaluations!r}"
        )
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ExplorationError(
            f"checkpoint_every must be a positive integer, "
            f"got {checkpoint_every!r}"
        )
    if engine is not None and engine not in ENGINES:
        raise ExplorationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )


_VALIDATED = tuple(inspect.signature(validate_explore_options).parameters)


def validate_bound_options(options: Mapping[str, Any]) -> None:
    """:func:`validate_explore_options` over bound parameters (see
    :func:`bound_params`)."""
    validate_explore_options(**bound_params(options, _VALIDATED))


def prepare_exploration(
    spec: SpecificationGraph,
    require_units: Optional[Iterable[str]],
    forbid_units: Optional[Iterable[str]],
    max_cost: Optional[float],
    weighted: bool,
    evaluator=None,
) -> ExplorationSetup:
    """Validate the specification/constraints and precompute run inputs.

    ``evaluator`` — when given, the engine evaluator computes ``f_max``
    (both engines agree on every estimate, differentially tested); the
    possible-allocation expression is cached on the specification
    either way, so repeated preparations stop recompiling it.
    """
    if not spec.frozen:
        raise ExplorationError("specification must be frozen before explore()")
    required = frozenset(
        spec.units.unit(u).name for u in (require_units or ())
    )
    forbidden = frozenset(
        spec.units.unit(u).name for u in (forbid_units or ())
    )
    if required & forbidden:
        raise ExplorationError(
            f"units {sorted(required & forbidden)!r} are both required "
            f"and forbidden"
        )
    extra_names = [
        n
        for n in spec.units.names()
        if n not in required and n not in forbidden
    ]
    if max_cost is None and any(
        spec.units.unit(n).cost <= 0 for n in extra_names
    ):
        raise ExplorationError(
            "specification has zero-cost units; pass max_cost to bound "
            "the enumeration"
        )
    possible = possible_allocation_expr(spec)
    required_cost = spec.units.total_cost(required)
    all_usable = set(spec.units.names()) - forbidden
    if evaluator is not None:
        f_max = evaluator.estimate(frozenset(all_usable))
    else:
        f_max = estimate_flexibility(spec, all_usable, weighted)
    return ExplorationSetup(
        required, forbidden, extra_names, required_cost, possible, f_max
    )


def _charged_enumeration(stream, sinks):
    """Yield from ``stream``, charging each pull's wall-clock to the
    ``enumerate`` phase of every sink (tracer/profiler).  Pure
    observation on the wall-clock channel — ``phase_totals`` records
    are excluded from trace fingerprints."""
    sinks = tuple(s for s in sinks if s is not None)
    iterator = iter(stream)
    clock = time.perf_counter
    while True:
        t0 = clock()
        item = next(iterator, None)
        dt = clock() - t0
        for sink in sinks:
            sink.charge("enumerate", dt)
        if item is None:
            return
        yield item


class Snapshot(NamedTuple):
    """What a checkpoint journals of an :class:`ExploreState`."""

    #: Candidates consumed in the enumeration order.
    cursor: int
    #: The incumbent flexibility.
    f_cur: float
    #: The incumbent points (discovery order, before the final
    #: dominance pass).
    points: List
    #: :meth:`ExplorationStats.as_dict` without ``elapsed_seconds``.
    counters: Dict[str, Any]
    #: The statistics' event log.
    events: List[Dict[str, Any]]


#: The counters :meth:`ExploreState.restore` takes from a snapshot
#: (the design-space size is the specification's own).
_RESTORED_COUNTERS = frozenset(ExplorationStats.__slots__) - {
    "design_space_size",
    "elapsed_seconds",
    "events",
}


class ExploreState:
    """EXPLORE's decision rule, written once for every driver.

    The state owns everything that depends on the incumbent: ``f_cur``,
    the discovered ``points``, tie handling, the stop rules, every
    :class:`ExplorationStats` counter and all emission to the progress
    emitter, the tracer and the profiler.  A driver only supplies the
    candidates, in cost order, each with a *probe*: any object with the
    evaluator protocol ``possible`` / ``comm_pruned`` / ``estimate`` /
    ``evaluate`` / ``infeasibility_reason``.  The serial loop passes
    the evaluator itself; the block kernel passes a view of its arrays.

    Per candidate, a driver checks :meth:`out_of_budget` (when a
    :attr:`budget` is set), calls :meth:`admit` (the flexibility and
    cost bounds, checked before the candidate is counted) and then
    :meth:`step` (count it and decide it); either returning ``False``
    ends the run, and :meth:`advance` then moves the :attr:`cursor`
    past the consumed candidate.  The block kernel steps only the rows
    whose fate depends on the incumbent or a bound; it counts the rows
    the rule drops unseen (and moves the cursor past them) in bulk.
    :meth:`finish` builds the result.

    The cursor counts the candidates consumed in the deterministic
    enumeration order.  With a checkpoint :attr:`journal` attached,
    :meth:`flush` journals a :meth:`snapshot` at every multiple of
    :attr:`every`; :meth:`restore` continues from one.

    With a tracer or profiler attached, the probe's estimate and
    evaluate calls are charged to their phases and evaluations get
    wall-clock.

    ``evaluator`` — the run's engine, whose memo/warm counter deltas
    from here on are charged to the statistics.  ``name`` labels the
    run's log records (the specification name).
    """

    def __init__(
        self,
        f_max: float,
        design_space_size: int,
        *,
        name: str = "",
        max_cost: Optional[float] = None,
        max_candidates: Optional[int] = None,
        use_possible_filter: bool = True,
        prune_comm: bool = True,
        use_estimation: bool = True,
        keep_ties: bool = False,
        emitter: Optional[ProgressEmitter] = None,
        tracer=None,
        profiler=None,
        evaluator=None,
        f_cur: float = 0.0,
        points: Optional[List] = None,
        cursor: int = 0,
    ) -> None:
        self.name = name
        self.f_max = f_max
        self.f_cur = f_cur
        self.points: List = [] if points is None else points
        self.stats = ExplorationStats()
        self.stats.design_space_size = design_space_size
        self.max_cost = max_cost
        self.max_candidates = max_candidates
        self.use_possible_filter = use_possible_filter
        self.prune_comm = prune_comm
        self.use_estimation = use_estimation
        self.keep_ties = keep_ties
        self.emitter = emitter or ProgressEmitter(None)
        self.tracer = tracer
        self.audit = tracer is not None and tracer.audit
        self.sinks = tuple(s for s in (tracer, profiler) if s is not None)
        self.timed = bool(self.sinks)
        self.evaluator = evaluator
        self.cache_base = cache_counter_snapshot(evaluator)
        #: Candidates consumed in the enumeration order.
        self.cursor = cursor
        #: The anytime budget (an :class:`~repro.resilience.anytime.
        #: AnytimeBudget`) and the gap of the run it truncated.
        self.budget = None
        self.truncation: Optional[OptimalityGap] = None
        #: The checkpoint journal (a :class:`~repro.resilience.
        #: checkpoint.CheckpointWriter`) and its snapshot cadence (0
        #: without a journal).
        self.journal = None
        self.every = 0
        self.started = time.perf_counter()
        self.emitter.start(design_space_size, f_max)
        if tracer is not None:
            tracer.start(design_space_size, f_max, cursor=cursor)

    def charge(self, phase: str, seconds: float) -> None:
        """Charge wall-clock seconds to a phase of every sink."""
        for sink in self.sinks:
            sink.charge(phase, seconds)

    def stop(self, reason: str, **fields) -> None:
        """Record the rule that ended the enumeration early."""
        if self.tracer is not None:
            self.tracer.stop(
                reason, **fields, candidates=self.stats.candidates_enumerated
            )

    def out_of_budget(self, cost: float) -> bool:
        """Stop at the candidate of ``cost`` when the budget is spent:
        its cost bounds everything unexplored.  Checked before
        :meth:`admit`, so a truncated run's state is exactly the
        untruncated run's state after a prefix of the order."""
        reason = self.budget.exhausted(self.stats.estimate_exceeded)
        if reason is None:
            return False
        self.truncation = OptimalityGap(
            next_cost_bound=cost,
            flexibility_bound=self.f_max,
            achieved_flexibility=self.f_cur,
            reason=reason,
        )
        self.stop(taxonomy.BUDGET, budget=reason, next_cost_bound=cost)
        return True

    def advance(self) -> None:
        """Move the cursor past one consumed candidate; journal a
        snapshot when it lands on the cadence."""
        self.cursor += 1
        if self.journal is not None and self.cursor % self.every == 0:
            self.flush()

    def snapshot(self) -> Snapshot:
        """The state a checkpoint journals (points and events copied)."""
        stats = self.stats
        counters = stats.as_dict()
        del counters["elapsed_seconds"]
        return Snapshot(
            self.cursor,
            self.f_cur,
            list(self.points),
            counters,
            list(stats.events),
        )

    def restore(self, snapshot) -> None:
        """Continue from a :class:`Snapshot` (or anything with its
        fields, such as a loaded checkpoint)."""
        stats = self.stats
        for name, value in snapshot.counters.items():
            if name in _RESTORED_COUNTERS:
                setattr(stats, name, value)
        stats.events = list(snapshot.events)
        self.cursor = snapshot.cursor
        self.f_cur = snapshot.f_cur
        self.points = list(snapshot.points)

    def flush(self, completed: bool = False) -> None:
        """Journal a snapshot.  It is counted *before* it is taken: the
        M-th record stores ``checkpoints_written == M``, so a run
        killed after record M and resumed writes the same total as the
        uninterrupted run."""
        self.stats.checkpoints_written += 1
        self.journal.checkpoint(*self.snapshot(), completed=completed)

    def admit(self, cost: float) -> bool:
        """The bounds checked before a candidate is counted: the global
        flexibility bound (with ties kept, candidates of the maximal
        point's own cost still pass) and ``max_cost``."""
        if self.f_cur >= self.f_max:
            points = self.points
            if not self.keep_ties or not points or cost > points[-1].cost:
                self.stop(
                    taxonomy.FLEXIBILITY_BOUND_REACHED,
                    cost=cost,
                    f_max=self.f_max,
                )
                return False
        if self.max_cost is not None and cost > self.max_cost:
            self.stop(taxonomy.COST_BOUND, cost=cost, max_cost=self.max_cost)
            return False
        return True

    def step(self, cost: float, units: FrozenSet[str], probe) -> bool:
        """Count one admitted candidate and decide it: prune it by the
        possible-allocation equation, useless communication or the
        estimate, or bind it (:meth:`bind`).  ``False`` when
        ``max_candidates`` ends the run at this candidate."""
        stats = self.stats
        stats.candidates_enumerated += 1
        self.emitter.candidate(
            stats.candidates_enumerated,
            stats.estimate_exceeded,
            stats.feasible_implementations,
            self.f_cur,
        )
        if (
            self.max_candidates is not None
            and stats.candidates_enumerated > self.max_candidates
        ):
            self.stop(
                taxonomy.MAX_CANDIDATES,
                cost=cost,
                max_candidates=self.max_candidates,
            )
            return False
        if self.use_possible_filter:
            if not probe.possible(units):
                if self.audit:
                    self.tracer.prune(
                        taxonomy.IMPOSSIBLE_ALLOCATION, cost, units
                    )
                return True
            stats.possible_allocations += 1
        if self.prune_comm and probe.comm_pruned(units):
            stats.pruned_comm += 1
            if self.audit:
                self.tracer.prune(taxonomy.USELESS_COMM, cost, units)
            return True
        estimate = None
        if self.use_estimation:
            stats.estimates_computed += 1
            if self.timed:
                t0 = time.perf_counter()
                estimate = probe.estimate(units)
                self.charge("estimate", time.perf_counter() - t0)
            else:
                estimate = probe.estimate(units)
            f_cur = self.f_cur
            if estimate < f_cur or (estimate == f_cur and not self.keep_ties):
                reason = taxonomy.ESTIMATE_BELOW_INCUMBENT
            elif (
                self.keep_ties
                and estimate == f_cur
                and self.points
                and cost > self.points[-1].cost
            ):
                # same flexibility at higher cost is dominated
                reason = taxonomy.TIE_HIGHER_COST
            else:
                reason = None
            if reason is not None:
                if self.audit:
                    self.tracer.prune(
                        reason, cost, units, estimate=estimate, incumbent=f_cur
                    )
                return True
        self.bind(cost, units, estimate, probe)
        return True

    def bind(
        self,
        cost: float,
        units: FrozenSet[str],
        estimate: Optional[float],
        probe,
    ) -> None:
        """Evaluate a candidate that passed the pruning and record it:
        a new incumbent, an equal-cost tie (``keep_ties``), or a prune."""
        stats = self.stats
        stats.estimate_exceeded += 1
        tracer = self.tracer
        solver_calls = [0]
        t0 = t1 = detail = None
        if self.timed:
            detail = {}
            t0 = time.perf_counter()
            implementation = probe.evaluate(
                units, solver_counter=solver_calls, detail=detail
            )
            t1 = time.perf_counter()
            self.charge("evaluate", t1 - t0)
            self.charge("binding", detail.get("binding_seconds", 0.0))
            if detail.get("timing_checks"):
                self.charge("timing", detail["timing_seconds"])
        else:
            implementation = probe.evaluate(units, solver_counter=solver_calls)
        # Charged at the step (not summed at the end) so that mid-run
        # checkpoints journal the exact counter.
        stats.solver_invocations += solver_calls[0]
        f_cur = self.f_cur
        if tracer is not None:
            tracer.evaluate(
                cost,
                units,
                estimate,
                solver_calls[0],
                implementation is not None,
                implementation.flexibility
                if implementation is not None
                else 0.0,
                f_cur,
                t0=t0,
                t1=t1,
                diag=detail,
            )
        if implementation is None:
            if self.audit:
                tracer.prune(
                    probe.infeasibility_reason(units),
                    cost,
                    units,
                    estimate=estimate,
                    incumbent=f_cur,
                )
            return
        stats.feasible_implementations += 1
        points = self.points
        if implementation.flexibility > f_cur:
            self.f_cur = implementation.flexibility
        elif not (
            self.keep_ties
            and points
            and implementation.flexibility == f_cur
            and implementation.cost == points[-1].cost
            and implementation.units != points[-1].units
        ):
            if self.audit:
                tracer.prune(
                    taxonomy.NOT_IMPROVING,
                    cost,
                    units,
                    estimate=estimate,
                    achieved=implementation.flexibility,
                    incumbent=f_cur,
                )
            return
        points.append(implementation)
        self.emitter.incumbent(
            implementation.cost,
            implementation.flexibility,
            implementation.units,
            stats.candidates_enumerated,
            stats.estimate_exceeded,
        )
        if tracer is not None:
            tracer.incumbent(
                implementation.cost,
                implementation.flexibility,
                implementation.units,
                stats.candidates_enumerated,
                stats.estimate_exceeded,
            )
        logger.debug(
            "incumbent: cost=%g flexibility=%g after %d candidates",
            implementation.cost,
            implementation.flexibility,
            stats.candidates_enumerated,
        )

    def finish(self) -> ExplorationResult:
        """The final dominance pass, end events and the result (with
        the gap of a run the budget cut short)."""
        truncation = self.truncation
        points = self.points
        # Cost-ordered discovery with strictly increasing flexibility
        # makes the points mutually non-dominated except for one corner
        # case: a same-cost candidate later in the tie order may achieve
        # strictly more flexibility (see :func:`final_front`).
        t0 = time.perf_counter()
        front = final_front(points)
        self.charge("pareto", time.perf_counter() - t0)
        # The compiled engine builds a coverage record when it is first
        # read, and binds one decided by implication only then; read
        # them here, so that no result holds an ECS table or the
        # evaluator.
        for point in front:
            for record in point.coverage:
                record.selection, record.clusters, record.binding
        tracer = self.tracer
        # Dominated-point audit records belong to a run's *final*
        # dominance pass; a preempted service slice (truncation
        # suppressed) re-runs this pass every slice and must not
        # re-record them.
        if (
            self.audit
            and len(front) < len(points)
            and (truncation is None or tracer.record_truncation)
        ):
            survivors = {id(p) for p in front}
            for p in points:
                if id(p) not in survivors:
                    tracer.prune(
                        taxonomy.DOMINATED,
                        p.cost,
                        p.units,
                        flexibility=p.flexibility,
                    )
        stats = self.stats
        charge_cache_counters(stats, self.evaluator, self.cache_base)
        stats.elapsed_seconds = time.perf_counter() - self.started
        completed = truncation is None
        reason = None if completed else truncation.reason
        logger.info(
            "explore end: spec=%s candidates=%d evaluations=%d points=%d "
            "completed=%s elapsed=%.3fs",
            self.name,
            stats.candidates_enumerated,
            stats.estimate_exceeded,
            len(front),
            completed,
            stats.elapsed_seconds,
        )
        self.emitter.end(
            completed,
            reason,
            stats.candidates_enumerated,
            stats.estimate_exceeded,
            len(front),
        )
        if tracer is not None:
            tracer.end(
                completed,
                reason,
                stats.candidates_enumerated,
                stats.estimate_exceeded,
                stats.feasible_implementations,
                len(front),
                [list(p.point) for p in front],
            )
        return ExplorationResult(
            front, stats, self.f_max, completed=completed, gap=truncation
        )


def explore(
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
) -> ExplorationResult:
    """Find all Pareto-optimal (cost, flexibility) implementations.

    Parameters
    ----------
    spec:
        A frozen specification graph.
    util_bound:
        Utilisation acceptance bound (the paper's 69%).
    max_cost / max_candidates:
        Optional exploration budgets; exceeding either ends the run.
        ``max_cost`` is mandatory when the specification has zero-cost
        units (cost order alone would then not bound the enumeration).
    use_possible_filter / use_estimation / prune_comm:
        Toggles for the three pruning techniques (used by the ablation
        bench); all default to the paper's configuration.
    check_utilization:
        Disable to explore without the performance test.
    weighted:
        Use the footnote-2 weighted flexibility.
    backend:
        Binding-solver backend, ``"csp"`` (default) or ``"sat"``.
        Unknown backends raise :class:`ExplorationError`.
    timing_mode:
        Performance test: ``"utilization"`` (the paper's 69% estimate,
        default), ``"schedule"`` (exact one-period list scheduling — the
        paper's future work) or ``"none"``.  Overrides
        ``check_utilization`` when given; unknown modes raise
        :class:`ExplorationError`.
    require_units / forbid_units:
        What-if constraints: only allocations containing every required
        unit and none of the forbidden ones are considered ("the
        platform must keep the ASIC", "the FPGA vendor is out").
    keep_ties:
        The published EXPLORE keeps only the first implementation per
        (cost, flexibility) point (strict ``f > f_cur``).  With
        ``keep_ties=True`` every equally-optimal allocation of the same
        cost and flexibility is reported as well — e.g. all $230/f=4
        variants of the case study.
    deadline_seconds / max_evaluations:
        Anytime budgets (see ``docs/resilience.md``): stop gracefully at
        a candidate boundary when the wall-clock deadline passes or the
        budget of full candidate evaluations is spent, returning the
        best-so-far front with ``completed=False`` and an explicit
        :class:`~repro.core.result.OptimalityGap`.  Unlike
        ``max_cost``/``max_candidates`` (which silently bound the search
        *space*), a budget-truncated result always says it is truncated
        and bounds what was left on the table.
    checkpoint / checkpoint_every:
        Journal fsync'd snapshots of the search state (every
        ``checkpoint_every`` consumed candidates, default
        :data:`repro.resilience.checkpoint.CHECKPOINT_EVERY_DEFAULT`,
        and at the end) to ``checkpoint``;
        :func:`repro.resilience.resume_explore` continues a killed run
        to an identical result.
    progress / progress_every:
        Structured observation seam (see :mod:`repro.core.progress`):
        ``progress`` is called with plain-dictionary lifecycle events
        (``explore_start``, ``incumbent``, ``explore_end``, and — every
        ``progress_every`` enumerated candidates — ``progress``).  The
        event sequence is identical for plain, budgeted, checkpointed
        and resumed runs of the same exploration; the CLI and the
        exploration service (:mod:`repro.service`) both consume this
        seam.
    tracer:
        An optional :class:`repro.trace.Tracer` collecting deterministic
        span/audit records of the search (see ``docs/observability.md``).
        Like progress events, trace records are emitted at candidate
        positions with no wall-clock in fingerprint-relevant fields, so
        plain, checkpointed and service runs of the same exploration
        produce byte-identical logical traces.  ``None`` (the default)
        disables tracing with zero behaviour change.
    engine:
        Candidate-evaluation engine: ``"compiled"`` (default — the
        bitmask kernel of :mod:`repro.compiled` with cross-candidate
        memoization) or ``"reference"`` (the classic per-candidate
        pipeline).  Both produce identical fronts, statistics, progress
        events and logical traces — the compiled engine is
        differentially tested against the reference on every corpus —
        so this is purely a performance/debugging escape hatch (see
        ``docs/performance.md``).
    warm_store:
        Directory of a persistent warm-start verdict store (or a
        :class:`repro.store.WarmStore`): the compiled kernel's binding
        verdicts are loaded before solving and written behind on
        misses, so repeated runs — across processes and across latency
        or cost edits of the specification — skip re-solving
        sub-problems whose content-addressed inputs are unchanged.
        Results are byte-identical with and without the store (and
        after arbitrary edit chains — differentially tested); the
        warm/cold split is reported in ``stats.cache_dict()``.  See
        :mod:`repro.store`, ``docs/performance.md`` and
        ``docs/formats.md``.
    telemetry:
        An optional :class:`repro.telemetry.Telemetry` bundle (or bare
        :class:`repro.telemetry.PhaseProfiler`) accumulating wall-clock
        phase histograms on the same seam the tracer's ``phase_totals``
        ride.  Telemetry is strictly wall-clock-side observation: the
        result, progress events and logical trace fingerprints are
        byte-identical with it on or off (differentially tested).  Not
        journaled by checkpoints — like ``progress`` and ``tracer`` it
        is a per-session observation seam.  See
        ``docs/observability.md``.

    Returns an :class:`~repro.core.result.ExplorationResult` whose
    ``points`` are the Pareto-optimal implementations in increasing cost
    order.  Without ``keep_ties``, cost ties with equal flexibility are
    resolved in favour of the first candidate in the deterministic
    enumeration order.
    """
    return run_exploration(spec, bound_params(locals()))


def run_exploration(
    spec: SpecificationGraph,
    options: Mapping[str, Any],
    resume=None,
) -> ExplorationResult:
    """The one EXPLORE driver behind :func:`explore` and
    :func:`repro.resilience.resume_explore`.

    ``options`` are bound :data:`EXPLORE_PARAMS` (missing ones take
    their :func:`explore` defaults); ``resume`` is a loaded checkpoint
    (:class:`repro.resilience.checkpoint.LoadedCheckpoint`) whose
    snapshot the run continues from.
    """
    options = dict(_DEFAULTS, **options)
    validate_bound_options(options)
    if not spec.frozen:
        raise ExplorationError("specification must be frozen before explore()")
    options["warm_store"] = warm_store_path(options["warm_store"])
    emitter = ProgressEmitter(options["progress"], options["progress_every"])
    tracer = options["tracer"]
    evaluator = make_evaluator(
        spec, **bound_params(options, param_names(tag="evaluator"))
    )
    setup = prepare_exploration(
        spec,
        options["require_units"],
        options["forbid_units"],
        options["max_cost"],
        options["weighted"],
        evaluator=evaluator,
    )
    required = setup.required
    # Telemetry rides the tracer's phase seam (duck-typed: Telemetry
    # and PhaseProfiler both expose ``.profiler``); kept import-free so
    # the core never depends on repro.telemetry.
    profiler = getattr(options["telemetry"], "profiler", None)

    # The block kernel (repro.compiled.batch) drives the run when the
    # engine offers it and numpy is available: candidate enumeration
    # and the incumbent-independent pre-filters run over uint64 blocks,
    # and only the rows the rule must see are stepped through the
    # state.  Otherwise the per-candidate loop below runs.  Results,
    # progress events and logical traces are byte-identical either way
    # (differentially tested).
    block_factory = getattr(evaluator, "block_context", None)
    block = None
    if block_factory is not None:
        block = block_factory(
            setup.extra_names,
            bool(required),
            required,
            setup.required_cost,
            use_possible_filter=options["use_possible_filter"],
            prune_comm=options["prune_comm"],
            use_estimation=options["use_estimation"],
            sinks=(tracer, profiler),
        )
    state = ExploreState(
        setup.f_max,
        1 << len(setup.extra_names),
        name=spec.name,
        max_cost=options["max_cost"],
        max_candidates=options["max_candidates"],
        use_possible_filter=options["use_possible_filter"],
        prune_comm=options["prune_comm"],
        use_estimation=options["use_estimation"],
        keep_ties=options["keep_ties"],
        emitter=emitter,
        tracer=tracer,
        profiler=profiler,
        evaluator=evaluator,
        cursor=0 if resume is None else resume.cursor,
    )
    if resume is not None:
        state.restore(resume)
    deadline = options["deadline_seconds"]
    max_evaluations = options["max_evaluations"]
    if deadline is not None or max_evaluations is not None:
        from ..resilience.anytime import AnytimeBudget

        state.budget = AnytimeBudget(deadline, max_evaluations)
    if options["checkpoint"] is not None:
        from ..resilience.checkpoint import (
            CHECKPOINT_EVERY_DEFAULT,
            CheckpointWriter,
            header_params,
        )

        every = options["checkpoint_every"] or CHECKPOINT_EVERY_DEFAULT
        state.every = every
        state.journal = CheckpointWriter(
            options["checkpoint"],
            spec,
            header_params(options, checkpoint_every=every),
            resume_length=None if resume is None else resume.valid_length,
        )
    logger.info(
        "explore start: spec=%s design_space=%d f_max=%g cursor=%d",
        spec.name,
        state.stats.design_space_size,
        state.f_max,
        state.cursor,
    )
    try:
        if block is not None:
            block.run_fast(state)
        else:
            _run_candidates(state, evaluator, setup, profiler)
        journal = state.journal
        # The final snapshot is skipped when a resume reproduced the
        # journaled end state exactly (no candidate consumed, same
        # completion), so that resuming a finished run is idempotent:
        # ``checkpoints_written`` included.
        completed = state.truncation is None
        if journal is not None and not (
            resume is not None
            and state.cursor == resume.cursor
            and resume.completed == completed
        ):
            state.flush(completed=completed)
    finally:
        if state.journal is not None:
            state.journal.close()
    return state.finish()


#: :func:`explore`'s parameter defaults, by name.
_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(explore).parameters.items()
    if name != "spec"
}


def check_cursor(cursor: int, skipped: int) -> None:
    """Raise unless a resumed enumeration could drop all ``cursor``
    rows it consumed before (it had only ``skipped``)."""
    if skipped < cursor:
        raise CheckpointError(
            f"checkpoint cursor {cursor} exceeds the enumeration "
            f"({skipped} candidates); the journal does not belong "
            f"to this specification"
        )


def _run_candidates(state, evaluator, setup, profiler) -> None:
    """The per-candidate loop, for engines without a block kernel:
    every candidate of the evaluator's enumerator is admitted and
    stepped through ``state``, the evaluator answering as the probe."""
    required = setup.required
    tracer = state.tracer
    stream = evaluator.enumerator(
        setup.extra_names, include_empty=bool(required)
    )
    if tracer is not None or profiler is not None:
        stream = _charged_enumeration(stream, (tracer, profiler))
    if state.cursor:
        stream = iter(stream)
        check_cursor(
            state.cursor,
            sum(1 for _ in itertools.islice(stream, state.cursor)),
        )
    required_cost = setup.required_cost
    budget = state.budget
    for extra_cost, extras in stream:
        cost = required_cost + extra_cost
        if budget is not None and state.out_of_budget(cost):
            break
        # Preserve the enumerator's frozenset identity when nothing
        # is required — the compiled engine keys its units->mask
        # handoff memo on it (a union would copy and defeat it).
        units = required | extras if required else extras
        if not (state.admit(cost) and state.step(cost, units, evaluator)):
            break
        state.advance()
