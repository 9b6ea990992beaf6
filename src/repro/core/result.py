"""Result containers of implementation evaluation and exploration."""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Tuple


class EcsRecord:
    """One feasible elementary cluster-activation with its binding."""

    __slots__ = ("selection", "clusters", "binding")

    def __init__(
        self,
        selection: Dict[str, str],
        binding: Dict[str, str],
    ) -> None:
        #: interface -> selected cluster
        self.selection = dict(selection)
        #: the elementary cluster-activation (set of selected clusters)
        self.clusters: FrozenSet[str] = frozenset(selection.values())
        #: process -> resource leaf
        self.binding = dict(binding)

    def __repr__(self) -> str:
        return f"EcsRecord(clusters={sorted(self.clusters)})"


class Implementation:
    """A feasible implementation: allocation + coverage + flexibility.

    This is the payload attached to each Pareto point: the allocated
    units (with total cost), the clusters that some feasible ECS
    activates (``a+ = 1``), the achieved flexibility, and one feasible
    binding per covering ECS.
    """

    __slots__ = ("units", "cost", "flexibility", "clusters", "coverage")

    def __init__(
        self,
        units: FrozenSet[str],
        cost: float,
        flexibility: float,
        clusters: FrozenSet[str],
        coverage: List[EcsRecord],
    ) -> None:
        self.units = frozenset(units)
        self.cost = cost
        self.flexibility = flexibility
        self.clusters = frozenset(clusters)
        self.coverage = list(coverage)

    @property
    def point(self) -> Tuple[float, float]:
        """The (cost, flexibility) objective vector."""
        return (self.cost, self.flexibility)

    def ecs_for(self, cluster: str) -> Optional[EcsRecord]:
        """A covering ECS that activates ``cluster`` (or ``None``)."""
        for record in self.coverage:
            if cluster in record.clusters:
                return record
        return None

    def minimal_coverage(self) -> List[EcsRecord]:
        """A minimal sub-collection of :attr:`coverage` that still
        activates every implemented cluster.

        The evaluation loop collects coverage greedily and may keep
        redundant elementary cluster-activations; this is the smallest
        mode table (exact for small coverages) that exercises all of
        :attr:`clusters` — see :mod:`repro.core.cover`.
        """
        from .cover import minimal_cover

        chosen = minimal_cover(
            frozenset(self.clusters),
            [record.clusters for record in self.coverage],
        )
        return [self.coverage[i] for i in chosen]

    def __repr__(self) -> str:
        return (
            f"Implementation(units={sorted(self.units)}, cost={self.cost}, "
            f"f={self.flexibility})"
        )


class ExplorationStats:
    """Effort counters of one EXPLORE run (the Section 5 statistics),
    plus the resilience counters and degradation-event log introduced by
    the fault-tolerant runtime (:mod:`repro.resilience`)."""

    __slots__ = (
        "design_space_size",
        "candidates_enumerated",
        "possible_allocations",
        "pruned_comm",
        "estimates_computed",
        "estimate_exceeded",
        "solver_invocations",
        "feasible_implementations",
        "elapsed_seconds",
        "pool_retries",
        "pool_fallbacks",
        "batch_timeouts",
        "quarantined",
        "cache_corruptions",
        "checkpoints_written",
        "memo_hits",
        "memo_misses",
        "memo_implied",
        "warm_hits",
        "warm_misses",
        "warm_writes",
        "warm_corruptions",
        "events",
    )

    #: Compiled-kernel memo / warm-store counters: diagnostics outside
    #: the deterministic result fingerprint (see :meth:`cache_dict`).
    CACHE_COUNTERS = (
        "memo_hits",
        "memo_misses",
        "memo_implied",
        "warm_hits",
        "warm_misses",
        "warm_writes",
        "warm_corruptions",
    )

    def __init__(self) -> None:
        #: ``2^|units|`` — the raw design-space size.
        self.design_space_size = 0
        #: Subsets popped from the cost-ordered enumerator.
        self.candidates_enumerated = 0
        #: Candidates passing the possible-resource-allocation equation.
        self.possible_allocations = 0
        #: Candidates dropped by the useless-communication pruning.
        self.pruned_comm = 0
        #: Flexibility estimates computed.
        self.estimates_computed = 0
        #: Estimates exceeding the implemented flexibility (binding tried).
        self.estimate_exceeded = 0
        #: Invocations of the NP-complete binding solver.
        self.solver_invocations = 0
        #: Feasible implementations constructed.
        self.feasible_implementations = 0
        #: Wall-clock duration of the exploration.
        self.elapsed_seconds = 0.0
        #: Always 0: counters of the removed worker pools, candidate
        #: quarantine and outcome cache, kept so :meth:`as_dict` keeps
        #: its keys (pinned by golden fronts and result documents).
        self.pool_retries = 0
        self.pool_fallbacks = 0
        self.batch_timeouts = 0
        self.quarantined = 0
        self.cache_corruptions = 0
        #: Checkpoint records journaled during the run.
        self.checkpoints_written = 0
        #: Compiled-kernel verdict-memo hits/misses and — once a
        #: warm-start store is attached (``explore(warm_store=...)``) —
        #: the warm split of the misses: store hits, store misses,
        #: write-behinds and entries rejected as corrupt.  Diagnostics
        #: only: excluded from :meth:`as_dict` (and thus from every
        #: byte-identity fingerprint) because in-process evaluator
        #: interning and warm stores legitimately change the hit/miss
        #: split without changing results; read them via
        #: :meth:`cache_dict` or the result document's ``"cache"`` key.
        self.memo_hits = 0
        self.memo_misses = 0
        #: Verdict-memo misses answered by implication (a feasible
        #: subset projection of the same ECS), without the solver.
        self.memo_implied = 0
        self.warm_hits = 0
        self.warm_misses = 0
        self.warm_writes = 0
        self.warm_corruptions = 0
        #: Degradation events, newest last: dictionaries with at least a
        #: ``"kind"`` key.  Journaled with every checkpoint snapshot.
        self.events: List[Dict[str, Any]] = []

    def as_dict(self) -> Dict[str, float]:
        """The deterministic counters as a plain dictionary.

        The :attr:`events` log is not a counter and is excluded, and so
        are the memo/warm cache counters (:attr:`CACHE_COUNTERS`):
        everything here is deterministic — identical for plain,
        budgeted, checkpointed and resumed runs — while cache hit/miss
        splits
        are execution-dependent diagnostics (:meth:`cache_dict`).
        """
        skip = set(self.CACHE_COUNTERS)
        skip.add("events")
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in skip
        }

    def cache_dict(self) -> Dict[str, int]:
        """The memo/warm cache counters (diagnostics; see
        :meth:`as_dict` for why they live outside the fingerprint)."""
        return {name: getattr(self, name) for name in self.CACHE_COUNTERS}

    def record_event(self, kind: str, **fields: Any) -> None:
        """Append a degradation event (``kind`` plus free-form fields)."""
        event = {"kind": kind}
        event.update(fields)
        self.events.append(event)

    def __repr__(self) -> str:
        return (
            "ExplorationStats("
            + ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
            + ")"
        )


class OptimalityGap(NamedTuple):
    """Explicit bounds on what a truncated exploration may have missed.

    Candidates are enumerated in non-decreasing cost order, so when a
    run stops early every *unexplored* implementation costs at least
    :attr:`next_cost_bound`; and no implementation of any cost exceeds
    the global estimator bound :attr:`flexibility_bound`.  Concretely,
    the full run's Pareto points costing strictly less than
    ``next_cost_bound`` are exactly the truncated run's points below
    that cost (see ``docs/resilience.md`` for the proof sketch and the
    differential test that enforces it).
    """

    #: Cost of the first candidate the run did not process: a lower
    #: bound on the cost of any undiscovered implementation.
    next_cost_bound: float
    #: The global flexibility upper bound (estimator on the full
    #: allocation): an upper bound on any undiscovered flexibility.
    flexibility_bound: float
    #: Best flexibility actually achieved before stopping.
    achieved_flexibility: float
    #: Why the run stopped early: ``"deadline"`` or ``"max_evaluations"``.
    reason: str


class ExplorationResult:
    """The outcome of one EXPLORE run: the Pareto set plus statistics.

    ``completed`` is ``False`` when the run stopped on an anytime
    budget (``deadline_seconds`` / ``max_evaluations``); ``gap`` then
    carries the :class:`OptimalityGap` bounding what may be missing.
    """

    __slots__ = ("points", "stats", "max_flexibility_bound", "completed", "gap")

    def __init__(
        self,
        points: List[Implementation],
        stats: ExplorationStats,
        max_flexibility_bound: float,
        completed: bool = True,
        gap: Optional[OptimalityGap] = None,
    ) -> None:
        #: Pareto-optimal implementations, in discovery (= cost) order.
        self.points = list(points)
        self.stats = stats
        #: The global flexibility upper bound used as stop condition.
        self.max_flexibility_bound = max_flexibility_bound
        #: ``True`` unless an anytime budget truncated the run.
        self.completed = completed
        #: Bounds on the truncation (``None`` for complete runs).
        self.gap = gap

    def front(self) -> List[Tuple[float, float]]:
        """The (cost, flexibility) pairs of the discovered front."""
        return [p.point for p in self.points]

    def best(self) -> Optional[Implementation]:
        """The most flexible implementation found (``None`` when empty)."""
        if not self.points:
            return None
        return max(self.points, key=lambda p: p.flexibility)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"ExplorationResult(front={self.front()!r})"
