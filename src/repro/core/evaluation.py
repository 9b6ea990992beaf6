"""Full evaluation of one resource allocation.

Given an allocation, determine the clusters that can actually be
implemented (``a+ = 1``): find a coverage of the activatable clusters
by elementary cluster-activations, each with a feasible binding that
respects communication routing, one-design-at-a-time reconfiguration
and the utilisation bound.  The achieved flexibility is Definition 4
over the covered clusters.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Set

from ..activation import flatten
from ..binding import Allocation, BindingSolver, solve_binding_sat
from ..spec import (
    SpecificationGraph,
    activatable_clusters,
    supports_problem,
)
from ..boolexpr import evaluate_over_set
from ..timing import PAPER_UTILIZATION_BOUND
from .candidates import (
    AllocationEnumerator,
    has_useless_comm,
    possible_allocation_expr,
)
from .ecs import force_chain, iter_selections
from .estimate import estimate_flexibility
from .flexibility import flexibility
from .result import EcsRecord, Implementation

#: Signature of a pluggable binding backend.
SolverBackend = Callable[..., object]

#: The recognised performance-test modes.
TIMING_MODES = ("utilization", "schedule", "none")

#: The recognised binding-solver backends.
BINDING_BACKENDS = ("csp", "sat")

#: The recognised candidate-evaluation engines (``explore(engine=...)``).
ENGINES = ("compiled", "reference")

#: Engine selected when ``engine=None``: the compiled bitmask kernel
#: (:mod:`repro.compiled`), differentially proven to reproduce the
#: reference pipeline exactly.
DEFAULT_ENGINE = "compiled"


#: How many structurally feasible bindings the exact-schedule mode
#: inspects per elementary cluster-activation before giving up.
SCHEDULE_SEARCH_LIMIT = 500


def evaluate_allocation(
    spec: SpecificationGraph,
    units: Iterable[str],
    util_bound: float = PAPER_UTILIZATION_BOUND,
    check_utilization: bool = True,
    weighted: bool = False,
    backend: str = "csp",
    solver_counter: Optional[list] = None,
    timing_mode: Optional[str] = None,
    detail: Optional[Dict[str, Any]] = None,
) -> Optional[Implementation]:
    """Construct the best implementation of an allocation, or ``None``.

    Returns ``None`` when the allocation supports no feasible
    implementation at all (not a possible resource allocation, or no
    elementary cluster-activation has a feasible binding).

    ``solver_counter`` — when given, a single-element list whose first
    entry is incremented per binding-solver invocation (used by the
    exploration statistics).

    ``detail`` — when given, a dictionary filled with the evaluation's
    wall-clock phase breakdown and solver effort (``binding_seconds``,
    ``timing_seconds``, ``timing_checks``, ``timing_rejections`` and a
    ``solver`` sub-dictionary mirroring
    :class:`repro.binding.SolverStats`).  Purely diagnostic: collecting
    it never changes the evaluation's outcome.  The serial exploration
    loop attaches it to the tracer's wall-clock channel
    (:mod:`repro.trace`).

    ``timing_mode`` selects the performance test:

    * ``"utilization"`` — the paper's 69% estimate (default);
    * ``"schedule"`` — the exact one-period list schedule the paper
      defers to future work (less pessimistic: accepts e.g. the game
      console on muP2);
    * ``"none"`` — structural feasibility only.

    When ``timing_mode`` is ``None`` it is derived from the legacy
    ``check_utilization`` flag.
    """
    if timing_mode is None:
        timing_mode = "utilization" if check_utilization else "none"
    if timing_mode not in TIMING_MODES:
        raise ValueError(f"unknown timing_mode {timing_mode!r}")
    if backend not in BINDING_BACKENDS:
        # Historically unknown backends silently fell through to the
        # CSP solver; fail fast instead.
        raise ValueError(f"unknown binding backend {backend!r}")
    unit_set = frozenset(units)
    if not supports_problem(spec, unit_set):
        return None
    allocation = Allocation(spec, unit_set)
    allowed = frozenset(activatable_clusters(spec, unit_set))
    index = spec.p_index
    check_util = timing_mode == "utilization"
    solver = BindingSolver(
        spec, allocation, util_bound, check_util
    )
    if detail is not None:
        detail.setdefault("binding_seconds", 0.0)
        detail.setdefault("timing_seconds", 0.0)
        detail.setdefault("timing_checks", 0)
        detail.setdefault("timing_rejections", 0)

    def check_schedule(flat, candidate) -> bool:
        from ..timing import schedule_meets_periods

        if detail is None:
            return schedule_meets_periods(spec, flat, candidate.as_dict())
        t0 = time.perf_counter()
        ok = schedule_meets_periods(spec, flat, candidate.as_dict())
        detail["timing_seconds"] += time.perf_counter() - t0
        detail["timing_checks"] += 1
        if not ok:
            detail["timing_rejections"] += 1
        return ok

    def solve_inner(flat):
        if solver_counter is not None:
            solver_counter[0] += 1
        if timing_mode == "schedule":
            for candidate in solver.iter_solutions(
                flat, limit=SCHEDULE_SEARCH_LIMIT
            ):
                if check_schedule(flat, candidate):
                    return candidate
            return None
        if backend == "sat":
            return solve_binding_sat(
                spec, allocation, flat, util_bound, check_util
            )
        return solver.solve(flat)

    def solve(flat):
        if detail is None:
            return solve_inner(flat)
        timing_before = detail["timing_seconds"]
        t0 = time.perf_counter()
        binding = solve_inner(flat)
        elapsed = time.perf_counter() - t0
        # The schedule checks run inside the solve; subtract them so the
        # binding and timing phases do not double-count.
        detail["binding_seconds"] += elapsed - (
            detail["timing_seconds"] - timing_before
        )
        return binding

    covered: Set[str] = set()
    coverage: list = []
    uncoverable: Set[str] = set()
    # Selections recur across cover targets; memoise their outcome so
    # each distinct ECS is flattened and solved at most once.
    outcome_cache: Dict[FrozenSet, Optional[object]] = {}

    def solve_selection(selection) -> Optional[object]:
        key = frozenset(selection.items())
        if key in outcome_cache:
            return outcome_cache[key]
        flat = flatten(spec.problem, selection, index)
        binding = solve(flat)
        outcome_cache[key] = binding
        return binding

    def try_cover(target: Optional[str]) -> bool:
        """Find a feasible ECS (containing ``target`` when given)."""
        forced = force_chain(spec, target) if target is not None else None
        for selection in iter_selections(
            spec.problem, index, allowed, forced
        ):
            binding = solve_selection(selection)
            if binding is not None:
                covered.update(selection.values())
                coverage.append(
                    EcsRecord(selection, binding.as_dict())
                )
                return True
        return False

    def snapshot_solver_stats() -> None:
        if detail is not None:
            detail["solver"] = {
                "invocations": solver.stats.invocations,
                "assignments": solver.stats.assignments,
                "backtracks": solver.stats.backtracks,
                "solutions": solver.stats.solutions,
                "util_rejections": solver.stats.util_rejections,
            }

    # First, any feasible implementation at all (the top level must be
    # activatable somehow, rule 4).
    if not try_cover(None):
        snapshot_solver_stats()
        return None
    # Then extend the coverage cluster by cluster.
    for cluster_name in sorted(allowed):
        if cluster_name in covered or cluster_name in uncoverable:
            continue
        if not try_cover(cluster_name):
            uncoverable.add(cluster_name)

    achieved = flexibility(
        spec.problem,
        active=frozenset(covered),
        weighted=weighted,
        strict=False,
    )
    snapshot_solver_stats()
    return Implementation(
        unit_set,
        allocation.cost,
        achieved,
        frozenset(covered),
        coverage,
    )


def infeasibility_reason(
    spec: SpecificationGraph,
    units: Iterable[str],
    util_bound: float = PAPER_UTILIZATION_BOUND,
    check_utilization: bool = True,
    weighted: bool = False,
    backend: str = "csp",
    timing_mode: Optional[str] = None,
) -> str:
    """Classify why an allocation has no feasible implementation.

    Returns ``"timing_test"`` when the allocation is structurally
    bindable but the active performance test (utilisation bound or
    exact schedule) rejected every binding, and
    ``"infeasible_binding"`` when no feasible binding exists even with
    the timing test disabled.  Used by the pruning audit trail
    (:mod:`repro.trace`); the classification re-evaluates the
    allocation with ``timing_mode="none"``, which is deterministic, so
    every driver agrees on it.
    """
    if timing_mode is None:
        timing_mode = "utilization" if check_utilization else "none"
    if timing_mode == "none":
        return "infeasible_binding"
    relaxed = evaluate_allocation(
        spec,
        units,
        util_bound=util_bound,
        check_utilization=False,
        weighted=weighted,
        backend=backend,
        timing_mode="none",
    )
    return "timing_test" if relaxed is not None else "infeasible_binding"


class ReferenceEvaluator:
    """The classic per-candidate pipeline behind ``engine="reference"``.

    A thin stateless façade over :func:`evaluate_allocation` and the
    pruning predicates, presenting the evaluator interface the
    exploration loops program against (see :func:`make_evaluator`):
    ``enumerator`` / ``possible`` / ``comm_pruned`` / ``estimate`` /
    ``evaluate`` / ``infeasibility_reason``.  Every method re-derives
    its answer from the specification exactly as the historical inline
    loop did, which is what makes this engine the differential-testing
    oracle for the compiled kernel (:mod:`repro.compiled`).
    """

    engine = "reference"

    def __init__(
        self,
        spec: SpecificationGraph,
        util_bound: float = PAPER_UTILIZATION_BOUND,
        check_utilization: bool = True,
        weighted: bool = False,
        backend: str = "csp",
        timing_mode: Optional[str] = None,
    ) -> None:
        if timing_mode is None:
            timing_mode = "utilization" if check_utilization else "none"
        if timing_mode not in TIMING_MODES:
            raise ValueError(f"unknown timing_mode {timing_mode!r}")
        if backend not in BINDING_BACKENDS:
            raise ValueError(f"unknown binding backend {backend!r}")
        self.spec = spec
        self.util_bound = util_bound
        self.weighted = weighted
        self.backend = backend
        self.timing_mode = timing_mode

    def enumerator(
        self,
        units: Optional[Iterable[str]] = None,
        include_empty: bool = False,
    ):
        """Cost-ordered candidate enumeration (``(cost, units)`` pairs)."""
        return AllocationEnumerator(
            self.spec, units, include_empty=include_empty
        )

    def possible(self, units: FrozenSet[str]) -> bool:
        """The possible-resource-allocation equation (Theorem 1)."""
        return evaluate_over_set(possible_allocation_expr(self.spec), units)

    def comm_pruned(self, units: FrozenSet[str]) -> bool:
        """True when the useless-communication rule drops the candidate."""
        return has_useless_comm(self.spec, units)

    def estimate(self, units: Iterable[str]) -> float:
        """The flexibility estimate (upper bound) of an allocation."""
        return estimate_flexibility(self.spec, units, self.weighted)

    def evaluate(
        self,
        units: Iterable[str],
        solver_counter: Optional[list] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> Optional[Implementation]:
        """Full implementation construction (binding + timing)."""
        return evaluate_allocation(
            self.spec,
            units,
            util_bound=self.util_bound,
            weighted=self.weighted,
            backend=self.backend,
            solver_counter=solver_counter,
            timing_mode=self.timing_mode,
            detail=detail,
        )

    def infeasibility_reason(self, units: Iterable[str]) -> str:
        """Audit-trail classification of an infeasible allocation."""
        return infeasibility_reason(
            self.spec,
            units,
            util_bound=self.util_bound,
            weighted=self.weighted,
            backend=self.backend,
            timing_mode=self.timing_mode,
        )


def make_evaluator(
    spec: SpecificationGraph,
    engine: Optional[str] = None,
    *,
    util_bound: float = PAPER_UTILIZATION_BOUND,
    check_utilization: bool = True,
    weighted: bool = False,
    backend: str = "csp",
    timing_mode: Optional[str] = None,
    warm_store: Optional[str] = None,
):
    """Build the candidate evaluator for one exploration run.

    ``engine=None`` selects :data:`DEFAULT_ENGINE`.  ``"compiled"``
    returns the shared bitmask kernel of :mod:`repro.compiled` (one
    :class:`~repro.compiled.CompiledSpec` per frozen specification,
    one evaluator per parameter set, with cross-candidate memoization);
    ``"reference"`` returns a fresh :class:`ReferenceEvaluator`.  Both
    produce identical fronts, statistics, progress events and logical
    traces — differentially tested over the randspec corpus and the
    case studies.

    ``warm_store`` — directory of a persistent warm-start verdict
    store (:mod:`repro.store`).  Only the compiled engine has a
    verdict memo to persist; the reference engine ignores the store
    (results are identical either way).
    """
    name = DEFAULT_ENGINE if engine is None else engine
    if name == "reference":
        return ReferenceEvaluator(
            spec,
            util_bound=util_bound,
            check_utilization=check_utilization,
            weighted=weighted,
            backend=backend,
            timing_mode=timing_mode,
        )
    if name == "compiled":
        from ..compiled import compiled_evaluator

        return compiled_evaluator(
            spec,
            util_bound=util_bound,
            check_utilization=check_utilization,
            weighted=weighted,
            backend=backend,
            timing_mode=timing_mode,
            warm_store=warm_store,
        )
    raise ValueError(
        f"unknown engine {name!r}; expected one of {ENGINES}"
    )


def cache_counter_snapshot(evaluator) -> Optional[dict]:
    """The evaluator's cumulative memo/warm counters (``None`` for
    engines without a cache; see ``charge_cache_counters``)."""
    counters = getattr(evaluator, "cache_counters", None)
    return counters() if counters is not None else None


def charge_cache_counters(stats, evaluator, base: Optional[dict]) -> None:
    """Charge the run's memo/warm counter deltas to ``stats``.

    The compiled evaluator is interned and its counters span the
    process lifetime; a run snapshots them at start (``base``) and
    records only its own delta.  Counters live outside the
    deterministic result fingerprint (``stats.cache_dict()``, not
    ``stats.as_dict()``) — in-process interning and warm stores
    legitimately change hit/miss splits without changing results.
    """
    if base is None:
        return
    now = evaluator.cache_counters()
    for name, value in now.items():
        setattr(stats, name, getattr(stats, name) + value - base[name])
