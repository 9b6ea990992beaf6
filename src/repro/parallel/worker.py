"""The incumbent-independent candidate pipeline of the batched replay.

:func:`evaluate_candidate` receives ``(units, f_entry)`` where
``f_entry`` is the incumbent flexibility bound when the batch is
evaluated, and runs exactly
the per-candidate work of the serial EXPLORE loop that does not depend
on the *current* incumbent: the possible-resource-allocation filter,
the useless-communication pruning, the flexibility estimate, and —
speculatively — the full allocation evaluation (binding + timing).

Speculation invariant
---------------------
The incumbent bound is monotone non-decreasing, so ``f_entry`` is a
lower bound on the incumbent at the moment the serial loop would reach
this candidate.  The serial loop implements a candidate only when its
estimate *exceeds* the incumbent (or equals it under ``keep_ties``);
hence evaluating whenever ``estimate > f_entry`` (or ``>=`` under
``keep_ties``) evaluates a superset of the candidates the serial loop
evaluates, and the deterministic replay in
:mod:`repro.parallel.batched` always finds the evaluation it needs.
"""

from __future__ import annotations

from collections import namedtuple
from typing import FrozenSet, List, Optional

from ..core.evaluation import make_evaluator
from ..core.explorer import bound_params, param_names
from ..core.result import EcsRecord, Implementation
from ..errors import ExplorationError
from ..spec import SpecificationGraph


class EvalParams(
    namedtuple(
        "EvalParams",
        param_names(tag="evaluator") + param_names(tag="pipeline"),
    )
):
    """The incumbent-independent knobs of one EXPLORE run.

    Its fields are the ``explore()`` parameters that build the engine
    evaluator, then the switches of the per-candidate pipeline.
    """

    __slots__ = ()

    def evaluator(self, spec: SpecificationGraph):
        """Build the engine evaluator these parameters describe.

        Called once per run — never per candidate: the compiled
        engine's cross-candidate caches live on the evaluator.
        """
        return make_evaluator(
            spec, **bound_params(self._asdict(), param_names(tag="evaluator"))
        )


class CandidateOutcome:
    """Everything about a candidate that does not depend on the incumbent.

    All fields are functions of the allocation's canonical signature
    alone (plus the run parameters), which is what makes outcomes
    cacheable across cost bands and reusable for every allocation with
    the same signature: the replay attaches the raw unit set and cost
    when it materialises an :class:`~repro.core.result.Implementation`.
    """

    __slots__ = (
        "possible",
        "comm_pruned",
        "estimate",
        "evaluated",
        "solver_calls",
        "feasible",
        "flexibility",
        "clusters",
        "coverage",
    )

    def __init__(self) -> None:
        #: Result of the possible-resource-allocation equation (only
        #: meaningful when the filter is enabled).
        self.possible = True
        #: True when the useless-communication pruning drops the candidate.
        self.comm_pruned = False
        #: The flexibility estimate (``None`` when estimation is off or
        #: an earlier stage already rejected the candidate).
        self.estimate: Optional[float] = None
        #: True when the full evaluation was (speculatively) performed.
        self.evaluated = False
        #: Binding-solver invocations the evaluation performed — charged
        #: to the run statistics only when the replay uses the outcome.
        self.solver_calls = 0
        #: Whether the evaluation produced a feasible implementation.
        self.feasible = False
        self.flexibility = 0.0
        self.clusters: FrozenSet[str] = frozenset()
        self.coverage: List[EcsRecord] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidateOutcome(possible={self.possible}, "
            f"comm_pruned={self.comm_pruned}, estimate={self.estimate}, "
            f"evaluated={self.evaluated}, feasible={self.feasible})"
        )


class OutcomeProbe:
    """The evaluator protocol answered from recorded outcomes.

    The batched replay sets :attr:`outcome` to the current candidate's
    :class:`CandidateOutcome` and hands the probe to
    :class:`repro.core.explorer.ExploreState`, which asks it exactly
    what it would ask a live evaluator.
    """

    __slots__ = ("outcome", "_evaluator", "_catalog")

    def __init__(self, evaluator, catalog) -> None:
        self.outcome: Optional[CandidateOutcome] = None
        self._evaluator = evaluator
        self._catalog = catalog

    def possible(self, units) -> bool:
        return self.outcome.possible

    def comm_pruned(self, units) -> bool:
        return self.outcome.comm_pruned

    def estimate(self, units) -> float:
        return self.outcome.estimate

    def evaluate(self, units, solver_counter=None, detail=None):
        outcome = self.outcome
        if not outcome.evaluated:
            raise ExplorationError(
                "internal: no speculative evaluation recorded for a "
                "candidate passing the incumbent bound (violated "
                "monotonicity invariant)"
            )
        solver_counter[0] += outcome.solver_calls
        if not outcome.feasible:
            return None
        return Implementation(
            units,
            self._catalog.total_cost(units),
            outcome.flexibility,
            outcome.clusters,
            outcome.coverage,
        )

    def infeasibility_reason(self, units) -> str:
        return self._evaluator.infeasibility_reason(units)


#: Test seam of the fault-injection harness: when not ``None``, called
#: as ``_FAULT_HOOK("worker", units=units)`` at the top of
#: :func:`evaluate_candidate`.
#: Installed/cleared by :func:`repro.resilience.faults.install`; never
#: set in production use, so the fault-free path costs one global read.
_FAULT_HOOK = None


def evaluate_candidate(
    evaluator,
    params: EvalParams,
    units: FrozenSet[str],
    f_entry: float,
) -> CandidateOutcome:
    """Run the incumbent-independent pipeline for one candidate.

    ``evaluator`` is the engine evaluator of this run (built once by
    :meth:`EvalParams.evaluator`); both engines expose the same
    protocol and produce identical outcomes.
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK("worker", units=units)
    out = CandidateOutcome()
    if params.use_possible_filter:
        out.possible = evaluator.possible(units)
        if not out.possible:
            return out
    if params.prune_comm:
        out.comm_pruned = evaluator.comm_pruned(units)
        if out.comm_pruned:
            return out
    if params.use_estimation:
        out.estimate = evaluator.estimate(units)
        speculate = out.estimate > f_entry or (
            params.keep_ties and out.estimate == f_entry
        )
        if not speculate:
            return out
    counter = [0]
    implementation = evaluator.evaluate(units, solver_counter=counter)
    out.evaluated = True
    out.solver_calls = counter[0]
    if implementation is not None:
        out.feasible = True
        out.flexibility = implementation.flexibility
        out.clusters = implementation.clusters
        out.coverage = implementation.coverage
    return out
