"""Incremental design: flexibility upgrades of an existing platform.

The paper's introduction contrasts its guarantees with Pop et al.'s
incremental mapping, which "can not guarantee that future applications
do not interfere with the already running functionality".  This module
provides the flexibility-centric version of incremental design with
exactly that guarantee: starting from a *base allocation* (the shipped
product), only *supersets* of the base are explored.  Because an
allocation can only grow, every elementary cluster-activation that was
feasible on the base remains feasible after the upgrade — routing only
gains nodes, per-resource utilisation of an existing binding is
unchanged, and the one-cluster-per-interface rule is a per-activation
property (:func:`upgrade_preserves_base` checks this invariant
explicitly).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional

from ..binding import Allocation, Binding, is_feasible_binding
from ..errors import ExplorationError
from ..activation import flatten
from ..spec import SpecificationGraph
from ..timing import PAPER_UTILIZATION_BOUND
from .estimate import spec_max_flexibility
from .evaluation import ReferenceEvaluator
from .explorer import ExploreState
from .result import ExplorationResult, ExplorationStats, Implementation


class UpgradeResult(ExplorationResult):
    """An exploration result rooted at a base implementation.

    ``points`` holds the Pareto-optimal *upgrades* (the base itself is
    included when nothing cheaper dominates it); ``base`` is the
    evaluated base implementation.
    """

    __slots__ = ("base",)

    def __init__(
        self,
        base: Implementation,
        points: List[Implementation],
        stats: ExplorationStats,
        max_flexibility_bound: float,
    ) -> None:
        super().__init__(points, stats, max_flexibility_bound)
        self.base = base

    def upgrade_costs(self) -> List[float]:
        """Additional cost of each point relative to the base."""
        return [p.cost - self.base.cost for p in self.points]

    def __repr__(self) -> str:
        return (
            f"UpgradeResult(base=${self.base.cost:g}/"
            f"f{self.base.flexibility:g}, front={self.front()!r})"
        )


def explore_upgrades(
    spec: SpecificationGraph,
    base_units: Iterable[str],
    util_bound: float = PAPER_UTILIZATION_BOUND,
    max_extra_cost: Optional[float] = None,
    check_utilization: bool = True,
    weighted: bool = False,
    prune_comm: bool = True,
) -> UpgradeResult:
    """Pareto-optimal flexibility upgrades of ``base_units``.

    Enumerates supersets of the base allocation in increasing extra
    cost and applies the EXPLORE pruning (flexibility estimation, and
    optionally the useless-communication rule) relative to the base's
    implemented flexibility.

    Raises :class:`~repro.errors.ExplorationError` when the base
    allocation itself supports no feasible implementation.
    """
    base_set = frozenset(spec.units.unit(u).name for u in base_units)
    evaluator = ReferenceEvaluator(
        spec,
        util_bound=util_bound,
        check_utilization=check_utilization,
        weighted=weighted,
    )
    base = evaluator.evaluate(base_set)
    if base is None:
        raise ExplorationError(
            f"base allocation {sorted(base_set)!r} has no feasible "
            f"implementation; nothing to upgrade"
        )
    remaining = [n for n in spec.units.names() if n not in base_set]
    if max_extra_cost is None and any(
        spec.units.unit(n).cost <= 0 for n in remaining
    ):
        raise ExplorationError(
            "specification has zero-cost units outside the base; pass "
            "max_extra_cost to bound the enumeration"
        )
    # EXPLORE over the supersets of the base, in order of extra cost,
    # with the base as the first incumbent.
    state = ExploreState(
        spec_max_flexibility(spec, weighted),
        1 << len(remaining),
        name=spec.name,
        max_cost=max_extra_cost,
        use_possible_filter=False,
        prune_comm=prune_comm,
        f_cur=base.flexibility,
        points=[base],
    )
    for extra_cost, extras in evaluator.enumerator(remaining):
        if not (
            state.admit(extra_cost)
            and state.step(extra_cost, base_set | extras, evaluator)
        ):
            break
    result = state.finish()
    return UpgradeResult(
        base, result.points, result.stats, result.max_flexibility_bound
    )


def upgrade_preserves_base(
    spec: SpecificationGraph,
    base: Implementation,
    upgraded_units: FrozenSet[str],
    util_bound: float = PAPER_UTILIZATION_BOUND,
) -> bool:
    """Check the non-interference guarantee explicitly.

    True when every covering elementary cluster-activation of the base
    implementation — selection *and* binding — is still feasible under
    the upgraded allocation.  This is the property Pop et al.'s
    incremental approach cannot guarantee and superset upgrades provide
    by construction.
    """
    if not base.units <= upgraded_units:
        return False
    allocation = Allocation(spec, upgraded_units)
    for record in base.coverage:
        flat = flatten(spec.problem, record.selection, spec.p_index)
        binding = Binding(spec, record.binding)
        if not is_feasible_binding(
            spec, allocation, flat, binding, util_bound
        ):
            return False
    return True
