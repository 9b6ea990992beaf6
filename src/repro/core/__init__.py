"""The paper's primary contribution: flexibility and its exploration.

Definition 4 flexibility (plus the footnote-2 weighted variant),
flexibility estimation on reduced specifications, the
possible-resource-allocation boolean equation, cost-ordered candidate
enumeration, elementary cluster-activations with coverage, the EXPLORE
branch-and-bound explorer, and the exhaustive / NSGA-II baselines.
"""

from .candidates import (
    AllocationEnumerator,
    count_possible_allocations,
    has_useless_comm,
    iter_possible_allocations,
    possible_allocation_expr,
)
from .cover import minimal_cover
from .ecs import (
    ecs_of_selection,
    force_chain,
    iter_selections,
    minimal_coverage_size,
)
from .estimate import estimate_flexibility, spec_max_flexibility
from .evaluation import (
    BINDING_BACKENDS,
    DEFAULT_ENGINE,
    ENGINES,
    TIMING_MODES,
    ReferenceEvaluator,
    evaluate_allocation,
    make_evaluator,
)
from .exhaustive import exhaustive_front, iter_all_implementations
from .explorer import explore, validate_explore_options
from .flexibility import flexibility, max_flexibility
from .incremental import (
    UpgradeResult,
    explore_upgrades,
    upgrade_preserves_base,
)
from .nsga2 import Nsga2Result, nsga2_explore
from .pareto import (
    ParetoArchive,
    dominates,
    final_front,
    is_non_dominated,
    pareto_front,
)
from .robustness import (
    FailureImpact,
    critical_units,
    degraded_implementation,
    failure_impact,
    single_failure_report,
)
from .result import (
    EcsRecord,
    ExplorationResult,
    ExplorationStats,
    Implementation,
    OptimalityGap,
)

__all__ = [
    "AllocationEnumerator",
    "BINDING_BACKENDS",
    "DEFAULT_ENGINE",
    "ENGINES",
    "EcsRecord",
    "ExplorationResult",
    "ExplorationStats",
    "FailureImpact",
    "Implementation",
    "Nsga2Result",
    "OptimalityGap",
    "ParetoArchive",
    "ReferenceEvaluator",
    "TIMING_MODES",
    "UpgradeResult",
    "count_possible_allocations",
    "critical_units",
    "degraded_implementation",
    "dominates",
    "ecs_of_selection",
    "estimate_flexibility",
    "evaluate_allocation",
    "failure_impact",
    "exhaustive_front",
    "explore",
    "explore_upgrades",
    "final_front",
    "flexibility",
    "force_chain",
    "has_useless_comm",
    "is_non_dominated",
    "iter_all_implementations",
    "iter_possible_allocations",
    "iter_selections",
    "make_evaluator",
    "max_flexibility",
    "minimal_cover",
    "minimal_coverage_size",
    "nsga2_explore",
    "pareto_front",
    "possible_allocation_expr",
    "single_failure_report",
    "spec_max_flexibility",
    "upgrade_preserves_base",
    "validate_explore_options",
]
