"""Anytime budgets and optimality-gap accounting for EXPLORE.

A deadline or evaluation budget turns the all-or-nothing branch-and-
bound into an *anytime* algorithm: the run stops gracefully at a
candidate boundary and returns the best-so-far Pareto front together
with an explicit :class:`~repro.core.result.OptimalityGap` — a
remaining-cost lower bound (candidates are enumerated in non-decreasing
cost order, so everything unexplored costs at least the next
candidate's cost) and the estimator's global flexibility upper bound —
plus ``completed=False``, instead of pretending the front is final.

:func:`verify_gap` is the executable statement of the gap semantics:
given a truncated run and the corresponding full run it returns the
list of soundness violations (empty when the gap is honest).  The
differential tests run it over seeded corpora; it is also handy in
notebooks when deciding whether a truncated front is good enough.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..core.result import ExplorationResult, OptimalityGap


class AnytimeBudget:
    """Tracks the wall-clock deadline and evaluation budget of a run."""

    __slots__ = ("deadline_seconds", "max_evaluations", "_deadline_at")

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        max_evaluations: Optional[int] = None,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError(
                f"deadline_seconds must be >= 0, got {deadline_seconds!r}"
            )
        if max_evaluations is not None and max_evaluations < 0:
            raise ValueError(
                f"max_evaluations must be >= 0, got {max_evaluations!r}"
            )
        self.deadline_seconds = deadline_seconds
        self.max_evaluations = max_evaluations
        self._deadline_at: Optional[float] = None
        if deadline_seconds is not None:
            self._deadline_at = time.monotonic() + deadline_seconds

    def exhausted(self, evaluations_used: int) -> Optional[str]:
        """The truncation reason hit at this point, or ``None``.

        Checked before a candidate is consumed — a truncated run's
        state is therefore always exactly the untruncated run's state
        after a prefix of the candidate sequence.
        """
        if (
            self.max_evaluations is not None
            and evaluations_used >= self.max_evaluations
        ):
            return "max_evaluations"
        if (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        ):
            return "deadline"
        return None


def verify_gap(
    truncated: ExplorationResult, full: ExplorationResult
) -> List[str]:
    """Soundness violations of a truncated run against the full run.

    Empty list == the gap is honest:

    * the truncated front below ``gap.next_cost_bound`` is *exactly*
      the full front below that cost (subset-consistent prefix);
    * no full-run point beats ``gap.flexibility_bound``;
    * ``gap.achieved_flexibility`` matches the truncated front.
    """
    violations: List[str] = []
    if truncated.completed:
        if truncated.gap is not None:
            violations.append("completed run carries a gap")
        if _key_set(truncated.points) != _key_set(full.points):
            violations.append("completed run differs from the full front")
        return violations
    gap = truncated.gap
    if not isinstance(gap, OptimalityGap):
        return ["truncated run has no OptimalityGap"]
    achieved = max(
        (p.flexibility for p in truncated.points), default=0.0
    )
    if gap.achieved_flexibility != achieved:
        violations.append(
            f"achieved_flexibility {gap.achieved_flexibility} != "
            f"best truncated flexibility {achieved}"
        )
    if gap.flexibility_bound != full.max_flexibility_bound:
        violations.append(
            f"flexibility_bound {gap.flexibility_bound} != full bound "
            f"{full.max_flexibility_bound}"
        )
    for point in full.points:
        if point.flexibility > gap.flexibility_bound:
            violations.append(
                f"full-run point {point!r} beats the flexibility bound"
            )
    below_full = _key_set(
        p for p in full.points if p.cost < gap.next_cost_bound
    )
    below_truncated = _key_set(
        p for p in truncated.points if p.cost < gap.next_cost_bound
    )
    if below_full != below_truncated:
        violations.append(
            f"fronts below next_cost_bound={gap.next_cost_bound} differ: "
            f"full-only={sorted(below_full - below_truncated)!r}, "
            f"truncated-only={sorted(below_truncated - below_full)!r}"
        )
    for point in truncated.points:
        if point.cost >= gap.next_cost_bound:
            # discovered at a cost the bound already covers: legal (the
            # truncation fell inside that cost band), but it must be
            # dominated-or-present in the full front.
            if not any(
                q.cost <= point.cost and q.flexibility >= point.flexibility
                for q in full.points
            ):
                violations.append(
                    f"truncated point {point!r} unexplained by the full run"
                )
    return violations


def _key_set(points):
    return {
        (tuple(sorted(p.units)), p.cost, p.flexibility) for p in points
    }
