"""A small DPLL SAT solver.

Used as the alternative backend of the binding solver and by tests to
cross-check the backtracking CSP solver.  Implements unit propagation,
pure-literal elimination and most-occurring-variable branching (ties
to the smallest name, so a model does not depend on hashing) — more
than enough for the clause sets generated from specification graphs of
the paper's size.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Set

from .cnf import Clause, Literal, tseitin
from .expr import Expr

#: Version of the branching rule.  A model depends on it, so stored
#: verdicts of the SAT binding backend are keyed by it
#: (:mod:`repro.store.digest`): bump it whenever the rule changes.
BRANCHING_RULE = 2


def solve_expr(expr: Expr) -> Optional[Dict[str, bool]]:
    """Satisfy ``expr``; return a model over its variables or ``None``.

    Tseitin auxiliaries are stripped from the returned model.
    """
    cnf = tseitin(expr)
    model = solve_cnf(cnf.clauses)
    if model is None:
        return None
    result = {v: model.get(v, False) for v in cnf.variables}
    return result


def solve_cnf(clauses: Iterable[Clause]) -> Optional[Dict[str, bool]]:
    """DPLL over a clause iterable; returns a model or ``None``."""
    clause_list: List[Clause] = [frozenset(c) for c in clauses]
    assignment: Dict[str, bool] = {}
    if _dpll(clause_list, assignment):
        return assignment
    return None


def _dpll(clauses: List[Clause], assignment: Dict[str, bool]) -> bool:
    clauses = _propagate(clauses, assignment)
    if clauses is None:
        return False
    if not clauses:
        return True
    # pure literal elimination
    polarity_seen: Dict[str, Set[bool]] = {}
    for clause in clauses:
        for name, polarity in clause:
            polarity_seen.setdefault(name, set()).add(polarity)
    pures = {
        name: next(iter(pols))
        for name, pols in polarity_seen.items()
        if len(pols) == 1
    }
    if pures:
        assignment.update(pures)
        remaining = [
            c
            for c in clauses
            if not any(
                name in pures and pures[name] == polarity
                for name, polarity in c
            )
        ]
        return _dpll(remaining, assignment)
    # branch on the most frequent variable, the smallest name among
    # equals (not the first counted: clause iteration order follows
    # string hashing, which differs between processes)
    counts = Counter(name for clause in clauses for name, _ in clause)
    variable = min(counts, key=lambda name: (-counts[name], name))
    for value in (True, False):
        trail = dict(assignment)
        trail[variable] = value
        branch = [c for c in clauses]
        if _dpll(branch, trail):
            assignment.clear()
            assignment.update(trail)
            return True
    return False


def _propagate(
    clauses: List[Clause], assignment: Dict[str, bool]
) -> Optional[List[Clause]]:
    """Apply the current assignment and unit propagation.

    Returns the reduced clause list, or ``None`` on conflict.
    """
    changed = True
    while changed:
        changed = False
        reduced: List[Clause] = []
        for clause in clauses:
            satisfied = False
            pending: List[Literal] = []
            for name, polarity in clause:
                if name in assignment:
                    if assignment[name] == polarity:
                        satisfied = True
                        break
                else:
                    pending.append((name, polarity))
            if satisfied:
                continue
            if not pending:
                return None  # conflict: clause fully falsified
            if len(pending) == 1:
                name, polarity = pending[0]
                assignment[name] = polarity
                changed = True
            else:
                reduced.append(frozenset(pending))
        clauses = reduced
    return clauses


def count_models(expr: Expr, over: Optional[Iterable[str]] = None) -> int:
    """Count satisfying assignments of ``expr`` by exhaustive enumeration.

    Intended for testing and for the paper-scale statistics (the
    explorer never calls this on large variable sets).  ``over`` may
    supply a variable universe larger than ``expr.variables()``.
    """
    variables = sorted(set(over) if over is not None else expr.variables())
    if len(variables) > 24:
        raise ValueError(
            f"refusing to enumerate 2^{len(variables)} assignments"
        )
    total = 0
    for mask in range(1 << len(variables)):
        assignment = {
            v: bool(mask >> i & 1) for i, v in enumerate(variables)
        }
        if expr.evaluate(assignment):
            total += 1
    return total
