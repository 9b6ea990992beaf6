"""Possible resource allocations, enumerated in increasing cost order.

Section 4 of the paper: "the elements of the set of possible resource
allocations are inspected in order of increasing allocation costs".
This module provides

* :func:`possible_allocation_expr` — the paper's "one boolean equation"
  over resource-unit variables that is true exactly for the possible
  resource allocations (at least one feasible problem activation when
  binding/routing feasibility is ignored);
* :class:`AllocationEnumerator` — a lazy best-first enumeration of unit
  subsets in non-decreasing cost order (no ``2^n`` materialisation);
* :func:`has_useless_comm` — the case-study pruning rule that drops
  allocations whose communication resources cannot possibly help
  ("all combinations of a single functional component and an arbitrary
  number of communication resources" and generalisations).
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..boolexpr import Expr, FALSE, Var, all_of, any_of, evaluate_over_set
from ..hgraph import Cluster, GraphScope
from ..spec import SpecificationGraph


def possible_allocation_expr(spec: SpecificationGraph) -> Expr:
    """Boolean predicate over unit variables for *possible* allocations.

    A leaf process is bindable when some mapping edge targets a resource
    of an allocated unit whose ancestor clusters are allocated too; a
    scope is supported when all its leaves are bindable and each of its
    interfaces has at least one supported cluster.  The formula is the
    symbolic form of :func:`repro.spec.reduce.supports_problem` and
    agrees with it on every assignment (property-tested).

    The expression only depends on the frozen specification, so it is
    built once and cached on the graph: repeated explorations, resumes
    and service slices of the same specification share one instance.
    """
    cached_expr = getattr(spec, "_possible_expr", None)
    if cached_expr is not None:
        return cached_expr
    catalog = spec.units

    def unit_term(unit_name: str) -> Expr:
        unit = catalog.unit(unit_name)
        terms: List[Expr] = [Var(unit.name)]
        terms.extend(Var(a) for a in unit.ancestors)
        return all_of(terms)

    bindable_cache: Dict[str, Expr] = {}

    def bindable(leaf: str) -> Expr:
        cached = bindable_cache.get(leaf)
        if cached is None:
            options = []
            for edge in spec.mappings.of_process(leaf):
                owner = catalog.unit_of_leaf.get(edge.resource)
                if owner is not None:
                    options.append(unit_term(owner))
            cached = any_of(options) if options else FALSE
            bindable_cache[leaf] = cached
        return cached

    cluster_cache: Dict[str, Expr] = {}

    def scope_expr(scope: GraphScope) -> Expr:
        terms: List[Expr] = [bindable(v) for v in scope.vertices]
        for interface in scope.interfaces.values():
            terms.append(
                any_of(cluster_expr(c) for c in interface.clusters)
            )
        return all_of(terms)

    def cluster_expr(cluster: Cluster) -> Expr:
        cached = cluster_cache.get(cluster.name)
        if cached is None:
            cached = scope_expr(cluster)
            cluster_cache[cluster.name] = cached
        return cached

    expr = scope_expr(spec.problem)
    spec._possible_expr = expr
    return expr


class AllocationEnumerator:
    """Lazy enumeration of unit subsets in non-decreasing cost order.

    Units are sorted by ``(cost, name)``; subsets are produced by the
    classic best-first scheme (add-next / replace-last expansions from a
    heap), so each non-empty subset is generated exactly once and costs
    never decrease.  Ties are broken deterministically by the sorted
    index tuple, i.e. lexicographically by (cost, name) of the members.
    """

    def __init__(
        self,
        spec: SpecificationGraph,
        units: Optional[Iterable[str]] = None,
        include_empty: bool = False,
    ) -> None:
        self.spec = spec
        names = (
            [spec.units.unit(n).name for n in units]
            if units is not None
            else list(spec.units.names())
        )
        self._units: List[Tuple[float, str]] = sorted(
            (spec.units.unit(n).cost, n) for n in names
        )
        self._include_empty = include_empty

    @property
    def unit_order(self) -> Tuple[str, ...]:
        """Unit names in enumeration order (by cost, then name)."""
        return tuple(name for _, name in self._units)

    def __iter__(self) -> Iterator[Tuple[float, FrozenSet[str]]]:
        """Yield ``(cost, unit-set)`` in non-decreasing cost order."""
        if self._include_empty:
            yield 0.0, frozenset()
        if not self._units:
            return
        costs = [c for c, _ in self._units]
        names = [n for _, n in self._units]
        n = len(costs)
        # heap of (cost, indices); indices strictly increasing, non-empty
        heap: List[Tuple[float, Tuple[int, ...]]] = [(costs[0], (0,))]
        while heap:
            cost, indices = heapq.heappop(heap)
            yield cost, frozenset(names[i] for i in indices)
            last = indices[-1]
            if last + 1 < n:
                # extend with the next unit
                heapq.heappush(
                    heap,
                    (cost + costs[last + 1], indices + (last + 1,)),
                )
                # replace the last unit with the next one
                heapq.heappush(
                    heap,
                    (
                        cost - costs[last] + costs[last + 1],
                        indices[:-1] + (last + 1,),
                    ),
                )


def iter_possible_allocations(
    spec: SpecificationGraph,
    max_cost: float = float("inf"),
) -> Iterator[Tuple[float, FrozenSet[str]]]:
    """Possible resource allocations in non-decreasing cost order."""
    expr = possible_allocation_expr(spec)
    for cost, units in AllocationEnumerator(spec):
        if cost > max_cost:
            return
        if evaluate_over_set(expr, units):
            yield cost, units


def count_possible_allocations(spec: SpecificationGraph) -> int:
    """Exact number of possible resource allocations in ``2^|units|``.

    Counts the satisfying assignments of the possible-allocation
    equation by BDD compilation (the Hachtel/Somenzi machinery the
    paper's reference [5] stands for) — no lattice enumeration, so this
    works at architecture sizes where counting by iteration cannot.
    This is the paper's "design space was reduced to N design points"
    statistic.
    """
    from ..boolexpr import model_count

    expr = possible_allocation_expr(spec)
    return model_count(expr, over=sorted(spec.units.names()))


def has_useless_comm(spec: SpecificationGraph, units: Iterable[str]) -> bool:
    """Case-study pruning: some allocated comm component helps nothing.

    Builds the connected components of the allocated communication
    resources and counts the allocated functional top-level nodes
    adjacent to each; a component touching fewer than two functional
    nodes cannot route any traffic, so the allocation is a strictly
    more expensive duplicate of the one without it.
    """
    unit_set = set(units)
    catalog = spec.units
    comm_nodes: Set[str] = set()
    functional_nodes: Set[str] = set()
    for name in unit_set:
        unit = catalog.unit(name)
        if not all(a in unit_set for a in unit.ancestors):
            continue
        if unit.comm:
            comm_nodes.add(unit.top_node)
        else:
            functional_nodes.add(unit.top_node)
    if not comm_nodes:
        return False
    adjacency = spec.architecture_adjacency()
    remaining = set(comm_nodes)
    while remaining:
        seed = remaining.pop()
        component = {seed}
        frontier = [seed]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor in remaining:
                    remaining.discard(neighbor)
                    component.add(neighbor)
                    frontier.append(neighbor)
        touched = {
            neighbor
            for node in component
            for neighbor in adjacency.get(node, ())
            if neighbor in functional_nodes
        }
        if len(touched) < 2:
            return True
    return False
