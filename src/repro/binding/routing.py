"""Communication routing over a partially allocated architecture.

Binding-feasibility rule 3 of the paper requires, for every dependence
edge of the problem graph, that both processes are mapped onto the same
resource or that an activated architecture path handles the
communication (the paper's example: binding onto ASIC and FPGA is
infeasible "since no bus connects the ASIC and the FPGA").

The router works on *top-level architecture nodes*: a functional unit
communicates through the node it lives under (a leaf, or the interface
enclosing an architecture cluster such as an FPGA design).  A route may
pass through any number of allocated communication resources but never
through a functional resource.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set

from ..spec import SpecificationGraph


class Router:
    """Reachability oracle for one allocation of one specification."""

    def __init__(self, spec: SpecificationGraph, allocated_units: Iterable[str]) -> None:
        self.spec = spec
        self.allocated = frozenset(allocated_units)
        catalog = spec.units
        # Top-level nodes present under this allocation.
        present: Set[str] = set()
        comm: Set[str] = set()
        for name in self.allocated:
            unit = catalog.unit(name)
            if not all(anc in self.allocated for anc in unit.ancestors):
                continue  # unusable nested unit
            present.add(unit.top_node)
            if unit.comm:
                comm.add(unit.top_node)
        self._present = frozenset(present)
        self._comm = frozenset(comm)
        # Undirected adjacency over present top-level nodes.
        full = spec.architecture_adjacency()
        self._adjacency: Dict[str, Set[str]] = {
            node: {n for n in full.get(node, ()) if n in present}
            for node in present
        }
        self._cache: Dict[str, FrozenSet[str]] = {}

    @property
    def comm_nodes(self) -> FrozenSet[str]:
        """Available top-level communication nodes."""
        return self._comm

    def reachable_from(self, node: str) -> FrozenSet[str]:
        """All nodes reachable from ``node`` via allocated comm paths.

        Includes ``node`` itself and every node connected through a path
        whose intermediate hops are all communication resources.
        """
        cached = self._cache.get(node)
        if cached is not None:
            return cached
        if node not in self._present:
            result: FrozenSet[str] = frozenset()
            self._cache[node] = result
            return result
        visited = {node}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for neighbor in self._adjacency.get(current, ()):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                # Only communication nodes may forward traffic.
                if neighbor in self._comm:
                    frontier.append(neighbor)
        result = frozenset(visited)
        self._cache[node] = result
        return result

    def connected(self, node_a: str, node_b: str) -> bool:
        """True when the two top-level nodes can communicate."""
        if node_a == node_b:
            return True
        return node_b in self.reachable_from(node_a)

    def units_connected(self, unit_a: str, unit_b: str) -> bool:
        """True when the two allocated units can communicate."""
        if unit_a == unit_b:
            return True
        top_a = self.spec.units.unit(unit_a).top_node
        top_b = self.spec.units.unit(unit_b).top_node
        return self.connected(top_a, top_b)

    def resources_connected(self, leaf_a: str, leaf_b: str) -> bool:
        """True when the two resource leaves can communicate.

        Resource leaves inside the same unit (e.g. the same FPGA design)
        are trivially connected.
        """
        unit_a = self.spec.units.unit_of(leaf_a).name
        unit_b = self.spec.units.unit_of(leaf_b).name
        return self.units_connected(unit_a, unit_b)

    def __repr__(self) -> str:
        return (
            f"Router(|present|={len(self._present)}, "
            f"|comm|={len(self._comm)})"
        )
