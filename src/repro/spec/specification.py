"""The specification graph ``G_S = (G_P, G_A, E_M)``.

Combines a hierarchical problem graph, a hierarchical architecture
graph and the user-defined mapping edges into the single object on
which activation, binding and exploration operate.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from ..errors import ModelError, ValidationError
from ..hgraph import HierarchyIndex, iter_scopes, validate_hierarchy
from .architecture import ArchitectureGraph
from .attributes import is_comm
from .mapping import MappingTable
from .problem import ProblemGraph
from .units import UnitCatalog


class SpecificationGraph:
    """A complete specification ``G_S = (G_P, G_A, E_M)``.

    Build the two hierarchies first, then add mapping edges through
    :meth:`map`, and finally :meth:`freeze` the specification.  Freezing
    validates both hierarchies, checks every mapping edge against the
    leaf sets, and builds the derived indexes (hierarchy indexes and the
    resource-unit catalog) used by all downstream algorithms.
    """

    def __init__(
        self,
        problem: ProblemGraph,
        architecture: ArchitectureGraph,
        name: str = "G_S",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.problem = problem
        self.architecture = architecture
        self.mappings = MappingTable()
        self._p_index: Optional[HierarchyIndex] = None
        self._a_index: Optional[HierarchyIndex] = None
        self._units: Optional[UnitCatalog] = None
        self._binding_options: Optional[Dict[str, Tuple]] = None
        self._arch_adjacency: Optional[Dict[str, frozenset]] = None
        self._process_timing: Optional[Dict[str, Tuple]] = None
        #: Cached possible-resource-allocation expression (Theorem 1);
        #: populated by :func:`repro.core.candidates.possible_allocation_expr`
        #: once the specification is frozen, so repeated explorations,
        #: resumes and service slices stop rebuilding it.
        self._possible_expr: Optional[Any] = None
        #: The interned compiled tables (:mod:`repro.compiled`); local
        #: to this process, so never pickled.
        self._compiled: Optional[Any] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_compiled"] = None
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def map(self, process: str, resource: str, latency: float, **attrs: Any):
        """Add a mapping edge (process leaf -> resource leaf, latency)."""
        if self._units is not None:
            raise ModelError(
                f"specification {self.name!r} is frozen; no further mapping "
                f"edges may be added"
            )
        return self.mappings.add(process, resource, latency, **attrs)

    def map_row(self, process: str, row: Dict[str, float]) -> None:
        """Add all mappings of one Table-1 row: resource -> latency."""
        for resource, latency in row.items():
            self.map(process, resource, latency)

    def freeze(self) -> "SpecificationGraph":
        """Validate the specification and build derived indexes."""
        self._p_index = validate_hierarchy(self.problem)
        self._a_index = validate_hierarchy(
            self.architecture, allow_empty_interfaces=False
        )
        problems = []
        for edge in self.mappings:
            if edge.process not in self._p_index.vertices:
                problems.append(
                    f"mapping edge source {edge.process!r} is not a leaf of "
                    f"the problem graph"
                )
            if edge.resource not in self._a_index.vertices:
                problems.append(
                    f"mapping edge target {edge.resource!r} is not a leaf of "
                    f"the architecture graph"
                )
            elif is_comm(self._a_index.vertices[edge.resource]):
                problems.append(
                    f"mapping edge target {edge.resource!r} is a "
                    f"communication resource and cannot host processes"
                )
        if problems:
            raise ValidationError(
                f"specification {self.name!r} failed validation:\n  - "
                + "\n  - ".join(problems)
            )
        self._units = UnitCatalog(self.architecture, self._a_index)
        return self

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has completed."""
        return self._units is not None

    def _require_frozen(self) -> None:
        if not self.frozen:
            raise ModelError(
                f"specification {self.name!r} must be frozen before use"
            )

    @property
    def p_index(self) -> HierarchyIndex:
        """Hierarchy index of the problem graph."""
        self._require_frozen()
        assert self._p_index is not None
        return self._p_index

    @property
    def a_index(self) -> HierarchyIndex:
        """Hierarchy index of the architecture graph."""
        self._require_frozen()
        assert self._a_index is not None
        return self._a_index

    @property
    def units(self) -> UnitCatalog:
        """Catalog of allocatable resource units."""
        self._require_frozen()
        assert self._units is not None
        return self._units

    def binding_options(self) -> Dict[str, Tuple]:
        """Per-process unit requirements, cached for the hot paths.

        Maps every problem leaf to a tuple of ``(unit, ancestors)``
        pairs: the process is bindable under an allocation ``A`` iff
        some pair has ``unit in A`` and ``ancestors <= A``.  Used by the
        reduction predicates, which are evaluated for every candidate
        allocation during exploration.
        """
        self._require_frozen()
        if self._binding_options is None:
            assert self._p_index is not None and self._units is not None
            options: Dict[str, Tuple] = {}
            for process in self._p_index.vertices:
                pairs = []
                for edge in self.mappings.of_process(process):
                    owner = self._units.unit_of_leaf.get(edge.resource)
                    if owner is not None:
                        unit = self._units.unit(owner)
                        pairs.append((owner, frozenset(unit.ancestors)))
                options[process] = tuple(pairs)
            self._binding_options = options
        return self._binding_options

    def process_timing(self) -> Dict[str, Tuple]:
        """Per-process ``(period, negligible)`` pairs, cached.

        The period is inherited from the nearest enclosing problem
        cluster carrying a ``period`` attribute; ``negligible`` comes
        from the vertex itself.  Evaluated once per specification —
        the timing layer derives its task sets from this table.
        """
        self._require_frozen()
        if self._process_timing is None:
            assert self._p_index is not None
            from .attributes import NEGLIGIBLE, PERIOD, check_period

            table: Dict[str, Tuple] = {}
            for leaf, vertex in self._p_index.vertices.items():
                raw = self._p_index.inherited_attr(leaf, PERIOD)
                period = None if raw is None else check_period(raw)
                table[leaf] = (
                    period,
                    bool(vertex.attrs.get(NEGLIGIBLE, False)),
                )
            self._process_timing = table
        return self._process_timing

    def architecture_adjacency(self) -> Dict[str, frozenset]:
        """Undirected adjacency of top-level architecture nodes, cached.

        Used by the router and the communication-pruning rule, both of
        which are evaluated for every candidate allocation.
        """
        self._require_frozen()
        if self._arch_adjacency is None:
            adjacency: Dict[str, set] = {}
            for edge in self.architecture.edges:
                adjacency.setdefault(edge.src, set()).add(edge.dst)
                adjacency.setdefault(edge.dst, set()).add(edge.src)
            self._arch_adjacency = {
                node: frozenset(neighbors)
                for node, neighbors in adjacency.items()
            }
        return self._arch_adjacency

    # ------------------------------------------------------------------
    # Statistics (used by the search-space benches)
    # ------------------------------------------------------------------
    def vs_size(self) -> int:
        """``|V_S|``: vertices, interfaces and clusters of both sides."""
        total = 0
        for root in (self.problem, self.architecture):
            index = HierarchyIndex(root)
            total += (
                len(index.vertices)
                + len(index.interfaces)
                + len(index.clusters)
            )
        return total

    def es_size(self) -> int:
        """``|E_S|``: edges, port mappings and mapping edges."""
        total = len(self.mappings)
        for root in (self.problem, self.architecture):
            for scope in iter_scopes(root):
                total += len(scope.edges)
                for interface in scope.interfaces.values():
                    for cluster in interface.clusters:
                        total += len(cluster.port_map)
        return total

    def design_space_size(self) -> int:
        """Size ``2^|units|`` of the raw allocation search space."""
        self._require_frozen()
        return 1 << len(self.units)

    def __repr__(self) -> str:
        return (
            f"SpecificationGraph({self.name!r}, |E_M|={len(self.mappings)}, "
            f"frozen={self.frozen})"
        )


def make_specification(
    problem: ProblemGraph,
    architecture: ArchitectureGraph,
    mappings: Iterable[Tuple[str, str, float]],
    name: str = "G_S",
) -> SpecificationGraph:
    """Build and freeze a specification from a mapping-triple iterable."""
    spec = SpecificationGraph(problem, architecture, name)
    for process, resource, latency in mappings:
        spec.map(process, resource, latency)
    return spec.freeze()
