"""Per-specification compiled artifacts of the candidate-evaluation kernel.

A :class:`CompiledSpec` is built once per frozen specification.  It
assigns every resource unit a bit position so allocations become Python
ints, compiles the possible-resource-allocation expression to a BDD
whose variable order equals the bit order (one shift/test per node),
precomputes every allocation-independent artifact of the evaluation
pipeline (binding-option tables with utilisation increments,
architecture adjacency as top-node bitmasks, flattened activations per
elementary cluster-activation) and hosts the cross-candidate caches
keyed by *relevance projection*: each predicate of the pipeline depends
only on ``allocation_mask & support_mask(scope)``, so its verdict is
shared by the thousands of candidates that differ in irrelevant units
(the soundness argument lives in ``docs/performance.md`` and is
property-tested in ``tests/test_compiled_properties.py``).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..activation import FlatProblem, flatten
from ..boolexpr.bdd import expr_to_bdd
from ..core.candidates import possible_allocation_expr
from ..core.ecs import force_chain
from ..core.flexibility import flexibility
from ..errors import ExplorationError, TimingError
from ..spec import SpecificationGraph


class OptionRec:
    """One usable mapping option of a leaf process (mapping-edge order)."""

    __slots__ = (
        "resource",
        "owner_bit",
        "owner_mask",
        "owner_top",
        "iface_id",
        "loaded",
        "util_increment",
    )

    def __init__(
        self,
        resource: str,
        owner_bit: int,
        owner_mask: int,
        owner_top: int,
        iface_id: int,
        loaded: bool,
        util_increment: float,
    ) -> None:
        self.resource = resource
        #: Bit index of the owning unit.
        self.owner_bit = owner_bit
        #: ``with_anc`` mask of the owning unit (unit bit | ancestor bits).
        self.owner_mask = owner_mask
        #: Top-node index of the owning unit.
        self.owner_top = owner_top
        #: Architecture-interface id of the owning unit, or ``-1``.
        self.iface_id = iface_id
        #: Whether the bound task contributes to utilisation.
        self.loaded = loaded
        #: Precomputed ``latency / period`` (0.0 when not loaded).
        self.util_increment = util_increment


class EcsInfo:
    """Allocation-independent artifacts of one elementary
    cluster-activation, interned by its cluster bitmask."""

    __slots__ = (
        "mask",
        "selection",
        "flat",
        "leaves",
        "options",
        "neighbor_index",
        "owners",
        "tops",
    )

    def __init__(
        self,
        mask: int,
        selection: Dict[str, str],
        flat: FlatProblem,
        leaves: Tuple[str, ...],
        options: Tuple[Tuple[OptionRec, ...], ...],
        neighbor_index: Tuple[Tuple[int, ...], ...],
        owners: int,
        tops: int,
    ) -> None:
        self.mask = mask
        self.selection = selection
        self.flat = flat
        self.leaves = leaves
        #: Per-leaf usable mapping options, aligned with ``leaves``.
        self.options = options
        #: Undirected neighbour adjacency of the flattened edges, as
        #: positions in ``leaves``, aligned with ``leaves``.
        self.neighbor_index = neighbor_index
        #: Unit bits of every option's owner: ``usable & owners`` fixes
        #: the search's domains.
        self.owners = owners
        #: Top-node bits of every option's owner: the only tops the
        #: search asks connectivity about
        #: (:meth:`CompiledSpec.option_links`).
        self.tops = tops


class _SelectionMemo:
    """Lazily materialised ECS sequence of one ``(allowed clusters,
    cover target)`` pair: the interned :class:`EcsInfo` of each
    selection mask, in enumeration order.

    The underlying generator is pulled exactly once per element, and
    the element's ``EcsInfo`` looked up, under a lock (interned
    evaluators may be reached from several threads, e.g. a service
    slice abandoned by its watchdog, and a generator must never be
    advanced concurrently); every consumer replays the shared prefix
    and extends it on demand, so early-exiting covers pay only for the
    selections they actually inspect."""

    __slots__ = ("items", "done", "_gen", "_lock")

    def __init__(self, gen: Iterator[int]) -> None:
        self.items: List[EcsInfo] = []
        self.done = False
        self._gen = gen
        self._lock = threading.Lock()

    def advance(self, cs: "CompiledSpec") -> None:
        """Append the next ECS (``cs`` is passed in, not kept, so the
        memo does not keep the compiled spec)."""
        with self._lock:
            if self.done:
                return
            try:
                sel_mask = next(self._gen)
            except StopIteration:
                self.done = True
                self._gen = None
                return
            self.items.append(cs.ecs_info(sel_mask))


def _selections(
    scopes: Dict[Optional[str], tuple],
    cbit: Dict[str, int],
    allowed_mask: int,
    pins: Optional[Dict[str, str]],
    interfaces: Tuple[Tuple[str, Tuple[str, ...]], ...],
    position: int,
) -> Iterator[int]:
    """Selection masks of ``interfaces[position:]`` and their nested
    scopes, first interface slowest (see
    :meth:`CompiledSpec.iter_selection_masks`).

    Module-level and handed only the tables it reads, so a stream a
    :class:`_SelectionMemo` keeps does not keep the compiled spec."""
    if position == len(interfaces):
        yield 0
        return
    iface_name, cl_names = interfaces[position]
    wanted = pins.get(iface_name) if pins else None
    if wanted is not None:
        chosen: Tuple[str, ...] = (
            (wanted,)
            if wanted in cl_names and allowed_mask & cbit[wanted]
            else ()
        )
    else:
        chosen = tuple(c for c in cl_names if allowed_mask & cbit[c])
    for cname in chosen:
        bit = cbit[cname]
        for inner in _selections(
            scopes, cbit, allowed_mask, pins, scopes[cname][1], 0
        ):
            for rest in _selections(
                scopes, cbit, allowed_mask, pins, interfaces, position + 1
            ):
                yield bit | inner | rest


class CompiledSpec:
    """Bit-level compilation of one frozen specification.

    Instances are interned per specification by
    :func:`repro.compiled.compiled_spec_for`; all caches they carry are
    parameter-independent (usability, estimates, communication pruning,
    router reachability, flexibility values, interned ECS tables).
    Parameter-dependent state (binding verdicts) lives on
    :class:`repro.compiled.evaluator.CompiledEvaluator`.
    """

    def __init__(self, spec: SpecificationGraph) -> None:
        if not spec.frozen:
            raise ExplorationError(
                "specification must be frozen before compilation"
            )
        self.spec = spec
        catalog = spec.units
        names: Tuple[str, ...] = catalog.names()
        self.unit_names = names
        self.bit_of: Dict[str, int] = {n: i for i, n in enumerate(names)}
        n = len(names)
        self.unit_count = n
        self.full_mask = (1 << n) - 1 if n else 0
        units = [catalog.unit(name) for name in names]
        self.unit_costs = tuple(u.cost for u in units)

        # --- ancestor closure masks --------------------------------------
        bit_of = self.bit_of
        anc_masks: List[int] = []
        for u in units:
            mask = 0
            for anc in u.ancestors:
                mask |= 1 << bit_of[anc]
            anc_masks.append(mask)
        self.anc_masks = tuple(anc_masks)
        self.with_anc_masks = tuple(
            anc_masks[i] | (1 << i) for i in range(n)
        )
        #: (unit bit, ancestor mask) pairs of units that *have* ancestors
        #: — the only units the usability reduction can remove.
        self.nested = tuple(
            (1 << i, anc_masks[i]) for i in range(n) if anc_masks[i]
        )
        comm_mask = 0
        for i, u in enumerate(units):
            if u.comm:
                comm_mask |= 1 << i
        self.comm_units_mask = comm_mask

        # --- top-level architecture nodes as bit indices ------------------
        adjacency = spec.architecture_adjacency()
        top_names: List[str] = []
        top_index: Dict[str, int] = {}
        for u in units:
            if u.top_node not in top_index:
                top_index[u.top_node] = len(top_names)
                top_names.append(u.top_node)
        for node in adjacency:
            if node not in top_index:
                top_index[node] = len(top_names)
                top_names.append(node)
        self.top_names = tuple(top_names)
        self.top_index = top_index
        self.unit_top = tuple(top_index[u.top_node] for u in units)
        self.unit_top_bit = tuple(1 << t for t in self.unit_top)
        adj = [0] * len(top_names)
        for node, neighbors in adjacency.items():
            mask = 0
            for other in neighbors:
                j = top_index.get(other)
                if j is not None:
                    mask |= 1 << j
            adj[top_index[node]] = mask
        self.top_adj_masks = tuple(adj)

        # --- architecture interfaces (rule 1: one cluster per interface) --
        iface_ids: Dict[str, int] = {}
        for u in units:
            if u.interface is not None and u.interface not in iface_ids:
                iface_ids[u.interface] = len(iface_ids)
        self._arch_iface_id = iface_ids

        # --- possible-allocation BDD (variable order == bit order) --------
        manager, root = expr_to_bdd(
            possible_allocation_expr(spec), order=list(names)
        )
        self._bdd_nodes = tuple(manager.node_table())
        self._bdd_root = root

        # --- problem structure --------------------------------------------
        pindex = spec.p_index
        self.cluster_names: Tuple[str, ...] = tuple(pindex.clusters)
        self.cluster_bit: Dict[str, int] = {
            c: 1 << j for j, c in enumerate(self.cluster_names)
        }
        #: What a coverage covers, in order: the problem root, then
        #: each cluster by name.
        self.cover_targets: Tuple[Optional[str], ...] = (None,) + tuple(
            sorted(self.cluster_names)
        )
        self.iface_of_cluster = dict(pindex.interface_of_cluster)
        # Scope tables: key None is the problem root, otherwise a
        # cluster name; each entry is (vertices, ((iface, clusters), ...))
        # in definition order — the order every reference traversal uses.
        def scope_entry(scope):
            return (
                tuple(scope.vertices),
                tuple(
                    (iface.name, tuple(iface.cluster_names()))
                    for iface in scope.interfaces.values()
                ),
            )

        self.scopes: Dict[Optional[str], tuple] = {
            None: scope_entry(spec.problem)
        }
        for cname, cluster in pindex.clusters.items():
            self.scopes[cname] = scope_entry(cluster)
        self.force_pins = {
            c: force_chain(spec, c) for c in self.cluster_names
        }

        # --- per-leaf binding options (mapping-edge order) -----------------
        timing = spec.process_timing()
        self._timing = timing
        options: Dict[str, Tuple[OptionRec, ...]] = {}
        supports: Dict[str, int] = {}
        for leaf in pindex.vertices:
            period, negligible = timing[leaf]
            loaded = period is not None and not negligible
            recs: List[OptionRec] = []
            support = 0
            for edge in spec.mappings.of_process(leaf):
                owner = catalog.unit_of_leaf.get(edge.resource)
                if owner is None:
                    continue
                b = bit_of[owner]
                unit = catalog.unit(owner)
                iface_id = (
                    iface_ids[unit.interface]
                    if unit.interface is not None
                    else -1
                )
                increment = 0.0
                if loaded and period and period > 0:
                    increment = edge.latency / period
                recs.append(
                    OptionRec(
                        edge.resource,
                        b,
                        self.with_anc_masks[b],
                        self.unit_top[b],
                        iface_id,
                        loaded,
                        increment,
                    )
                )
                support |= self.with_anc_masks[b]
            options[leaf] = tuple(recs)
            supports[leaf] = support
        self.leaf_options = options
        self.leaf_support = supports
        self._leaf_option_masks = {
            leaf: tuple(rec.owner_mask for rec in recs)
            for leaf, recs in options.items()
        }

        # --- support masks (relevance projections) -------------------------
        support_memo: Dict[Optional[str], int] = {}
        self.cluster_support = {
            c: self._scope_support(c, supports, support_memo)
            for c in self.cluster_names
        }
        self.root_support = self._scope_support(None, supports, support_memo)

        # --- cross-candidate caches (parameter-independent) ----------------
        self._supported_cache: Dict[int, bool] = {}
        self._cluster_act_cache: Dict[str, Dict[int, bool]] = {
            c: {} for c in self.cluster_names
        }
        self._active_cache: Dict[int, int] = {}
        self._flex_cache: Dict[Tuple[bool, int], float] = {}
        self._comm_cache: Dict[int, bool] = {}
        self._reach_cache: Dict[Tuple[int, int], int] = {}
        self._links_cache: Dict[Tuple[int, int], int] = {}
        self._ecs_table: Dict[int, EcsInfo] = {}
        self._sel_memos: Dict[Tuple[int, Optional[str]], _SelectionMemo] = {}
        #: Last ``(frozenset, mask)`` yielded by a mask enumerator — the
        #: shared exploration loop hands that exact frozenset straight
        #: back to the evaluator, which recovers the mask by identity.
        self._enum_memo: Optional[Tuple[FrozenSet[str], int]] = None
        #: Per-parameter-set evaluators (see ``compiled_evaluator``).
        self._evaluators: Dict[tuple, object] = {}
        #: What everything this spec owns (evaluators, the block kernel,
        #: digest material) holds instead of the spec itself: with no
        #: strong reference pointing back, dropping the specification's
        #: intern entry frees all of it by refcount, without a
        #: collection (``docs/performance.md``).
        self.proxy = weakref.proxy(self)

    def _scope_support(
        self,
        key: Optional[str],
        supports: Dict[str, int],
        memo: Dict[Optional[str], int],
    ) -> int:
        """Union of the leaf supports of a scope and its nested clusters."""
        cached = memo.get(key)
        if cached is not None:
            return cached
        vertices, interfaces = self.scopes[key]
        mask = 0
        for leaf in vertices:
            mask |= supports.get(leaf, 0)
        for _iface, cl_names in interfaces:
            for cname in cl_names:
                mask |= self._scope_support(cname, supports, memo)
        memo[key] = mask
        return mask

    # ------------------------------------------------------------------
    # Mask plumbing
    # ------------------------------------------------------------------
    def mask_of(self, units) -> int:
        """Bitmask of an iterable of unit names (validating via catalog)."""
        bit_of = self.bit_of
        mask = 0
        for name in units:
            bit = bit_of.get(name)
            if bit is None:
                self.spec.units.unit(name)  # raises the canonical error
            mask |= 1 << bit
        return mask

    def names_of(self, mask: int) -> FrozenSet[str]:
        """Unit names of a bitmask."""
        names = self.unit_names
        result = []
        while mask:
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            result.append(names[i])
        return frozenset(result)

    def usable_mask(self, mask: int) -> int:
        """Allocated units whose ancestors are all allocated too."""
        usable = mask
        for bit, anc in self.nested:
            if mask & bit and (mask & anc) != anc:
                usable &= ~bit
        return usable

    # ------------------------------------------------------------------
    # The possible-resource-allocation equation (BDD walk)
    # ------------------------------------------------------------------
    def possible(self, mask: int) -> bool:
        """Theorem-1 test: one shift/branch per BDD level."""
        nodes = self._bdd_nodes
        node = self._bdd_root
        while node > 1:
            level, low, high = nodes[node]
            node = high if (mask >> level) & 1 else low
        return node == 1

    # ------------------------------------------------------------------
    # Reduction predicates (projection-cached)
    # ------------------------------------------------------------------
    def _bindable(self, leaf: str, mask: int) -> bool:
        for owner_mask in self._leaf_option_masks[leaf]:
            if mask & owner_mask == owner_mask:
                return True
        return False

    def cluster_activatable(self, cname: str, mask: int) -> bool:
        """Mirror of :func:`repro.spec.reduce._cluster_activatable`."""
        cache = self._cluster_act_cache[cname]
        key = mask & self.cluster_support[cname]
        verdict = cache.get(key)
        if verdict is None:
            vertices, interfaces = self.scopes[cname]
            verdict = all(
                self._bindable(leaf, key) for leaf in vertices
            ) and all(
                any(self.cluster_activatable(c, key) for c in cl_names)
                for _iface, cl_names in interfaces
            )
            cache[key] = verdict
        return verdict

    def supported(self, mask: int) -> bool:
        """Mirror of :func:`repro.spec.reduce.supports_problem`."""
        key = mask & self.root_support
        verdict = self._supported_cache.get(key)
        if verdict is None:
            vertices, interfaces = self.scopes[None]
            verdict = all(
                self._bindable(leaf, key) for leaf in vertices
            ) and all(
                any(self.cluster_activatable(c, key) for c in cl_names)
                for _iface, cl_names in interfaces
            )
            self._supported_cache[key] = verdict
        return verdict

    def activatable_mask(self, mask: int) -> int:
        """Cluster bitmask of :func:`repro.spec.reduce.activatable_clusters`."""
        key = mask & self.root_support
        cached = self._active_cache.get(key)
        if cached is not None:
            return cached
        result = 0
        pending: List[Optional[str]] = [None]
        while pending:
            for _iface, cl_names in self.scopes[pending.pop()][1]:
                for cname in cl_names:
                    if self.cluster_activatable(cname, key):
                        result |= self.cluster_bit[cname]
                        pending.append(cname)
        self._active_cache[key] = result
        return result

    def flex_value(self, active_mask: int, weighted: bool) -> float:
        """Definition-4 flexibility of an active-cluster bitmask."""
        key = (weighted, active_mask)
        value = self._flex_cache.get(key)
        if value is None:
            active = frozenset(
                c
                for c in self.cluster_names
                if active_mask & self.cluster_bit[c]
            )
            value = flexibility(
                self.spec.problem,
                active=active,
                weighted=weighted,
                strict=False,
            )
            self._flex_cache[key] = value
        return value

    def estimate(self, mask: int, weighted: bool) -> float:
        """Mirror of :func:`repro.core.estimate.estimate_flexibility`."""
        if not self.supported(mask):
            return 0.0
        return self.flex_value(self.activatable_mask(mask), weighted)

    # ------------------------------------------------------------------
    # Useless-communication pruning
    # ------------------------------------------------------------------
    def comm_pruned(self, mask: int) -> bool:
        """Mirror of :func:`repro.core.candidates.has_useless_comm`."""
        usable = self.usable_mask(mask)
        verdict = self._comm_cache.get(usable)
        if verdict is None:
            verdict = self._compute_comm_pruned(usable)
            self._comm_cache[usable] = verdict
        return verdict

    def _compute_comm_pruned(self, usable: int) -> bool:
        comm_tops = 0
        func_tops = 0
        comm_units = self.comm_units_mask
        top_bits = self.unit_top_bit
        mask = usable
        while mask:
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if comm_units >> i & 1:
                comm_tops |= top_bits[i]
            else:
                func_tops |= top_bits[i]
        return self._comm_pruned_from_tops(comm_tops, func_tops)

    def _comm_pruned_from_tops(
        self, comm_tops: int, func_tops: int
    ) -> bool:
        adj = self.top_adj_masks
        remaining = comm_tops
        while remaining:
            seed = remaining & -remaining
            component = seed
            frontier = seed
            while frontier:
                i = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = adj[i] & comm_tops & ~component
                component |= new
                frontier |= new
            remaining &= ~component
            touched = 0
            comp = component
            while comp:
                i = (comp & -comp).bit_length() - 1
                comp &= comp - 1
                touched |= adj[i]
            if (touched & func_tops).bit_count() < 2:
                return True
        return False

    # ------------------------------------------------------------------
    # Router reachability (O(1) connectivity after a cached BFS)
    # ------------------------------------------------------------------
    def tops_connected(self, a: int, b: int, comm_tops: int) -> bool:
        """Mirror of :meth:`repro.binding.routing.Router.connected` for
        present top nodes ``a``/``b`` under usable comm nodes
        ``comm_tops`` (traffic is forwarded through comm nodes only, so
        the verdict is independent of which *functional* nodes are
        present)."""
        return a == b or bool(self._reach(a, comm_tops) >> b & 1)

    def _reach(self, a: int, comm_tops: int) -> int:
        """Top nodes reachable from ``a`` through ``comm_tops``."""
        key = (comm_tops, a)
        reach = self._reach_cache.get(key)
        if reach is None:
            adj = self.top_adj_masks
            reach = 1 << a
            frontier = 1 << a
            while frontier:
                i = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = adj[i] & ~reach
                reach |= new
                frontier |= new & comm_tops
            self._reach_cache[key] = reach
        return reach

    def option_links(self, tops: int, comm_tops: int) -> int:
        """Which of ``tops`` reach which under ``comm_tops``, packed
        above the unit bits: the ``k``-th top of ``tops`` in bit order
        contributes ``reach & tops`` at bit ``unit_count + k * T``
        (``T`` top nodes in all).  It answers every
        :meth:`tops_connected` question between two of ``tops``, and it
        only grows as ``comm_tops`` grows."""
        key = (tops, comm_tops)
        links = self._links_cache.get(key)
        if links is None:
            links = 0
            shift = self.unit_count
            stride = len(self.top_names)
            remaining = tops
            while remaining:
                a = (remaining & -remaining).bit_length() - 1
                remaining &= remaining - 1
                links |= (self._reach(a, comm_tops) & tops) << shift
                shift += stride
            self._links_cache[key] = links
        return links

    def comm_tops_of(self, usable: int) -> int:
        """Top-node bitmask of the usable communication units."""
        tops = 0
        mask = usable & self.comm_units_mask
        top_bits = self.unit_top_bit
        while mask:
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            tops |= top_bits[i]
        return tops

    # ------------------------------------------------------------------
    # Elementary cluster-activations
    # ------------------------------------------------------------------
    def iter_selection_masks(
        self, allowed_mask: int, pins: Optional[Dict[str, str]]
    ) -> Iterator[int]:
        """Cluster bitmasks of complete selections, in the exact
        enumeration order of :func:`repro.core.ecs.iter_selections`.

        A selection dict is fully determined by its selected-cluster
        set (each cluster belongs to exactly one interface), so the
        bitmask is a faithful interning key.
        """
        return _selections(
            self.scopes, self.cluster_bit, allowed_mask, pins,
            self.scopes[None][1], 0,
        )

    def selection_memo(
        self, allowed_mask: int, target: Optional[str]
    ) -> _SelectionMemo:
        """The shared ECS sequence of one cover (:class:`_SelectionMemo`).

        ``target`` is the cluster being covered (``None`` for the
        problem root); its force-chain pins and the enumeration order
        are functions of ``(allowed_mask, target)`` alone, so the
        sequence is shared across every candidate that projects to the
        same activatable-cluster set — and materialised only as far as
        some candidate has actually consumed it."""
        key = (allowed_mask, target)
        memo = self._sel_memos.get(key)
        if memo is None:
            pins = self.force_pins[target] if target is not None else None
            memo = self._sel_memos[key] = _SelectionMemo(
                self.iter_selection_masks(allowed_mask, pins)
            )
        return memo

    def selection_dict_of(self, sel_mask: int) -> Dict[str, str]:
        """Reconstruct the selection dict (reference insertion order)."""
        selection: Dict[str, str] = {}
        self._select_into(selection, sel_mask, None)
        return selection

    def _select_into(
        self, selection: Dict[str, str], sel_mask: int, key: Optional[str]
    ) -> None:
        for iface_name, cl_names in self.scopes[key][1]:
            for cname in cl_names:
                if sel_mask & self.cluster_bit[cname]:
                    selection[iface_name] = cname
                    self._select_into(selection, sel_mask, cname)
                    break

    def ecs_info(self, sel_mask: int) -> EcsInfo:
        """Interned allocation-independent artifacts of one ECS."""
        info = self._ecs_table.get(sel_mask)
        if info is None:
            info = self._build_ecs(sel_mask)
            self._ecs_table[sel_mask] = info
        return info

    def _build_ecs(self, sel_mask: int) -> EcsInfo:
        spec = self.spec
        selection = self.selection_dict_of(sel_mask)
        flat = flatten(spec.problem, selection, spec.p_index)
        leaves = tuple(flat.leaves)
        # task_set validation, replicated per active leaf in order.
        for leaf in leaves:
            period, _negligible = self._timing[leaf]
            if period is not None and period <= 0:
                raise TimingError(
                    f"process {leaf!r}: inherited period must be positive, "
                    f"got {period}"
                )
        options = tuple(self.leaf_options[leaf] for leaf in leaves)
        owners = 0
        tops = 0
        for recs in options:
            for rec in recs:
                owners |= 1 << rec.owner_bit
                tops |= 1 << rec.owner_top
        # Undirected neighbour adjacency of the flattened edges
        # (self-loops skipped), exactly as BindingSolver._neighbors.
        adjacency: Dict[str, set] = {}
        for src, dst in flat.edges:
            if src == dst:
                continue
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set()).add(src)
        position = {leaf: i for i, leaf in enumerate(leaves)}
        neighbor_index = tuple(
            tuple(position[o] for o in adjacency.get(leaf, ()))
            for leaf in leaves
        )
        return EcsInfo(
            sel_mask, selection, flat, leaves, options, neighbor_index,
            owners, tops,
        )
