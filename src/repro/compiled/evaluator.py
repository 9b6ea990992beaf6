"""The compiled candidate evaluator (``engine="compiled"``).

One :class:`CompiledEvaluator` per (specification, parameter set),
shared across every candidate of a run — and across runs, service
slices and resumes of the same specification.  It reproduces the
reference pipeline of :mod:`repro.core.evaluation` *exactly* (fronts,
statistics, progress events and logical trace records are
differentially tested to be identical) while eliminating its
per-candidate rework:

* allocations are bitmasks; the possible-allocation equation is a BDD
  walk; ``has_useless_comm`` and the reduction predicates are mask
  tests with projection-keyed caches (:class:`CompiledSpec`);
* each elementary cluster-activation is flattened and tabled once,
  ever (``CompiledSpec.ecs_info``);
* binding verdicts are memoized across candidates under
  :func:`verdict_key` — the ECS, its usable option owners, and which
  of its option tops the usable communication units connect — because
  that is all the backtracking search, the SAT encoding and the
  schedule checks read of the allocation (see ``docs/performance.md``
  for the congruence argument);
* feasibility is monotone in that key, so a miss whose key contains a
  known-feasible one is answered without the solver, and the binding
  of such a coverage record is solved only when it is read (outside
  schedule mode; same document);
* below the memo, a solver trie answers a miss whose search would
  repeat an earlier one: same ECS, same domains, same answer to every
  connectivity question it asks (CSP search only; the memo, antichain
  and warm store above it, and so every counter, are unchanged);
* each cover walks the ECS sequence its spec memoises per
  ``(activatable clusters, target)`` in one flat loop, and a coverage
  record is built only when read, since most belong to candidates
  that are then dropped as not improving;
* the search itself replays :class:`repro.binding.BindingSolver`
  decision-for-decision over precompiled option records, so its
  statistics deltas (invocations, assignments, backtracks, solutions,
  utilisation rejections) equal the reference solver's, including the
  generator-abandonment semantics of ``solve()``.
"""

from __future__ import annotations

import functools
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..binding import Allocation, solve_binding_sat
from ..core.evaluation import (
    BINDING_BACKENDS,
    SCHEDULE_SEARCH_LIMIT,
    TIMING_MODES,
)
from ..core.result import EcsRecord, Implementation
from ..errors import ExplorationError
from ..timing import PAPER_UTILIZATION_BOUND, schedule_meets_periods
from .enumerate import MaskAllocationEnumerator
from .spec import CompiledSpec, EcsInfo

#: Zero solver-stats delta (sat backend: the reference never touches
#: ``BindingSolver.stats`` on the sat path).
_ZERO_DELTAS = (0, 0, 0, 0, 0)


class Verdict:
    """Cached outcome of solving one ECS under one verdict key."""

    __slots__ = (
        "binding",
        "deltas",
        "timing_checks",
        "timing_rejections",
        "timing_seconds",
    )

    def __init__(
        self,
        binding: Optional[Dict[str, str]],
        deltas: Tuple[int, int, int, int, int],
        timing_checks: int,
        timing_rejections: int,
        timing_seconds: float,
    ) -> None:
        #: First feasible assignment (process -> resource), or ``None``.
        self.binding = binding
        #: (invocations, assignments, backtracks, solutions,
        #: util_rejections) the reference solver would have recorded.
        self.deltas = deltas
        self.timing_checks = timing_checks
        self.timing_rejections = timing_rejections
        #: Wall-clock of the schedule checks at compute time (diagnostic
        #: only; replayed verbatim on cache hits).
        self.timing_seconds = timing_seconds


#: The memo entry of a verdict decided by implication: feasible, because
#: a subset of its key is, with no binding solved yet.
_IMPLIED = Verdict(None, _ZERO_DELTAS, 0, 0, 0.0)


class _CoverRecord(EcsRecord):
    """A coverage record built when first read.

    It holds the ECS's :class:`EcsInfo` and its ``source``: the
    verdict's binding, or for a verdict decided by implication the
    resolver that solves it under the candidate's usable mask.  Most
    records belong to candidates dropped as not improving and are never
    read.  Reading one attribute builds all three and drops both, so a
    read record holds no ``EcsInfo`` or evaluator."""

    __slots__ = ("_info", "_source")

    def __init__(self, info: EcsInfo, source: Any) -> None:
        self._info = info
        self._source = source

    def __getattr__(self, name: str) -> Any:
        # Reached only while the public slots are still unset.
        if name not in EcsRecord.__slots__:
            raise AttributeError(name)
        source = self._source
        binding = dict(source if source.__class__ is dict else source())
        selection = self._info.selection
        self.selection = dict(selection)
        self.clusters = frozenset(selection.values())
        self.binding = binding
        self._info = self._source = None
        return getattr(self, name)


class CompiledEvaluator:
    """Mask-native evaluator implementing the engine interface."""

    engine = "compiled"

    def __init__(
        self,
        cspec: CompiledSpec,
        util_bound: float = PAPER_UTILIZATION_BOUND,
        weighted: bool = False,
        backend: str = "csp",
        timing_mode: str = "utilization",
    ) -> None:
        if timing_mode not in TIMING_MODES:
            raise ValueError(f"unknown timing_mode {timing_mode!r}")
        if backend not in BINDING_BACKENDS:
            raise ValueError(f"unknown binding backend {backend!r}")
        #: Weak: the spec owns its evaluators (``CompiledSpec.proxy``).
        self.cs = cspec.proxy
        self.spec = cspec.spec
        self.util_bound = util_bound
        self.weighted = weighted
        self.backend = backend
        self.timing_mode = timing_mode
        self.check_utilization = timing_mode == "utilization"
        #: Cross-candidate binding verdicts keyed by :func:`verdict_key`:
        #: the ECS mask, its usable option owners and which of its
        #: option tops the usable comm tops connect.
        self._verdicts: Dict[Tuple[int, int], Verdict] = {}
        #: Per ECS mask, the minimal verdict keys known feasible (an
        #: antichain): a key containing one of them is feasible too
        #: (``docs/performance.md``).  ``None`` in schedule mode, whose
        #: bounded search is not monotone.
        self._feasible: Optional[Dict[int, List[int]]] = (
            None if timing_mode == "schedule" else {}
        )
        #: The solver trie below the memo (``_solve``): per root
        #: ``(ecs mask, usable & owners)``, the connectivity questions
        #: the search asked, down to the verdict their answers give.
        #: ``None`` where the SAT solver, which reads the whole
        #: allocation, decides verdicts.
        self._trie: Optional[Dict[Tuple[int, int], Any]] = (
            {} if backend == "csp" or timing_mode == "schedule" else None
        )
        #: One-slot identity-keyed units->mask memo (the shared loop
        #: calls possible/comm/estimate/evaluate on the same frozenset).
        self._last_units: Optional[FrozenSet[str]] = None
        self._last_masks: Tuple[int, int] = (0, 0)
        self._relaxed: Optional["CompiledEvaluator"] = None
        #: Warm-start store attachment (:mod:`repro.store`): the
        #: directory path and the bound namespace handle, or ``None``.
        self._warm_path: Optional[str] = None
        self._warm = None
        #: :mod:`repro.store.digest` (bound on attachment) and its
        #: per-evaluator key material (built on the first key).
        self._digest = None
        self._key_material = None
        # Memo/warm cache counters (process-lifetime, monotone — runs
        # snapshot and charge deltas; see ``cache_counters``).
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_implied = 0
        self.warm_hits = 0
        self.warm_misses = 0
        self.warm_writes = 0
        self.warm_corruptions = 0

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def enumerator(
        self,
        units: Optional[Iterable[str]] = None,
        include_empty: bool = False,
    ) -> MaskAllocationEnumerator:
        """Cost-ordered candidate enumeration (``(cost, units)`` pairs)."""
        return MaskAllocationEnumerator(
            self.cs,
            list(units) if units is not None else None,
            include_empty=include_empty,
        )

    def block_context(
        self,
        extra_names,
        include_empty: bool,
        required: FrozenSet[str],
        required_cost: float,
        *,
        use_possible_filter: bool = True,
        prune_comm: bool = True,
        use_estimation: bool = True,
        sinks: Tuple = (),
    ):
        """A batch-vectorized exploration context
        (:class:`repro.compiled.batch.BlockContext`), or ``None`` when
        the vectorized kernel cannot serve this run (numpy absent or
        disabled, >64 unit bits, negative-cost units) — callers then
        use the scalar enumerator/check path, with identical results."""
        from .batch import make_block_context

        return make_block_context(
            self,
            extra_names,
            include_empty,
            required,
            required_cost,
            use_possible_filter=use_possible_filter,
            prune_comm=prune_comm,
            use_estimation=use_estimation,
            sinks=sinks,
        )

    def possible(self, units: Iterable[str]) -> bool:
        """The possible-resource-allocation equation (BDD mask walk)."""
        mask, _usable = self._masks_of(units)
        return self.cs.possible(mask)

    def comm_pruned(self, units: Iterable[str]) -> bool:
        """True when the useless-communication rule drops the candidate."""
        mask, _usable = self._masks_of(units)
        return self.cs.comm_pruned(mask)

    def estimate(self, units: Iterable[str]) -> float:
        """The flexibility estimate (projection-cached mask walk)."""
        mask, _usable = self._masks_of(units)
        return self.cs.estimate(mask, self.weighted)

    def evaluate(
        self,
        units: Iterable[str],
        solver_counter: Optional[list] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> Optional[Implementation]:
        """Construct the best implementation, mirroring
        :func:`repro.core.evaluation.evaluate_allocation` exactly."""
        unit_set = frozenset(units)
        mask, usable = self._masks_of(unit_set)
        cs = self.cs
        if not cs.supported(mask):
            return None
        allowed_mask = cs.activatable_mask(mask)
        if detail is not None:
            detail.setdefault("binding_seconds", 0.0)
            detail.setdefault("timing_seconds", 0.0)
            detail.setdefault("timing_checks", 0)
            detail.setdefault("timing_rejections", 0)
        acc = [0, 0, 0, 0, 0]
        # Per-candidate outcome table: the reference's selection-keyed
        # ``outcome_cache``; the solver counter charges once per
        # *distinct* selection per candidate, cache hit or not.
        outcome: Dict[int, Verdict] = {}
        timed = detail is not None
        clock = time.perf_counter
        comm_tops = cs.comm_tops_of(usable)
        links_of: Dict[int, int] = {}
        verdicts = self._verdicts
        cluster_bit = cs.cluster_bit
        covered_mask = 0
        uncoverable_mask = 0
        coverage: list = []
        hits = calls = 0
        # Cover the problem root, then each cluster no earlier ECS
        # covered, with the first feasible ECS of its sequence.
        for target in cs.cover_targets:
            if target is not None:
                bit = cluster_bit[target]
                if not allowed_mask & bit or (
                    (covered_mask | uncoverable_mask) & bit
                ):
                    continue
            memo = cs.selection_memo(allowed_mask, target)
            infos = memo.items
            position = 0
            record = None
            while record is None:
                if position == len(infos):
                    if memo.done:
                        break
                    memo.advance(cs)
                    continue
                info = infos[position]
                position += 1
                verdict = outcome.get(info.mask)
                if verdict is None:
                    calls += 1
                    key = verdict_key(cs, info, usable, comm_tops, links_of)
                    t0 = clock() if timed else 0.0
                    verdict = verdicts.get(key)
                    if verdict is None:
                        # ``computed`` is False unless a search ran
                        # here: no timing_seconds elapsed in this call.
                        verdict, computed = self._memo_miss(
                            info, usable, key
                        )
                    else:
                        hits += 1
                        computed = False
                    if timed:
                        detail["binding_seconds"] += clock() - t0 - (
                            verdict.timing_seconds if computed else 0.0
                        )
                        detail["timing_seconds"] += verdict.timing_seconds
                        detail["timing_checks"] += verdict.timing_checks
                        detail["timing_rejections"] += (
                            verdict.timing_rejections
                        )
                        deltas = verdict.deltas
                        for i in range(5):
                            acc[i] += deltas[i]
                    outcome[info.mask] = verdict
                if verdict is _IMPLIED:
                    record = _CoverRecord(
                        info, functools.partial(self._resolve, info, usable)
                    )
                elif verdict.binding is not None:
                    record = _CoverRecord(info, verdict.binding)
            if record is not None:
                covered_mask |= info.mask
                coverage.append(record)
            elif target is None:
                break
            else:
                uncoverable_mask |= bit
        self.memo_hits += hits
        if solver_counter is not None:
            solver_counter[0] += calls
        if detail is not None:
            detail["solver"] = {
                "invocations": acc[0],
                "assignments": acc[1],
                "backtracks": acc[2],
                "solutions": acc[3],
                "util_rejections": acc[4],
            }
        if not coverage:
            return None
        return Implementation(
            unit_set,
            self.spec.units.total_cost(unit_set),
            cs.flex_value(covered_mask, self.weighted),
            frozenset(
                c for c in cs.cluster_names if covered_mask & cluster_bit[c]
            ),
            coverage,
        )

    def infeasibility_reason(self, units: Iterable[str]) -> str:
        """Audit-trail classification of an infeasible allocation."""
        if self.timing_mode == "none":
            return "infeasible_binding"
        relaxed = self._relaxed
        if relaxed is None:
            relaxed = self._relaxed = compiled_evaluator(
                self.spec,
                util_bound=self.util_bound,
                weighted=self.weighted,
                backend=self.backend,
                timing_mode="none",
            )
        relaxed.set_warm_store(self._warm_path)
        feasible = relaxed.evaluate(units) is not None
        return "timing_test" if feasible else "infeasible_binding"

    # ------------------------------------------------------------------
    # Warm-start store (persistent verdict memo; see :mod:`repro.store`)
    # ------------------------------------------------------------------
    def set_warm_store(self, path: Optional[str]) -> None:
        """Attach (``path``) or detach (``None``) the persistent store.

        Attaching binds this evaluator to the store namespace of its
        specification's structure; verdict memo misses then try a
        load-before-solve and write-behind on a compute.  Evaluators
        are interned per parameter set, so the attachment is set anew
        by every run (a run without ``warm_store`` runs detached).
        """
        if path == self._warm_path and (path is None) == (self._warm is None):
            return
        self._warm_path = path
        if path is None:
            self._warm = None
            return
        from ..store import digest as store_digest
        from ..store import open_store

        cspec = self.cs
        digest = getattr(cspec, "_warm_namespace", None)
        if digest is None:
            digest = store_digest.namespace_digest(self.spec)
            cspec._warm_namespace = digest
        self._digest = store_digest
        self._warm = open_store(path).binding(digest)

    def cache_counters(self) -> Dict[str, int]:
        """The memo/warm counters (cumulative over the process; runs
        snapshot before and charge the delta to their stats)."""
        return {
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_implied": self.memo_implied,
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "warm_writes": self.warm_writes,
            "warm_corruptions": self.warm_corruptions,
        }

    def _memo_miss(
        self, info: EcsInfo, usable: int, key: Tuple[int, int]
    ) -> Tuple[Verdict, bool]:
        """Resolve a verdict-memo miss: implication, warm-store load or
        cold compute.

        Returns ``(verdict, computed)`` — ``computed`` is ``False``
        unless the verdict was searched for here (a stored or trie
        verdict's ``timing_seconds`` did not elapse in this call).  An implied
        verdict is counted in ``memo_implied``, not as a miss, and is
        never digested or written to the store.
        """
        if self._feasible is not None and self._implied(key):
            self.memo_implied += 1
            self._verdicts[key] = _IMPLIED
            return _IMPLIED, False
        self.memo_misses += 1
        warm = self._warm
        if warm is not None:
            # The key is built through the module attribute, once per
            # miss; the store decodes each entry once and keeps it.
            wkey = self._digest.key_digest(self, info, usable, key[1])
            verdict = warm.get(wkey, self._verdict_from_payload)
            if verdict is not None:
                self.warm_hits += 1
                self._remember(key, verdict)
                return verdict, False
            self.warm_misses += 1
        verdict, computed = self._solve(info, usable)
        self._remember(key, verdict)
        if warm is not None and warm.put(
            wkey,
            self._digest.key_deps(info),
            self._verdict_to_payload(verdict),
        ):
            self.warm_writes += 1
        return verdict, computed

    def _implied(self, key: Tuple[int, int]) -> bool:
        """Whether a known-feasible key of the ECS lies inside
        ``key``."""
        packed = key[1]
        for feasible in self._feasible.get(key[0], ()):
            if not feasible & ~packed:
                return True
        return False

    def _remember(self, key: Tuple[int, int], verdict: Verdict) -> None:
        """Memoise a solved or loaded verdict; a feasible one joins its
        ECS's antichain (replacing the keys it is inside of)."""
        self._verdicts[key] = verdict
        if verdict.binding is None or self._feasible is None:
            return
        sel_mask, packed = key
        chain = self._feasible.setdefault(sel_mask, [])
        # Not implied, so no member lies inside ``packed``: drop the
        # members it lies inside of.
        chain[:] = [p for p in chain if packed & ~p]
        chain.append(packed)

    def _resolve(self, info: EcsInfo, usable: int) -> Dict[str, str]:
        """The binding of a coverage record answered by implication:
        the memo's, once a solve has replaced the implied entry, or
        one solve under the candidate's usable mask — the verdict a
        cold miss would have computed.  Counted in no cache counter."""
        cs = self.cs
        key = verdict_key(cs, info, usable, cs.comm_tops_of(usable), {})
        verdict = self._verdicts.get(key)
        if verdict is _IMPLIED:
            verdict = self._solve(info, usable)[0]
            if verdict.binding is None:
                raise ExplorationError(
                    f"internal: ECS {sorted(info.selection.values())!r} "
                    f"is infeasible under a verdict key implied "
                    f"feasible (binding monotonicity violated)"
                )
            self._verdicts[key] = verdict
        return verdict.binding

    @staticmethod
    def _verdict_to_payload(verdict: Verdict) -> Dict[str, Any]:
        return {
            "b": verdict.binding,
            "d": list(verdict.deltas),
            "tc": verdict.timing_checks,
            "tr": verdict.timing_rejections,
            "ts": verdict.timing_seconds,
        }

    def _verdict_from_payload(self, payload: Any) -> Optional[Verdict]:
        """Rebuild a verdict from its stored payload; malformed data is
        counted as a corruption and degrades to a cold compute."""
        if payload is None:
            return None
        try:
            binding = payload["b"]
            deltas = payload["d"]
            if binding is not None and not (
                isinstance(binding, dict)
                and all(
                    isinstance(k, str) and isinstance(v, str)
                    for k, v in binding.items()
                )
            ):
                raise TypeError("malformed binding")
            if not (
                isinstance(deltas, list)
                and len(deltas) == 5
                and all(isinstance(d, int) for d in deltas)
            ):
                raise TypeError("malformed deltas")
            return Verdict(
                binding,
                tuple(deltas),
                int(payload["tc"]),
                int(payload["tr"]),
                float(payload["ts"]),
            )
        except (KeyError, TypeError, ValueError):
            self.warm_corruptions += 1
            return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _masks_of(self, units: Iterable[str]) -> Tuple[int, int]:
        if units is self._last_units:
            return self._last_masks
        cs = self.cs
        handoff = cs._enum_memo
        if handoff is not None and handoff[0] is units:
            mask = handoff[1]
        else:
            mask = cs.mask_of(units)
        usable = cs.usable_mask(mask)
        if isinstance(units, frozenset):
            self._last_units = units
            self._last_masks = (mask, usable)
        return mask, usable

    def _solve(self, info: EcsInfo, usable: int) -> Tuple[Verdict, bool]:
        """The verdict of ``info`` under ``usable``, and whether a
        search ran for it (``False``: the solver trie answered).

        The search is a deterministic function of its domains, fixed by
        the root ``(ecs mask, usable & info.owners)``, and of the
        answers to the connectivity questions it asks, so a path of
        equal answers below the root leads to the verdict it gave
        (``docs/performance.md``).  A missing branch runs the search
        and plants the path of its questions."""
        trie = self._trie
        if trie is None:
            return self._compute_verdict(info, usable), True
        cs = self.cs
        reach = cs._reach
        comm_tops = cs.comm_tops_of(usable)
        root = (info.mask, usable & info.owners)
        node = trie.get(root)
        parent = None
        branch = depth = 0
        while node.__class__ is list:
            parent = node
            branch = 2 + (reach(node[0], comm_tops) >> node[1] & 1)
            node = node[branch]
            depth += 1
        if node is not None:
            return node, False
        asked: list = []
        verdict = tail = self._compute_verdict(info, usable, asked)
        # The first ``depth`` questions are the path walked: graft the
        # rest as ``[a, b, child if not connected, child if connected]``.
        for a, b, answer in reversed(asked[depth:]):
            tail = [a, b, None, tail] if answer else [a, b, tail, None]
        if parent is None:
            trie[root] = tail
        else:
            parent[branch] = tail
        return verdict, True

    def _compute_verdict(
        self, info: EcsInfo, usable: int, asked: Optional[list] = None
    ) -> Verdict:
        """Solve ``info`` under ``usable``; the search appends each
        connectivity question it asks, ``(a, b, answer)``, to
        ``asked`` when one is given."""
        counters = [0, 0, 0, 0, 0]
        if self.timing_mode == "schedule":
            # checks, rejections, seconds of the schedule tests
            timing = [0, 0, 0.0]
            spec = self.spec

            def schedulable(assignment: Dict[str, str]) -> bool:
                t0 = time.perf_counter()
                ok = schedule_meets_periods(spec, info.flat, assignment)
                timing[2] += time.perf_counter() - t0
                timing[0] += 1
                if not ok:
                    timing[1] += 1
                return ok

            binding = self._search(
                info, usable, SCHEDULE_SEARCH_LIMIT, schedulable, counters,
                asked,
            )
            return Verdict(
                binding, tuple(counters), timing[0], timing[1], timing[2]
            )
        if self.backend == "sat":
            allocation = Allocation(self.spec, self.cs.names_of(usable))
            result = solve_binding_sat(
                self.spec,
                allocation,
                info.flat,
                self.util_bound,
                self.check_utilization,
            )
            return Verdict(
                result.as_dict() if result is not None else None,
                _ZERO_DELTAS,
                0,
                0,
                0.0,
            )
        binding = self._search(info, usable, 1, _take_first, counters, asked)
        return Verdict(binding, tuple(counters), 0, 0, 0.0)

    def _search(
        self,
        info: EcsInfo,
        usable: int,
        limit: int,
        accept: Callable[[Dict[str, str]], bool],
        counters: list,
        asked: Optional[list],
    ) -> Optional[Dict[str, str]]:
        """The first of at most ``limit`` complete assignments that
        ``accept`` takes, or ``None``: a decision-for-decision replay of
        :meth:`repro.binding.BindingSolver.iter_solutions` over the
        precompiled option records, consumed until ``accept`` says yes.
        ``counters`` accumulates the five
        :class:`~repro.binding.SolverStats` fields at exactly the
        moments the reference increments them, so stopping there leaves
        the same totals the reference's abandoned generator leaves."""
        counters[0] += 1
        domains = []
        for recs in info.options:
            domain = [
                rec for rec in recs if usable >> rec.owner_bit & 1
            ]
            if not domain:
                return None
            domains.append(domain)
        leaves = info.leaves
        size = len(leaves)
        order = sorted(
            range(size), key=lambda i: (len(domains[i]), leaves[i])
        )
        neighbor_index = info.neighbor_index
        cs = self.cs
        reach = cs._reach
        comm_tops = cs.comm_tops_of(usable)
        check_util = self.check_utilization
        ceiling = self.util_bound + 1e-12
        # Per leaf position, the chosen option record or ``None``.
        chosen: List[Any] = [None] * size
        # Per search position, the iterator over its untried options.
        untried: List[Any] = [None] * size
        utilization: Dict[str, float] = {}
        interface_choice: Dict[int, int] = {}
        interface_count: Dict[int, int] = {}
        yielded = 0
        position = 0
        # The reference recurses; this loop keeps its stack in
        # ``untried`` and counts at the same moments.
        while True:
            if position < size:
                index = order[position]
                options = untried[position]
                if options is None:
                    options = untried[position] = iter(domains[index])
                for rec in options:
                    counters[1] += 1
                    iface = rec.iface_id
                    if iface >= 0:
                        current = interface_choice.get(iface)
                        if current is not None and current != rec.owner_bit:
                            continue
                    increment = 0.0
                    if check_util and rec.loaded:
                        increment = rec.util_increment
                        if (
                            utilization.get(rec.resource, 0.0) + increment
                            > ceiling
                        ):
                            counters[4] += 1
                            continue
                    top = rec.owner_top
                    for other in neighbor_index[index]:
                        other_rec = chosen[other]
                        if other_rec is None or (
                            rec.owner_bit == other_rec.owner_bit
                        ):
                            continue
                        b = other_rec.owner_top
                        if top != b:
                            answer = reach(top, comm_tops) >> b & 1
                            if asked is not None:
                                asked.append((top, b, answer))
                            if not answer:
                                break
                    else:
                        break
                else:
                    rec = None
                if rec is not None:
                    chosen[index] = rec
                    if increment:
                        utilization[rec.resource] = (
                            utilization.get(rec.resource, 0.0) + increment
                        )
                    if iface >= 0:
                        interface_choice[iface] = rec.owner_bit
                        interface_count[iface] = (
                            interface_count.get(iface, 0) + 1
                        )
                    position += 1
                    continue
                counters[2] += 1
                untried[position] = None
            else:
                counters[3] += 1
                yielded += 1
                solution = {leaves[i]: chosen[i].resource for i in order}
                if accept(solution):
                    return solution
            # Back up one position and undo its choice.
            position -= 1
            if position < 0:
                return None
            index = order[position]
            rec = chosen[index]
            chosen[index] = None
            if check_util and rec.loaded and rec.util_increment:
                utilization[rec.resource] -= rec.util_increment
            iface = rec.iface_id
            if iface >= 0:
                interface_count[iface] -= 1
                if not interface_count[iface]:
                    del interface_count[iface]
                    del interface_choice[iface]
            if yielded >= limit:
                return None


def verdict_key(
    cs: CompiledSpec,
    info: EcsInfo,
    usable: int,
    comm_tops: int,
    links_of: Dict[int, int],
) -> Tuple[int, int]:
    """The verdict-memo key of ``info`` under ``usable``:
    ``(ecs mask, usable & info.owners | links)``, where ``links`` is
    :meth:`CompiledSpec.option_links` of the ECS's option tops under
    ``comm_tops`` (the usable comm tops).  It holds exactly what the
    binding search reads (``docs/performance.md``).  ``links_of`` maps
    ``info.tops`` to its links for one usable mask."""
    links = links_of.get(info.tops)
    if links is None:
        links = links_of[info.tops] = cs.option_links(info.tops, comm_tops)
    return info.mask, usable & info.owners | links


def _take_first(assignment: Dict[str, str]) -> bool:
    return True


def compiled_evaluator(
    spec,
    *,
    util_bound: float = PAPER_UTILIZATION_BOUND,
    check_utilization: bool = True,
    weighted: bool = False,
    backend: str = "csp",
    timing_mode: Optional[str] = None,
    warm_store: Optional[str] = None,
):
    """The shared compiled evaluator for one parameter set.

    Evaluators (and their verdict caches) are interned on the
    specification's :class:`CompiledSpec`, so every run, resume and
    service slice with the same parameters reuses the accumulated
    cross-candidate state.

    ``warm_store`` — directory of a persistent verdict store
    (:mod:`repro.store`); every construction call (re)sets the
    attachment, so a run without it runs detached even on an interned
    evaluator a previous run attached.
    """
    from . import compiled_spec_for

    if timing_mode is None:
        timing_mode = "utilization" if check_utilization else "none"
    cspec = compiled_spec_for(spec)
    key = (util_bound, weighted, backend, timing_mode)
    evaluator = cspec._evaluators.get(key)
    if evaluator is None:
        evaluator = CompiledEvaluator(
            cspec,
            util_bound=util_bound,
            weighted=weighted,
            backend=backend,
            timing_mode=timing_mode,
        )
        cspec._evaluators[key] = evaluator
    evaluator.set_warm_store(warm_store)
    return evaluator
