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
* binding verdicts are memoized across candidates under the key
  ``(ecs, usable_mask & ecs.support)`` — the *relevance projection* —
  because the backtracking search reads only the usable units that can
  own one of the ECS's mapping options or route traffic (see
  ``docs/performance.md`` for the soundness argument);
* the search itself replays :class:`repro.binding.BindingSolver`
  decision-for-decision over precompiled option records, so its
  statistics deltas (invocations, assignments, backtracks, solutions,
  utilisation rejections) equal the reference solver's, including the
  generator-abandonment semantics of ``solve()``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from ..binding import Allocation, solve_binding_sat
from ..core.evaluation import (
    BINDING_BACKENDS,
    SCHEDULE_SEARCH_LIMIT,
    TIMING_MODES,
)
from ..core.result import EcsRecord, Implementation
from ..timing import PAPER_UTILIZATION_BOUND, schedule_meets_periods
from .enumerate import MaskAllocationEnumerator
from .spec import CompiledSpec, EcsInfo

#: Zero solver-stats delta (sat backend: the reference never touches
#: ``BindingSolver.stats`` on the sat path).
_ZERO_DELTAS = (0, 0, 0, 0, 0)


class Verdict:
    """Cached outcome of solving one ECS under one usable projection."""

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
        self.cs = cspec
        self.spec = cspec.spec
        self.util_bound = util_bound
        self.weighted = weighted
        self.backend = backend
        self.timing_mode = timing_mode
        self.check_utilization = timing_mode == "utilization"
        #: Cross-candidate binding verdicts keyed by
        #: ``(ecs_mask, usable_mask & ecs.support)``.
        self._verdicts: Dict[Tuple[int, int], Verdict] = {}
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
        self.warm_hits = 0
        self.warm_misses = 0
        self.warm_writes = 0
        self.warm_corruptions = 0
        #: Optional wall-clock sink (``charge(phase, seconds)`` — a
        #: :class:`repro.telemetry.PhaseProfiler`): when set and no
        #: ``detail`` dict is requested, per-solve binding/timing
        #: wall-clock is charged here.  Pure observation — verdicts and
        #: results are unaffected.
        self.phase_sink = None

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

    def block_outcomes(
        self, unit_sets, params, f_entry: float
    ) -> Optional[list]:
        """Vectorized batch evaluation for the parallel replay loop
        (one :class:`~repro.parallel.worker.CandidateOutcome` per unit
        set), or ``None`` when the kernel cannot run — the caller then
        evaluates the batch with the scalar per-candidate pipeline."""
        from .batch import batch_outcomes

        return batch_outcomes(self, unit_sets, params, f_entry)

    def possible(self, units: Iterable[str]) -> bool:
        """The possible-resource-allocation equation (BDD mask walk)."""
        mask, _usable = self._masks_of(units)
        return self.cs.possible(mask)

    def comm_pruned(self, units: Iterable[str]) -> bool:
        """True when the useless-communication rule drops the candidate."""
        mask, usable = self._masks_of(units)
        verdict = self.cs._comm_cache.get(usable)
        if verdict is None:
            verdict = self.cs._compute_comm_pruned(usable)
            self.cs._comm_cache[usable] = verdict
        return verdict

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

        def solve_selection(sel_mask: int) -> Verdict:
            cached = outcome.get(sel_mask)
            if cached is not None:
                return cached
            if solver_counter is not None:
                solver_counter[0] += 1
            info = cs.ecs_info(sel_mask)
            key = (sel_mask, usable & info.support)
            verdict = self._verdicts.get(key)
            if detail is None:
                sink = self.phase_sink
                if sink is None:
                    if verdict is None:
                        verdict, _computed = self._memo_miss(
                            info, usable, key
                        )
                    else:
                        self.memo_hits += 1
                else:
                    t0 = time.perf_counter()
                    if verdict is None:
                        verdict, computed = self._memo_miss(
                            info, usable, key
                        )
                    else:
                        self.memo_hits += 1
                        computed = False
                    elapsed = time.perf_counter() - t0
                    sink.charge(
                        "binding",
                        elapsed
                        - (verdict.timing_seconds if computed else 0.0),
                    )
                    if verdict.timing_checks:
                        sink.charge("timing", verdict.timing_seconds)
            else:
                t0 = time.perf_counter()
                if verdict is None:
                    # ``computed`` is False on a warm-store hit: the
                    # replayed timing_seconds then did not happen inside
                    # ``elapsed`` and must not be subtracted from it.
                    verdict, computed = self._memo_miss(info, usable, key)
                else:
                    self.memo_hits += 1
                    computed = False
                elapsed = time.perf_counter() - t0
                detail["binding_seconds"] += elapsed - (
                    verdict.timing_seconds if computed else 0.0
                )
                detail["timing_seconds"] += verdict.timing_seconds
                detail["timing_checks"] += verdict.timing_checks
                detail["timing_rejections"] += verdict.timing_rejections
                deltas = verdict.deltas
                for i in range(5):
                    acc[i] += deltas[i]
            outcome[sel_mask] = verdict
            return verdict

        covered_mask = 0
        coverage: list = []

        def try_cover(target: Optional[str]) -> bool:
            nonlocal covered_mask
            for sel_mask in cs.selection_masks(allowed_mask, target):
                verdict = solve_selection(sel_mask)
                if verdict.binding is not None:
                    covered_mask |= sel_mask
                    info = cs.ecs_info(sel_mask)
                    coverage.append(
                        EcsRecord(info.selection, verdict.binding)
                    )
                    return True
            return False

        def snapshot_solver_stats() -> None:
            if detail is not None:
                detail["solver"] = {
                    "invocations": acc[0],
                    "assignments": acc[1],
                    "backtracks": acc[2],
                    "solutions": acc[3],
                    "util_rejections": acc[4],
                }

        if not try_cover(None):
            snapshot_solver_stats()
            return None
        uncoverable_mask = 0
        cluster_bit = cs.cluster_bit
        for cluster_name in cs.sorted_cluster_names:
            bit = cluster_bit[cluster_name]
            if not allowed_mask & bit:
                continue
            if (covered_mask | uncoverable_mask) & bit:
                continue
            if not try_cover(cluster_name):
                uncoverable_mask |= bit

        achieved = cs.flex_value(covered_mask, self.weighted)
        snapshot_solver_stats()
        covered = frozenset(
            c for c in cs.cluster_names if covered_mask & cluster_bit[c]
        )
        return Implementation(
            unit_set,
            self.spec.units.total_cost(unit_set),
            achieved,
            covered,
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
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "warm_writes": self.warm_writes,
            "warm_corruptions": self.warm_corruptions,
        }

    def _memo_miss(
        self, info: EcsInfo, usable: int, key: Tuple[int, int]
    ) -> Tuple[Verdict, bool]:
        """Resolve a verdict-memo miss: warm-store load or cold compute.

        Returns ``(verdict, computed)`` — ``computed`` is ``False``
        when the verdict was replayed from the store (its
        ``timing_seconds`` then did not elapse in this process).
        """
        self.memo_misses += 1
        warm = self._warm
        if warm is not None:
            # The digest is taken through the module attribute, once
            # per miss; the store decodes each entry once and keeps it.
            wkey = self._digest.key_digest(self, info, usable)
            verdict = warm.get(wkey, self._verdict_from_payload)
            if verdict is not None:
                self.warm_hits += 1
                self._verdicts[key] = verdict
                return verdict, False
            self.warm_misses += 1
        verdict = self._compute_verdict(info, usable)
        self._verdicts[key] = verdict
        if warm is not None and warm.put(
            wkey,
            self._digest.key_deps(self, info, usable),
            self._verdict_to_payload(verdict),
        ):
            self.warm_writes += 1
        return verdict, True

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

    def _compute_verdict(self, info: EcsInfo, usable: int) -> Verdict:
        counters = [0, 0, 0, 0, 0]
        if self.timing_mode == "schedule":
            checks = 0
            rejections = 0
            timing_seconds = 0.0
            binding: Optional[Dict[str, str]] = None
            for assignment in self._iter_bindings(
                info, usable, SCHEDULE_SEARCH_LIMIT, counters
            ):
                t0 = time.perf_counter()
                ok = schedule_meets_periods(self.spec, info.flat, assignment)
                timing_seconds += time.perf_counter() - t0
                checks += 1
                if ok:
                    binding = assignment
                    break
                rejections += 1
            return Verdict(
                binding, tuple(counters), checks, rejections, timing_seconds
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
        binding = None
        for assignment in self._iter_bindings(info, usable, 1, counters):
            binding = assignment
            break
        return Verdict(binding, tuple(counters), 0, 0, 0.0)

    def _iter_bindings(
        self,
        info: EcsInfo,
        usable: int,
        limit: Optional[int],
        counters: list,
    ) -> Iterator[Dict[str, str]]:
        """Decision-for-decision replay of
        :meth:`repro.binding.BindingSolver.iter_solutions` over the
        precompiled option records; ``counters`` accumulates the five
        :class:`~repro.binding.SolverStats` fields at exactly the
        moments the reference increments them, so abandoning this
        generator mid-iteration leaves the same totals the reference's
        abandoned generator leaves."""
        counters[0] += 1
        domains = []
        for recs in info.options:
            domain = [
                rec for rec in recs if usable >> rec.owner_bit & 1
            ]
            if not domain:
                return
            domains.append(domain)
        leaves = info.leaves
        order = sorted(
            range(len(leaves)),
            key=lambda i: (len(domains[i]), leaves[i]),
        )
        neighbors = info.neighbors
        check_util = self.check_utilization
        util_bound = self.util_bound
        tops_connected = self.cs.tops_connected
        comm_tops = self.cs.comm_tops_of(usable)
        assignment: Dict[str, str] = {}
        chosen: Dict[str, Any] = {}
        utilization: Dict[str, float] = {}
        interface_choice: Dict[int, int] = {}
        interface_count: Dict[int, int] = {}
        yielded = 0

        def backtrack(position: int) -> Iterator[Dict[str, str]]:
            nonlocal yielded
            if limit is not None and yielded >= limit:
                return
            if position == len(order):
                counters[3] += 1
                yielded += 1
                yield dict(assignment)
                return
            index = order[position]
            leaf = leaves[index]
            for rec in domains[index]:
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
                        > util_bound + 1e-12
                    ):
                        counters[4] += 1
                        continue
                feasible = True
                for other in neighbors.get(leaf, ()):
                    other_rec = chosen.get(other)
                    if other_rec is None:
                        continue
                    if rec.owner_bit == other_rec.owner_bit:
                        continue
                    if rec.owner_top != other_rec.owner_top and not (
                        tops_connected(
                            rec.owner_top, other_rec.owner_top, comm_tops
                        )
                    ):
                        feasible = False
                        break
                if not feasible:
                    continue
                assignment[leaf] = rec.resource
                chosen[leaf] = rec
                if increment:
                    utilization[rec.resource] = (
                        utilization.get(rec.resource, 0.0) + increment
                    )
                if iface >= 0:
                    interface_choice[iface] = rec.owner_bit
                    interface_count[iface] = (
                        interface_count.get(iface, 0) + 1
                    )
                yield from backtrack(position + 1)
                del assignment[leaf]
                del chosen[leaf]
                if increment:
                    utilization[rec.resource] -= increment
                if iface >= 0:
                    interface_count[iface] -= 1
                    if not interface_count[iface]:
                        del interface_count[iface]
                        del interface_choice[iface]
                if limit is not None and yielded >= limit:
                    return
            counters[2] += 1

        yield from backtrack(0)


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
