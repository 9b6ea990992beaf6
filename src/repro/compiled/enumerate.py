"""Mask-based cost-ordered allocation enumeration.

The compiled twin of
:class:`repro.core.candidates.AllocationEnumerator`: the same
best-first heap over the same ``(cost, index-tuple)`` keys — so the
enumeration order, including every cost tie, is bit-identical to the
reference — but each heap entry also carries the subset's unit bitmask,
maintained incrementally with two bit operations per expansion instead
of a set union.
"""

from __future__ import annotations

import heapq
from typing import FrozenSet, Iterator, List, Optional, Tuple

from .spec import CompiledSpec


class MaskAllocationEnumerator:
    """Enumerate unit subsets in non-decreasing cost order, as masks.

    ``__iter__`` yields ``(cost, frozenset)`` pairs exactly like the
    reference enumerator (the shared exploration loop consumes unit
    sets); :meth:`iter_masks` exposes the raw ``(cost, mask)`` stream
    for mask-native consumers and the differential tests.

    Band API
    --------
    :meth:`peek_cost` / :meth:`next_band` expose the heap a *cost band*
    at a time — every candidate of the next (equal) cost value in one
    call, in the exact global pop order — so block consumers (the
    vectorized batch kernel) never reach into the heap
    internals.  The band cursor is stateful and single-stream: it is
    independent of the fresh streams :meth:`iter_masks` / ``__iter__``
    create, but interleaving two band consumers on one enumerator would
    split the sequence between them.
    """

    def __init__(
        self,
        cspec: CompiledSpec,
        units: Optional[List[str]] = None,
        include_empty: bool = False,
    ) -> None:
        catalog = cspec.spec.units
        names = (
            [catalog.unit(n).name for n in units]
            if units is not None
            else list(cspec.unit_names)
        )
        ordered = sorted((catalog.unit(n).cost, n) for n in names)
        self._costs: Tuple[float, ...] = tuple(c for c, _ in ordered)
        self._names: Tuple[str, ...] = tuple(n for _, n in ordered)
        self._bits: Tuple[int, ...] = tuple(
            1 << cspec.bit_of[n] for n in self._names
        )
        self._include_empty = include_empty
        self._cspec = cspec
        # Band-cursor state (lazily seeded by peek_cost/next_band).
        self._band_heap: Optional[
            List[Tuple[float, Tuple[int, ...], int]]
        ] = None
        self._band_empty_pending = include_empty

    @property
    def unit_order(self) -> Tuple[str, ...]:
        """Unit names in enumeration order (by cost, then name)."""
        return self._names

    def iter_masks(self) -> Iterator[Tuple[float, int]]:
        """Yield ``(cost, unit-bitmask)`` in the reference order.

        Heap entries are ``(cost, indices, mask)``; comparisons never
        reach the mask because the strictly-increasing index tuples are
        unique, so ties break exactly as the reference's
        ``(cost, indices)`` keys do.
        """
        if self._include_empty:
            yield 0.0, 0
        costs = self._costs
        bits = self._bits
        n = len(costs)
        if not n:
            return
        heap: List[Tuple[float, Tuple[int, ...], int]] = [
            (costs[0], (0,), bits[0])
        ]
        while heap:
            cost, indices, mask = heapq.heappop(heap)
            yield cost, mask
            last = indices[-1]
            if last + 1 < n:
                heapq.heappush(
                    heap,
                    (
                        cost + costs[last + 1],
                        indices + (last + 1,),
                        mask | bits[last + 1],
                    ),
                )
                heapq.heappush(
                    heap,
                    (
                        cost - costs[last] + costs[last + 1],
                        indices[:-1] + (last + 1,),
                        (mask ^ bits[last]) | bits[last + 1],
                    ),
                )

    def _seed_band_heap(self) -> List[Tuple[float, Tuple[int, ...], int]]:
        heap: List[Tuple[float, Tuple[int, ...], int]] = []
        if self._costs:
            heap.append((self._costs[0], (0,), self._bits[0]))
        self._band_heap = heap
        return heap

    def peek_cost(self) -> Optional[float]:
        """Cost of the next band, or ``None`` when exhausted.

        Does not advance the band cursor; the following
        :meth:`next_band` call returns every candidate of exactly this
        cost.
        """
        if self._band_empty_pending:
            return 0.0
        heap = self._band_heap
        if heap is None:
            heap = self._seed_band_heap()
        return heap[0][0] if heap else None

    def next_band(self) -> Tuple[float, List[int]]:
        """Pop the entire next cost band as ``(cost, [mask, ...])``.

        Masks appear in the exact order the global ``iter_masks`` stream
        yields them (heap pop order, re-examined after each child push
        so equal-cost children surface inside their own band).  Raises
        :class:`StopIteration` when the stream is exhausted.
        """
        if self._band_empty_pending:
            self._band_empty_pending = False
            return 0.0, [0]
        heap = self._band_heap
        if heap is None:
            heap = self._seed_band_heap()
        if not heap:
            raise StopIteration
        costs = self._costs
        bits = self._bits
        n = len(costs)
        band_cost = heap[0][0]
        masks: List[int] = []
        while heap and heap[0][0] == band_cost:
            cost, indices, mask = heapq.heappop(heap)
            masks.append(mask)
            last = indices[-1]
            if last + 1 < n:
                heapq.heappush(
                    heap,
                    (
                        cost + costs[last + 1],
                        indices + (last + 1,),
                        mask | bits[last + 1],
                    ),
                )
                heapq.heappush(
                    heap,
                    (
                        cost - costs[last] + costs[last + 1],
                        indices[:-1] + (last + 1,),
                        (mask ^ bits[last]) | bits[last + 1],
                    ),
                )
        return band_cost, masks

    def __iter__(self) -> Iterator[Tuple[float, FrozenSet[str]]]:
        """Yield ``(cost, unit-set)`` pairs (the shared-loop contract).

        Each yielded frozenset is registered in the compiled spec's
        units->mask handoff memo, so the evaluator recovers the bitmask
        by identity instead of re-encoding the set per candidate.
        """
        cspec = self._cspec
        names_of = cspec.names_of
        for cost, mask in self.iter_masks():
            units = names_of(mask)
            cspec._enum_memo = (units, mask)
            yield cost, units
