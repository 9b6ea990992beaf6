"""Batch-vectorized enumeration and pre-filter kernel (uint64 blocks).

The per-candidate compiled kernel (:mod:`repro.compiled.spec`) spends
most of its remaining wall-clock not in any check but in the Python
loop *around* the checks: one heap pop, one frozenset, and four or five
attribute lookups per candidate, hundreds of thousands of times.  This
module lifts the incumbent-independent front of the EXPLORE loop from
per-candidate to per-block:

* allocation masks are rows of a numpy ``uint64`` array (one word per
  candidate — the repo gates the kernel to ``unit_count <= 64``),
  thousands of candidates per block;
* the cost-ordered enumeration is produced as arrays: either
  *materialized* (an exact replay of the heap's float derivations over
  all ``2^n`` subsets, sorted by ``(cost, tie-key)`` one window at a
  time, only as far as EXPLORE reads) when the extra space is small
  enough, or streamed a cost *band* at a time through
  :meth:`MaskAllocationEnumerator.next_band`;
* usability, the possible-allocation BDD, useless-communication
  pruning and the flexibility-estimate lookup run as vectorized
  bitwise/gather operations over whole blocks, dropping to the scalar
  kernel only for the memoised binding verdicts and for the unique
  estimate projections of a block.

numpy is an *optional* accelerator: the import is guarded, every entry
point returns ``None`` when numpy is unavailable, and callers fall back
to the scalar kernel — results are byte-identical either way
(differentially tested).

Exactness of the materialized order
-----------------------------------
The heap stream of :class:`MaskAllocationEnumerator` yields subsets in
``(cost, index-tuple)`` order, where ``cost`` is *derivation-path*
float arithmetic, not a plain sum: subset ``(j0..jm)`` is created
either by an append from ``(j0..j_{m-1})`` (iff ``jm == j_{m-1}+1``;
``cost = parent + c[jm]``) or by a replace from ``(j0..j_{m-1}, jm-1)``
(``cost = (parent - c[jm-1]) + c[jm]``).  Each subset has exactly one
such parent, so a dynamic program over index-masks grouped by highest
bit replicates every float operation in the same left-to-right order —
the materialized costs are bit-identical to the heap's.  The tie order
(lexicographic on increasing index tuples) is encoded as a packed
2-bit-per-level key (``0`` = tuple ended, ``1`` = index present, ``2``
= absent with higher indices present), proven equivalent to Python
tuple comparison; ``lexsort`` over ``(tie-key, cost)`` then reproduces
the pop order exactly.

Exact-threshold windows
-----------------------
EXPLORE stops once the best implemented flexibility reaches the
maximum, usually within the first few percent of the order, so only
the cost DP (one cheap pass) covers all ``2^n`` masks.  The order
itself is produced a window at a time: ``np.partition`` finds the
``W``-th smallest cost not yet emitted, and the window takes *every*
remaining mask whose cost is at most that threshold.  Rows of one cost
therefore never straddle two windows, every later row costs strictly
more, and sorting the window alone by ``(cost, tie-key)`` yields
exactly the next slice of the full order — tie keys are computed for
the window's rows only.  ``W`` starts at the block size and doubles
per window, so a run that reads the whole space pays only a
logarithmic number of extra partitions.  Rows a window leaves over a
whole block lead the next block, so blocks are the same fixed slices
of the order at any window size.
"""

from __future__ import annotations

import logging
from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple

from .enumerate import MaskAllocationEnumerator
from .spec import CompiledSpec

try:  # numpy is an optional accelerator, never a dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the stub in CI
    _np = None

logger = logging.getLogger(__name__)

#: Candidates per vectorized block (bounds temp-array memory; the
#: per-block Python overhead is amortised over this many candidates).
BLOCK_ROWS = 4096

#: Largest extra-unit count for which the full ``2^n`` enumeration
#: order is materialized up front (arrays of ``2^n`` rows); larger
#: spaces stream cost bands through the enumerator's band API.  Each
#: source wins on its own input sizes, so the choice stays by size.
MATERIALIZE_MAX_BITS_DEFAULT = 20


def active_numpy():
    """numpy, or ``None`` when it does not import (no block kernel)."""
    return _np


def numpy_version() -> Optional[str]:
    """The installed numpy version string, or ``None``."""
    return None if _np is None else str(_np.__version__)


def popcount64(values):
    """Vectorized population count of a ``uint64`` array."""
    np = _np
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values)
    v = values.copy()  # pragma: no cover - numpy < 2.0 fallback
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    v = v - ((v >> np.uint64(1)) & m1)
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    return (v * np.uint64(0x0101010101010101)) >> np.uint64(56)


def _byte_tables(bit_values: Tuple[int, ...]):
    """256-entry OR-gather tables: ``tab[b][v]`` ORs ``bit_values[8b+k]``
    for every bit ``k`` set in byte value ``v``."""
    np = _np
    n = len(bit_values)
    nb = (n + 7) // 8
    tables = np.zeros((max(nb, 1), 256), dtype=np.uint64)
    v = np.arange(256)
    for j, bit in enumerate(bit_values):
        b, k = divmod(j, 8)
        tables[b][(v >> k) & 1 == 1] |= np.uint64(bit)
    return tables


def _gather_bytes(tables, masks):
    """Apply :func:`_byte_tables` to a ``uint64`` mask array."""
    np = _np
    out = np.zeros(len(masks), dtype=np.uint64)
    byte_mask = np.uint64(0xFF)
    for b in range(tables.shape[0]):
        shift = np.uint64(8 * b)
        out |= tables[b][((masks >> shift) & byte_mask).astype(np.intp)]
    return out


class BlockKernel:
    """Vectorized per-block twins of the :class:`CompiledSpec` checks.

    One kernel per compiled spec (interned via :func:`kernel_for`); all
    methods take/return numpy arrays over whole candidate blocks.  Only
    :meth:`estimates` has a residue it cannot decide vectorially: its
    unique projections go through the spec's scalar estimate caches,
    so scalar and block paths warm each other there.
    """

    def __init__(self, cspec: CompiledSpec) -> None:
        np = _np
        #: Weak: the spec owns its kernel (``CompiledSpec.proxy``).
        self.cs = cspec.proxy
        nodes = cspec._bdd_nodes
        self.bdd_levels = np.array(
            [max(n[0], 0) for n in nodes], dtype=np.uint64
        )
        self.bdd_lows = np.array([max(n[1], 0) for n in nodes], dtype=np.intp)
        self.bdd_highs = np.array([max(n[2], 0) for n in nodes], dtype=np.intp)
        self.bdd_root = cspec._bdd_root
        # (bit, ancestor-mask) pairs driving the usability reduction.
        self.nested = tuple(
            (np.uint64(bit), np.uint64(anc)) for bit, anc in cspec.nested
        )
        # Usable-mask -> top-node projections, one gather table for the
        # communication units and one for the functional units.
        comm = cspec.comm_units_mask
        self.comm_top_tables = _byte_tables(
            tuple(
                cspec.unit_top_bit[i] if comm >> i & 1 else 0
                for i in range(cspec.unit_count)
            )
        )
        self.func_top_tables = _byte_tables(
            tuple(
                0 if comm >> i & 1 else cspec.unit_top_bit[i]
                for i in range(cspec.unit_count)
            )
        )
        # Top-node adjacency, masked to the unit tops: components grow
        # through comm tops and count functional tops only, and unit
        # tops hold the lowest top indices (bits < ``unit_count``).
        unit_tops = (1 << cspec.unit_count) - 1
        self.top_adj_tables = _byte_tables(
            tuple(
                adj & unit_tops
                for adj in cspec.top_adj_masks[: cspec.unit_count]
            )
        )
        self.root_support = np.uint64(cspec.root_support)

    # -- usability ------------------------------------------------------
    def usable(self, masks):
        """Vectorized :meth:`CompiledSpec.usable_mask` over a block."""
        usable = masks.copy()
        for bit, anc in self.nested:
            bad = ((masks & bit) != 0) & ((masks & anc) != anc)
            usable[bad] &= ~bit
        return usable

    # -- possible-allocation BDD ---------------------------------------
    def possible(self, masks):
        """Vectorized theorem-1 test: bottom-up BDD evaluation.

        Node children always precede their parents in the table (the
        builder appends after interning the children), so one forward
        pass over the nodes evaluates every candidate simultaneously.
        """
        np = _np
        root = self.bdd_root
        if root <= 1:
            return np.full(len(masks), root == 1)
        count = root + 1
        values = np.empty((count, len(masks)), dtype=bool)
        values[0] = False
        values[1] = True
        one = np.uint64(1)
        for i in range(2, count):
            takes_high = (masks >> self.bdd_levels[i]) & one != 0
            values[i] = np.where(
                takes_high,
                values[self.bdd_highs[i]],
                values[self.bdd_lows[i]],
            )
        return values[root]

    # -- useless-communication pruning ---------------------------------
    def comm_pruned(self, usable):
        """Vectorized :meth:`CompiledSpec.comm_pruned` over usable masks.

        Each row is projected to its (comm tops, functional tops) pair.
        Then, a round per component, every row seeds a component with
        its lowest comm top not yet visited, grows it to a fixpoint
        through its own comm tops, and is pruned when the component's
        neighbourhood holds fewer than two of its functional tops —
        the components and counts of the scalar analysis
        (``docs/performance.md``).
        """
        np = _np
        adj_tables = self.top_adj_tables
        comm = _gather_bytes(self.comm_top_tables, usable)
        func = _gather_bytes(self.func_top_tables, usable)
        pruned = np.zeros(len(usable), dtype=bool)
        rows = np.flatnonzero(comm)
        comm, func = comm[rows], func[rows]
        left = comm
        one = np.uint64(1)
        while len(rows):
            component = left & (~left + one)
            while True:
                touched = _gather_bytes(adj_tables, component)
                grown = component | (touched & comm)
                if np.array_equal(grown, component):
                    break
                component = grown
            useless = popcount64(touched & func) < 2
            pruned[rows[useless]] = True
            left = left & ~component
            keep = ~useless & (left != 0)
            rows, comm, func, left = (
                rows[keep], comm[keep], func[keep], left[keep]
            )
        return pruned

    # -- flexibility estimate ------------------------------------------
    def estimates(self, masks, weighted: bool):
        """Estimates for a block: unique root-support projections,
        scalar-evaluated once each (sharing the spec's caches)."""
        np = _np
        cs = self.cs
        proj = masks & self.root_support
        uniq, inverse = np.unique(proj, return_inverse=True)
        values = np.fromiter(
            (cs.estimate(int(key), weighted) for key in uniq),
            dtype=np.float64,
            count=len(uniq),
        )
        return values[inverse]


def kernel_for(cspec: CompiledSpec) -> BlockKernel:
    """The interned block kernel of a compiled spec (numpy must be on)."""
    kernel = getattr(cspec, "_block_kernel", None)
    if kernel is None:
        kernel = BlockKernel(cspec)
        cspec._block_kernel = kernel
    return kernel


# ---------------------------------------------------------------------------
# Block-ordered enumeration sources
# ---------------------------------------------------------------------------


def _derivation_costs(costs: Tuple[float, ...]):
    """Cost of every index mask, by the heap's own float derivations.

    Bit ``j`` of an index mask is the ``j``-th unit in enumeration
    order (by cost, then name); row ``m`` of the result is the cost the
    heap stream yields for mask ``m``, bit for bit (module docstring).
    """
    np = _np
    n = len(costs)
    c = np.asarray(costs, dtype=np.float64)
    cost = np.empty(1 << n, dtype=np.float64)
    cost[0] = 0.0
    if n:
        cost[1] = c[0]
    # Masks with highest bit ``hi`` (rows [base, 2 * base)) append ``hi``
    # to a mask holding ``hi - 1`` (upper half) or replace ``hi - 1`` by
    # ``hi`` in one (lower half); either parent lies in [half, base).
    for hi in range(1, n):
        base = 1 << hi
        half = base >> 1
        parents = cost[half:base]
        cost[base + half : 2 * base] = parents + c[hi]
        cost[base : base + half] = (parents - c[hi - 1]) + c[hi]
    return cost


def _tie_keys(masks, n: int):
    """Packed tie keys of ``n``-bit index masks: per level ``j`` (most
    significant first), 0 when the index tuple has ended, 1 when ``j``
    is a member, 2 otherwise.

    Closed form: with ``w_j = 4^(n-1-j)`` and ``h`` the highest set
    bit, the key is ``sum(2 * w_j for j <= h) - sum(w_j for set j)``,
    the first a table lookup by bit length, the second one byte-table
    gather."""
    np = _np
    weights = [1 << 2 * (n - 1 - j) for j in range(n)]
    members = _gather_bytes(_byte_tables(tuple(weights)), masks)
    # prefix[k]: the key of a bit-length-k mask with no member bits.
    doubled = np.array([0] + weights, dtype=np.uint64) * np.uint64(2)
    prefix = np.cumsum(doubled, dtype=np.uint64)
    # Exact: the masks stay below 2^53.
    lengths = np.frexp(masks.astype(np.float64))[1]
    return prefix[lengths] - members


def _sorted_rows(cost, masks, n: int):
    """``(cost, masks)`` of non-empty index masks in heap pop order."""
    order = _np.lexsort((_tie_keys(masks, n), cost))
    return cost[order], masks[order]


def materialized_order(costs: Tuple[float, ...], include_empty: bool):
    """``(costs, index_masks)`` of the full ``2^n`` heap stream.

    The empty set leads the stream unconditionally when included — the
    scalar enumerator yields it before seeding the heap.
    """
    np = _np
    n = len(costs)
    cost = _derivation_costs(costs)
    head = 1 if include_empty else 0
    tail_cost, tail_masks = _sorted_rows(
        cost[1:], np.arange(1, 1 << n, dtype=np.uint64), n
    )
    return (
        np.concatenate((cost[:head], tail_cost)),
        np.concatenate((np.zeros(head, dtype=np.uint64), tail_masks)),
    )


def _order_blocks(costs: Tuple[float, ...], include_empty: bool, rows: int):
    """:func:`materialized_order` in consecutive slices of ``rows``
    rows, sorted one window at a time (module docstring)."""
    np = _np
    n = len(costs)
    cost = _derivation_costs(costs)
    head = 1 if include_empty else 0
    out_cost, out_masks = cost[:head], np.zeros(head, dtype=np.uint64)
    body = cost[1:]  # row i is index mask i + 1
    done, width, low = 0, rows, -np.inf
    while done < len(body):
        above = body > low
        end = done + width
        if end < len(body):
            high = np.partition(body, end - 1)[end - 1]
            above &= body <= high
            low = high
        picked = np.flatnonzero(above)
        done += len(picked)
        width *= 2
        window = _sorted_rows(
            body[picked], (picked + 1).astype(np.uint64), n
        )
        out_cost = np.concatenate((out_cost, window[0]))
        out_masks = np.concatenate((out_masks, window[1]))
        whole = len(out_cost) - len(out_cost) % rows
        for start in range(0, whole, rows):
            stop = start + rows
            yield out_cost[start:stop], out_masks[start:stop]
        out_cost, out_masks = out_cost[whole:], out_masks[whole:]
    if len(out_cost):
        yield out_cost, out_masks


def _iter_materialized_blocks(
    enum: MaskAllocationEnumerator,
    include_empty: bool,
    block_rows: int,
    charge: Callable[[str, float], None],
    clock,
) -> Iterator[Tuple["object", "object"]]:
    """Blocks of ``(extra_costs, extras_spec_masks)`` from the
    materialized order (index masks converted through byte tables)."""
    t0 = clock()
    tables = _byte_tables(enum._bits)
    for ecosts, imasks in _order_blocks(
        enum._costs, include_empty, block_rows
    ):
        block = (ecosts, _gather_bytes(tables, imasks))
        charge("enumerate", clock() - t0)
        yield block
        t0 = clock()
    charge("enumerate", clock() - t0)


def _iter_band_blocks(
    enum: MaskAllocationEnumerator,
    block_rows: int,
    charge: Callable[[str, float], None],
    clock,
) -> Iterator[Tuple["object", "object"]]:
    """Blocks assembled from whole cost bands (band-API streaming)."""
    np = _np
    while True:
        t0 = clock()
        costs: List[float] = []
        masks: List[int] = []
        while len(masks) < block_rows:
            try:
                band_cost, band_masks = enum.next_band()
            except StopIteration:
                break
            costs.extend([band_cost] * len(band_masks))
            masks.extend(band_masks)
        if not masks:
            charge("enumerate", clock() - t0)
            return
        block = (
            np.asarray(costs, dtype=np.float64),
            np.asarray(masks, dtype=np.uint64),
        )
        charge("enumerate", clock() - t0)
        yield block


# ---------------------------------------------------------------------------
# Block pre-filters
# ---------------------------------------------------------------------------


def _filter_rows(
    kernel: BlockKernel, masks, use_filter: bool, prune_comm: bool
):
    """``(possible, comm_pruned, alive)`` arrays for a block of masks.

    Row restriction mirrors the scalar loop's short-circuiting:
    communication pruning is only computed for rows that pass the
    possible filter (all rows when the filter is off); ``alive`` rows
    pass both.  Other rows hold unread defaults.
    """
    np = _np
    n = len(masks)
    possible = kernel.possible(masks) if use_filter else np.ones(n, dtype=bool)
    alive = possible
    comm = np.zeros(n, dtype=bool)
    if prune_comm:
        rows = np.nonzero(alive)[0]
        if len(rows):
            comm[rows] = kernel.comm_pruned(kernel.usable(masks[rows]))
        alive = alive & ~comm
    return possible, comm, alive


def _estimate_rows(kernel: BlockKernel, masks, alive, weighted: bool):
    """Flexibility estimates of the ``alive`` rows (others read 0.0)."""
    np = _np
    estimates = np.zeros(len(masks), dtype=np.float64)
    rows = np.nonzero(alive)[0]
    if len(rows):
        estimates[rows] = kernel.estimates(masks[rows], weighted)
    return estimates


# ---------------------------------------------------------------------------
# Block exploration context
# ---------------------------------------------------------------------------


class BlockContext:
    """Blocked candidate stream + pre-filter state for one EXPLORE run.

    :meth:`run_fast` drives the exploration state
    (:class:`repro.core.explorer.ExploreState`) over it, byte-identical
    to the per-candidate loop with or without observers, ties,
    candidate caps, budgets and checkpoints.
    """

    def __init__(
        self,
        evaluator,
        extra_names: List[str],
        include_empty: bool,
        required: FrozenSet[str],
        required_cost: float,
        use_possible_filter: bool,
        prune_comm: bool,
        use_estimation: bool,
        sinks: Tuple[object, ...] = (),
        block_rows: int = BLOCK_ROWS,
    ) -> None:
        import time

        self.evaluator = evaluator
        self.cs = evaluator.cs
        self.kernel = kernel_for(self.cs)
        self.enum = MaskAllocationEnumerator(
            self.cs, extra_names, include_empty=include_empty
        )
        self.include_empty = include_empty
        self.required = required
        self.required_mask = _np.uint64(self.cs.mask_of(required))
        self.required_cost = required_cost
        self.use_possible_filter = use_possible_filter
        self.prune_comm = prune_comm
        self.use_estimation = use_estimation
        self.sinks = tuple(s for s in sinks if s is not None)
        self.block_rows = block_rows
        self.clock = time.perf_counter
        self.materialized = len(extra_names) <= MATERIALIZE_MAX_BITS_DEFAULT

    # -- plumbing -------------------------------------------------------
    def _charge(self, phase: str, seconds: float) -> None:
        for sink in self.sinks:
            sink.charge(phase, seconds)

    def _blocks(self, skip: int = 0):
        """The block stream, without its first ``skip`` rows (the
        candidates a resumed run consumed before)."""
        if self.materialized:
            blocks = _iter_materialized_blocks(
                self.enum,
                self.include_empty,
                self.block_rows,
                self._charge,
                self.clock,
            )
        else:
            blocks = _iter_band_blocks(
                self.enum, self.block_rows, self._charge, self.clock
            )
        return _drop_rows(blocks, skip) if skip else blocks

    def _checks(self, full_masks):
        """``(possible, comm_pruned, alive, estimate)`` arrays for a
        block (see :func:`_filter_rows`), charged to the ``filter`` and
        ``estimate`` phases."""
        t0 = self.clock()
        possible, comm, alive = _filter_rows(
            self.kernel, full_masks, self.use_possible_filter, self.prune_comm
        )
        self._charge("filter", self.clock() - t0)
        if not self.use_estimation:
            return possible, comm, alive, _np.zeros(len(full_masks))
        t0 = self.clock()
        estimates = _estimate_rows(
            self.kernel, full_masks, alive, self.evaluator.weighted
        )
        self._charge("estimate", self.clock() - t0)
        return possible, comm, alive, estimates

    # -- the driver -----------------------------------------------------
    def run_fast(self, state) -> None:
        """Drive an :class:`~repro.core.explorer.ExploreState` over whole
        blocks, starting at the state's cursor.

        Vectorized scans skip the rows the rule drops without touching
        any state: not possible, useless communication, or an estimate
        below ``f_cur`` (or equal to it without ``keep_ties``).  They
        are counted in bulk, split at the checkpoint and progress
        cadences, so snapshots and ``progress`` events land on the same
        candidates as in the per-candidate loop.  Every other row goes
        through :meth:`~repro.core.explorer.ExploreState.admit` and
        ``step`` with a :class:`_RowProbe` answering from the block
        arrays: a survivor whose estimate beats ``f_cur`` (or reaches it
        under ``keep_ties``), the first row over ``max_cost``, the row
        past ``max_candidates``, every row once ``f_cur >= f_max`` and
        every row under an audit tracer.  The anytime budget, which
        only a bind or the clock can spend, is checked before each
        block and after each stepped row.
        """
        np = _np
        stats = state.stats
        emitter = state.emitter
        budget = state.budget
        every = state.every  # 0 without a checkpoint journal
        progress_every = (emitter.every or 0) if emitter.active else 0
        f_max = state.f_max
        keep_ties = state.keep_ties
        audit = state.audit
        admit, step, advance = state.admit, state.step, state.advance
        evaluator = self.evaluator
        cs = self.cs
        names_of = cs.names_of
        required = self.required
        required_mask = int(self.required_mask)
        use_filter = self.use_possible_filter
        use_comm = self.prune_comm
        use_est = self.use_estimation
        for ecosts, emasks in self._blocks(state.cursor):
            tot = self.required_cost + ecosts
            if budget is not None and state.out_of_budget(float(tot[0])):
                return
            # Row ``limit`` ends the run: the first over ``max_cost`` or
            # the one past ``max_candidates``.
            limit = len(tot)
            if state.max_cost is not None:
                over = np.flatnonzero(tot > state.max_cost)
                if len(over):
                    limit = int(over[0])
            if state.max_candidates is not None:
                left = state.max_candidates - stats.candidates_enumerated
                limit = min(limit, max(left, 0))
            possible, comm, alive, estimates = self._checks(
                emasks[:limit] | self.required_mask
            )
            survivors = np.flatnonzero(alive)
            # Rows [0, counted) have been charged to the statistics.
            counted = 0

            def consume_to(row: int) -> None:
                """Count the skipped rows up to ``row`` in bulk and move
                the cursor past them, emitting progress events and
                snapshots at their cadences."""
                nonlocal counted
                while counted < row:
                    end = row
                    if every:
                        end = min(end, counted + every - state.cursor % every)
                    if progress_every:
                        end = min(
                            end,
                            counted
                            + progress_every
                            - stats.candidates_enumerated % progress_every,
                        )
                    stats.candidates_enumerated += end - counted
                    if use_filter:
                        stats.possible_allocations += int(
                            np.count_nonzero(possible[counted:end])
                        )
                    if use_comm:
                        stats.pruned_comm += int(
                            np.count_nonzero(comm[counted:end])
                        )
                    if use_est:
                        stats.estimates_computed += int(
                            np.count_nonzero(alive[counted:end])
                        )
                    state.cursor += end - counted
                    counted = end
                    if progress_every:
                        emitter.candidate(
                            stats.candidates_enumerated,
                            stats.estimate_exceeded,
                            stats.feasible_implementations,
                            state.f_cur,
                        )
                    if every and state.cursor % every == 0:
                        state.flush()

            def stepped(start: int):
                """The rows from ``start`` on that go through the rule
                at the current incumbent, as Python values."""
                if state.f_cur >= f_max and not keep_ties:
                    rows = np.arange(start, min(start + 1, limit))
                elif audit or state.f_cur >= f_max:
                    rows = np.arange(start, limit)
                else:
                    rows = survivors[np.searchsorted(survivors, start):]
                    if use_est:
                        passing = estimates[rows]
                        rows = rows[
                            passing >= state.f_cur
                            if keep_ties
                            else passing > state.f_cur
                        ]
                return zip(
                    rows.tolist(),
                    tot[rows].tolist(),
                    emasks[rows].tolist(),
                    possible[rows].tolist(),
                    comm[rows].tolist(),
                    estimates[rows].tolist(),
                )

            f_cur = state.f_cur
            rows = stepped(0)
            while rows is not None:
                pending, rows = rows, None
                for row, cost, mask, ok, pruned, estimate in pending:
                    if counted < row:
                        consume_to(row)
                    # The mask is handed off by identity, so the
                    # evaluator skips re-encoding the unit set.
                    extras = names_of(mask)
                    units = required | extras if required else extras
                    cs._enum_memo = (units, mask | required_mask)
                    probe = _RowProbe(evaluator, ok, pruned, estimate)
                    if not (admit(cost) and step(cost, units, probe)):
                        return
                    advance()
                    counted = row + 1
                    if (
                        budget is not None
                        and counted < len(tot)
                        and state.out_of_budget(float(tot[counted]))
                    ):
                        return
                    if not audit and state.f_cur != f_cur:
                        # The rows left to step change with the incumbent.
                        f_cur = state.f_cur
                        rows = stepped(counted)
                        break
            consume_to(limit)
            if limit < len(tot):
                # admit or step stops the run here, before reading the
                # units or a probe.
                cost = float(tot[limit])
                if state.admit(cost):
                    state.step(cost, None, None)
                return


def _drop_rows(blocks, skip: int):
    """``blocks`` without their first ``skip`` rows; raises
    :class:`~repro.errors.CheckpointError` when there are fewer."""
    from ..core.explorer import check_cursor

    dropped = 0
    for ecosts, emasks in blocks:
        rest = skip - dropped
        if rest >= len(ecosts):
            dropped += len(ecosts)
            continue
        if rest:
            dropped = skip
            ecosts, emasks = ecosts[rest:], emasks[rest:]
        yield ecosts, emasks
    check_cursor(skip, dropped)


class _RowProbe:
    """One block row seen through the evaluator protocol: the three
    pre-filter answers come from the block arrays, evaluations go to
    the scalar evaluator."""

    __slots__ = ("_evaluator", "_possible", "_comm", "_estimate")

    def __init__(self, evaluator, possible, comm, estimate) -> None:
        self._evaluator = evaluator
        self._possible = possible
        self._comm = comm
        self._estimate = estimate

    def possible(self, units) -> bool:
        return self._possible

    def comm_pruned(self, units) -> bool:
        return self._comm

    def estimate(self, units) -> float:
        return self._estimate

    def evaluate(self, units, solver_counter=None, detail=None):
        return self._evaluator.evaluate(
            units, solver_counter=solver_counter, detail=detail
        )

    def infeasibility_reason(self, units) -> str:
        return self._evaluator.infeasibility_reason(units)


def make_block_context(
    evaluator,
    extra_names: List[str],
    include_empty: bool,
    required: FrozenSet[str],
    required_cost: float,
    *,
    use_possible_filter: bool,
    prune_comm: bool,
    use_estimation: bool,
    sinks: Tuple[object, ...] = (),
    block_rows: int = BLOCK_ROWS,
) -> Optional[BlockContext]:
    """A :class:`BlockContext` for one run, or ``None`` when the
    vectorized kernel cannot serve it (numpy absent, more than 64 unit
    bits, or nothing to enumerate)."""
    if _np is None:
        return None
    if not 0 < evaluator.cs.unit_count <= 64:
        return None
    return BlockContext(
        evaluator,
        list(extra_names),
        include_empty,
        required,
        required_cost,
        use_possible_filter,
        prune_comm,
        use_estimation,
        sinks=sinks,
        block_rows=block_rows,
    )


__all__ = [
    "BLOCK_ROWS",
    "BlockContext",
    "BlockKernel",
    "MATERIALIZE_MAX_BITS_DEFAULT",
    "active_numpy",
    "kernel_for",
    "make_block_context",
    "materialized_order",
    "numpy_version",
    "popcount64",
]
