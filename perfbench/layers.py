"""Per-layer attribution for the traced run.

:func:`install` wraps the layers' public entry points from outside the
program (module and class attributes are swapped, ``src/`` is never
edited) and :func:`uninstall` restores them.  No ``tracer=``,
``progress=`` or ``telemetry=`` argument is passed, so ``explore``
keeps its fast path.

Each wrapped call pushes a frame on a stack; a frame's self time is
its duration minus that of the frames nested in it, so the self times
add up to the root frames' wall time.  Calls made per candidate or per
block are only aggregated; coarse calls (about one per op) are also
kept as spans ``(id, name, start, end, parent, op)`` and written out
when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict
from typing import Any, Dict, List


class _Frame:
    __slots__ = ("id", "name", "start", "child", "parent", "op")


class Tracer:
    """A stack of open frames plus per-name totals.  The traced
    workloads are single-threaded, so one stack suffices."""

    def __init__(self) -> None:
        self._stack: List[_Frame] = []
        self._ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self": 0.0, "total": 0.0, "calls": 0, "amount": 0}
        )

    def enter(self, name: str, op: Any = None) -> _Frame:
        frame = _Frame()
        frame.id = next(self._ids)
        frame.name = name
        frame.child = 0.0
        parent = self._stack[-1] if self._stack else None
        frame.parent = parent.id if parent else None
        frame.op = op if op is not None or parent is None else parent.op
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def exit(self, frame: _Frame, record: bool = False) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child += duration
        row = self.layers[frame.name]
        row["self"] += duration - frame.child
        row["total"] += duration
        row["calls"] += 1
        if record:
            self.spans.append((frame.id, frame.name, frame.start, end,
                               frame.parent, frame.op))

    def add(self, name: str, amount: int) -> None:
        self.layers[name]["amount"] += amount


def _wrap(tracer, name, fn, record=False):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame, record)
    return traced


def _wrap_iter(tracer, name, fn):
    """Charge the time of every ``next()`` on the returned iterator."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            frame = tracer.enter(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            yield item
    return traced


def _wrap_bytes(tracer, name, fn):
    """Count the length of the encoded records ``fn`` returns."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        line = fn(*args, **kwargs)
        tracer.add(name, len(line))
        return line
    return counted


def _targets():
    """``(owner, attribute, span name, kind)`` for every wrapped entry
    point.  Functions imported by name are wrapped at each module that
    calls them."""
    import repro.compiled as compiled
    from repro.compiled import batch
    from repro.compiled.enumerate import MaskAllocationEnumerator
    from repro.compiled.evaluator import CompiledEvaluator
    from repro.core import explorer
    from repro.store import digest, store

    kernel = batch.BlockKernel
    return [
        (compiled, "compiled_spec_for", "compiled.compile", "record"),
        (compiled, "compiled_evaluator", "compiled.compile", "record"),
        (batch, "materialized_order", "kernel.order", "call"),
        (batch, "_iter_materialized_blocks", "kernel.order", "iter"),
        (batch, "_iter_band_blocks", "kernel.order", "iter"),
        (MaskAllocationEnumerator, "next_band", "kernel.order", "call"),
        (MaskAllocationEnumerator, "iter_masks", "kernel.order", "iter"),
        (kernel, "usable", "kernel.filter", "call"),
        (kernel, "possible", "kernel.filter", "call"),
        (kernel, "comm_pruned", "kernel.filter", "call"),
        (kernel, "estimates", "kernel.filter", "call"),
        (CompiledEvaluator, "possible", "kernel.filter", "call"),
        (CompiledEvaluator, "comm_pruned", "kernel.filter", "call"),
        (CompiledEvaluator, "estimate", "kernel.filter", "call"),
        (CompiledEvaluator, "evaluate", "evaluator.evaluate", "call"),
        (digest, "key_digest", "store.digest", "call"),
        (store.WarmBinding, "get", "store.get", "call"),
        (store.WarmBinding, "put", "store.put", "call"),
        (store, "encode_record", "store.bytes", "bytes"),
        (explorer, "final_front", "pareto.final_front", "record"),
    ]


#: The benchmark's own calls into the program (``workloads.API``).
API_SPANS = {
    "spec_from_dict": "io.spec_load",
    "explore": "core.explore",
}


def install(tracer: Tracer, api: Dict[str, Any]) -> List[tuple]:
    """Wrap every entry point; returns what :func:`uninstall` needs."""
    saved = []
    for owner, attr, name, kind in _targets():
        raw = vars(owner)[attr]
        if kind == "iter":
            wrapped = _wrap_iter(tracer, name, raw)
        elif kind == "bytes":
            wrapped = _wrap_bytes(tracer, name, raw)
        else:
            wrapped = _wrap(tracer, name, raw, record=kind == "record")
        saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
    for key, name in API_SPANS.items():
        saved.append((api, key, api[key]))
        api[key] = _wrap(tracer, name, api[key], record=True)
    return saved


def uninstall(saved: List[tuple]) -> None:
    for owner, attr, raw in reversed(saved):
        if isinstance(owner, dict):
            owner[attr] = raw
        else:
            setattr(owner, attr, raw)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: List[Any]) -> Dict[str, float]:
    """Per-op layer figures of the traced ops.

    Times are self seconds per op; counts are per op, from the results'
    statistics and cache counters, except the bytes the store's segment
    encoder returned.
    """
    layers = tracer.layers
    n = max(1, len(ops))

    def self_s(name: str) -> float:
        return layers[name]["self"] / n if name in layers else 0.0

    def per_op(name: str, field: str) -> float:
        return layers[name][field] / n if name in layers else 0.0

    stats = [op.result["stats"] for op in ops if op.result]
    caches = [op.cache for op in ops]

    def total(rows, key):
        return sum(row.get(key, 0) for row in rows)

    candidates = total(stats, "candidates_enumerated")
    evaluations = total(stats, "estimate_exceeded")
    hits, misses = total(caches, "memo_hits"), total(caches, "memo_misses")
    w_hits, w_misses = total(caches, "warm_hits"), total(caches, "warm_misses")
    return {
        "io.spec_load_s": self_s("io.spec_load"),
        "compiled.compile_s": self_s("compiled.compile"),
        "kernel.order_s": self_s("kernel.order"),
        "kernel.filter_s": self_s("kernel.filter"),
        "kernel.candidates": candidates / n,
        "kernel.survivor_ratio": _ratio(evaluations, candidates),
        "evaluator.evaluate_s": self_s("evaluator.evaluate"),
        "evaluator.evaluations": evaluations / n,
        "evaluator.memo_misses": misses / n,
        "evaluator.memo_hit_ratio": _ratio(hits, hits + misses),
        "evaluator.solver_invocations":
            total(stats, "solver_invocations") / n,
        "store.digest_s": self_s("store.digest"),
        "store.get_s": self_s("store.get"),
        "store.put_s": self_s("store.put"),
        "store.hits": w_hits / n,
        "store.misses": w_misses / n,
        "store.writes": total(caches, "warm_writes") / n,
        "store.hit_ratio": _ratio(w_hits, w_hits + w_misses),
        "store.bytes_written": per_op("store.bytes", "amount"),
        "explorer.self_s": self_s("core.explore"),
        "pareto.final_front_s": self_s("pareto.final_front"),
        "bench.self_s": self_s("bench.op"),
    }


def span_dump(tracer: Tracer) -> Dict[str, Any]:
    return {
        "fields": ["id", "name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
        "layers": dict(tracer.layers),
    }
