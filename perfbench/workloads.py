"""The EXPLORE workloads: seeded inputs, set-up and the op loop.

Every workload turns ``--seed`` into spec *documents* (plus explore
options) with the public API, and each op hands the program only those.
Per-op work must not depend much on the seed, or runs on different
seeds are not comparable; so every synthetic input is a fixed
generator structure whose mapping latencies the seed jitters (the
structures below were picked because their search effort is stable
under that jitter), what-if variants and edit targets are fixed, and
the case studies are the paper's.

Every workload cycles through 7 inputs, so each input gets the same
share of a run's ops; the latency metric takes each input's lower
quartile (``run.quiet_latencies``).
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import repro.compiled
from repro.analysis import with_latency, with_unit_costs
from repro.casestudies import (
    build_automotive_spec,
    build_settop_spec,
    build_tv_decoder_spec,
    synthetic_spec,
)
from repro.core import explore
from repro.io import spec_from_dict, spec_to_dict

import oracle

#: Entry points the ops call.  The traced run swaps these for wrapped
#: versions (``layers.install``); the untraced run calls them directly.
API: Dict[str, Callable] = {
    "spec_from_dict": spec_from_dict,
    "explore": explore,
}

#: Synthetic generator shapes, named by unit count (processors +
#: accelerators + buses).
SHAPES = {
    "15u-a": dict(n_apps=2, interfaces_per_app=2, alternatives=3,
                  n_procs=2, n_accels=4),
    "15u-b": dict(n_apps=2, interfaces_per_app=2, alternatives=4,
                  n_procs=2, n_accels=4),
    "18u": dict(n_apps=2, interfaces_per_app=2, alternatives=3,
                n_procs=2, n_accels=5),
}

CASE_STUDIES = {
    "settop": build_settop_spec,
    "automotive": build_automotive_spec,
    "tv_decoder": build_tv_decoder_spec,
}

#: Relative amplitude of the seeded latency jitter.
JITTER = 0.02


class Input(NamedTuple):
    label: str
    doc: Dict[str, Any]
    options: Dict[str, Any]
    key: str


class Op(NamedTuple):
    """One completed op: its input, latency and checked-result parts."""

    seq: int
    input_index: int
    seconds: float
    result: Optional[Dict[str, Any]]
    cache: Dict[str, int]
    error: Optional[str]


def make_input(label, doc, options=None) -> Input:
    options = dict(options or {})
    return Input(label, doc, options, oracle.input_key(doc, options))


def jittered(shape: str, structure: int, rng: random.Random):
    """A synthetic spec with every mapping latency scaled by a seeded
    factor in ``[1 - JITTER, 1 + JITTER]``."""
    spec = synthetic_spec(seed=structure, **SHAPES[shape])
    doc = spec_to_dict(spec)
    overrides = {
        (m["process"], m["resource"]): round(
            m["latency"] * rng.uniform(1 - JITTER, 1 + JITTER), 3
        )
        for m in doc["mappings"]
    }
    return with_latency(spec, overrides)


def case_study(name: str) -> Input:
    return make_input(name, spec_to_dict(CASE_STUDIES[name]()))


def synthetic_input(shape, structure, rng) -> Input:
    return make_input(f"{shape}/{structure}",
                      spec_to_dict(jittered(shape, structure, rng)))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def explore_fresh(doc, **options):
    """Explore a fresh spec object built from ``doc``, then drop it.

    ``CompiledSpec`` keeps a strong reference to its spec, and it is the
    value stored under that spec in the weak-keyed intern table of
    ``compiled_spec_for``, so the table never frees it by itself.  A
    one-shot user's process is gone after one run; here, without the
    pop, every op's compiled tables and verdict memo would pile up and
    full garbage collections over them would take a growing share of
    each run.  Once the program frees them itself the pop is a no-op.
    """
    spec = API["spec_from_dict"](doc)
    try:
        return API["explore"](spec, **options)
    finally:
        repro.compiled._COMPILED.pop(spec, None)


class Workload:
    """Base: sequential closed loop, one op at a time."""

    name = ""

    def inputs(self, seed: int) -> List[Input]:
        raise NotImplementedError

    def setup(self, inputs: List[Input], workdir: str) -> Any:
        return None

    def run_op(self, state, inp: Input):
        raise NotImplementedError

    def check_op(self, op: Op) -> Optional[str]:
        """A workload-specific assertion on one op (``None`` = ok)."""
        return None

    def drive(self, state, inputs, seconds=None, count=None, tracer=None):
        """Run ops back to back until ``seconds`` elapse or ``count``
        ops completed; returns ``(ops, timed_wall_seconds)``."""
        ops: List[Op] = []
        start = time.perf_counter()
        end = start
        while True:
            if count is not None and len(ops) >= count:
                break
            if seconds is not None and end - start >= seconds:
                break
            index = len(ops) % len(inputs)
            t0 = time.perf_counter()
            frame = tracer.enter("bench.op", op=len(ops)) if tracer else None
            try:
                result = self.run_op(state, inputs[index])
                ops.append(Op(len(ops), index, 0.0,
                              oracle.result_doc(result),
                              result.stats.cache_dict(), None))
            except Exception as error:  # an op that raises is a failure
                ops.append(Op(len(ops), index, 0.0, None, {}, repr(error)))
            finally:
                if frame is not None:
                    tracer.exit(frame, record=True)
            end = time.perf_counter()
            ops[-1] = ops[-1]._replace(seconds=end - t0)
        return ops, end - start


class ColdExplore(Workload):
    """One-shot ``repro explore`` users: a fresh spec object per op, so
    compile and verdict memo start cold every time."""

    name = "cold-explore"
    STRUCTURES = (("15u-b", 7), ("15u-a", 6), ("15u-a", 2), ("15u-b", 1))

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        syn = [synthetic_input(s, k, rng) for s, k in self.STRUCTURES]
        return [case_study(name) for name in CASE_STUDIES] + syn

    def setup(self, inputs, workdir):
        # Finish the process's lazy one-time work (imports inside the
        # kernel, numpy first use) on a throwaway spec object.
        explore_fresh(inputs[0].doc)

    def run_op(self, state, inp):
        return explore_fresh(inp.doc)

    def check_op(self, op):
        if op.cache.get("memo_misses", 0) <= 0:
            return "cold op had no verdict-memo misses"
        return None


class WhatIfSweep(Workload):
    """Interactive design-space queries against one warm 18-unit spec:
    forbid/require/max-cost variants, every verdict memoised."""

    name = "whatif-sweep"
    STRUCTURE = ("18u", 0)
    #: Fixed, so the seed (which jitters the spec) does not decide how
    #: much of the space a query covers.
    VARIANTS = (
        {},
        {"forbid_units": ["acc1"]},
        {"forbid_units": ["bus3"]},
        {"require_units": ["acc2"]},
        {"require_units": ["bus5"]},
        {"max_cost": 500.0},
        {"forbid_units": ["acc3"], "max_cost": 600.0},
    )

    def inputs(self, seed):
        doc = spec_to_dict(jittered(*self.STRUCTURE, _rng(self.name, seed)))
        return [make_input("18u/0", doc, v) for v in self.VARIANTS]

    def setup(self, inputs, workdir):
        spec = API["spec_from_dict"](inputs[0].doc)
        for inp in inputs:  # fills the interned compile + verdict memo
            API["explore"](spec, **inp.options)
        return spec

    def run_op(self, spec, inp):
        return API["explore"](spec, **inp.options)


class EditSession(Workload):
    """A designer's chain of latency and unit-cost edits, each explored
    from a fresh spec object against a persistent warm store."""

    name = "edit-session"
    STRUCTURE = ("15u-b", 7)
    EDITS = 7

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        spec = jittered(*self.STRUCTURE, rng)
        doc = spec_to_dict(spec)
        out = [make_input("base", doc)]
        # Which edge or unit each edit touches, and its direction, are
        # fixed; the seed only perturbs the sizes, so every seed
        # invalidates a similar share of the stored verdicts.
        plan = random.Random(self.name)
        latency = {(m["process"], m["resource"]): m["latency"]
                   for m in doc["mappings"]}
        paid = sorted(n for n in spec.units.names()
                      if not n.startswith("proc"))
        for i in range(self.EDITS):
            up = i % 4 < 2
            if i % 2 == 0:
                edge = plan.choice(sorted(latency))
                latency[edge] = round(latency[edge] * (1.2 if up else 0.8)
                                      * rng.uniform(1 - JITTER, 1 + JITTER), 3)
                spec = with_latency(spec, {edge: latency[edge]})
                label = f"latency {edge[0]}@{edge[1]}"
            else:
                unit = plan.choice(paid)
                cost = spec.units.unit(unit).cost * (1.1 if up else 0.9)
                spec = with_unit_costs(spec, {unit: round(
                    cost * rng.uniform(1 - JITTER, 1 + JITTER), 1)})
                label = f"cost {unit}"
            out.append(make_input(label, spec_to_dict(spec)))
        # Op inputs are the edits; the base only seeds the store.
        return out

    def setup(self, inputs, workdir):
        store = os.path.join(workdir, "store")
        explore_fresh(inputs[0].doc, warm_store=store)
        return store

    def drive(self, state, inputs, seconds=None, count=None, tracer=None):
        ops, wall = super().drive(state, inputs[1:], seconds, count, tracer)
        return [op._replace(input_index=op.input_index + 1)
                for op in ops], wall

    def run_op(self, store, inp):
        return explore_fresh(inp.doc, warm_store=store)

    def check_op(self, op):
        if op.cache.get("warm_hits", 0) <= 0:
            return "edit op took no verdicts from the warm store"
        return None


WORKLOADS = {w.name: w for w in (ColdExplore(), WhatIfSweep(), EditSession())}
