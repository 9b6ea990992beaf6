"""The warm-store key is a congruence across one namespace.

A store key is a per-ECS content digest plus the integer part of the
in-process memo key (:mod:`repro.store.digest`).  The memo key is a
congruence within one compiled spec (``test_monotonicity.py``); the
store reuses it across every spec of one namespace, i.e. across
latency and unit-cost edits.  Checked here over the set-top box, the
TV decoder and 20 bridged random platforms, each with a chain of
latency and cost edits, in all six timing × backend modes:

* **congruence** — any two memo misses, in any specs of the chain,
  that share a store key get equal verdicts (binding in its order,
  solver deltas and timing-check counts; not the wall-clock);
* **invalidation** — after :func:`repro.store.invalidate` drops what an
  edit touched, a warm run against the chain's shared store equals a
  cold run, result document and trace fingerprint alike.
"""

import functools
import random

import pytest

from .randspec import random_bridged_spec
from .test_warm_start import canonical, run
from repro.analysis import with_latency, with_unit_costs
from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.io import spec_to_dict
from repro.store import WarmBinding, invalidate, namespace_digest, open_store
from repro.store.store import _reset_stores

MODES = [
    (timing_mode, backend)
    for timing_mode in ("utilization", "schedule", "none")
    for backend in ("csp", "sat")
]

BASES = {
    "settop": build_settop_spec,
    "tv_decoder": build_tv_decoder_spec,
    **{
        f"bridged{seed}": functools.partial(random_bridged_spec, seed)
        for seed in range(20)
    },
}


@pytest.fixture(autouse=True)
def fresh_intern_table():
    _reset_stores()
    yield
    _reset_stores()


def edit_chain(spec, rng, edits=4):
    """``spec`` followed by alternating latency and unit-cost edits,
    each applied to the previous spec of the chain."""
    chain = [spec]
    for index in range(edits):
        if index % 2 == 0:
            mapping = rng.choice(spec_to_dict(spec)["mappings"])
            latency = mapping["latency"] * rng.choice((0.25, 0.5, 2.0, 4.0))
            spec = with_latency(
                spec, {(mapping["process"], mapping["resource"]): latency}
            )
        else:
            unit = rng.choice(sorted(spec.units.names()))
            spec = with_unit_costs(spec, {unit: float(rng.randint(1, 500))})
        chain.append(spec)
    return chain


def observable(payload):
    binding = payload["b"]
    return (
        None if binding is None else list(binding.items()),
        payload["d"],
        payload["tc"],
        payload["tr"],
    )


@pytest.mark.parametrize("name", BASES)
def test_one_store_key_one_verdict_across_a_namespace(
    name, tmp_path, monkeypatch
):
    chain = edit_chain(BASES[name](), random.Random(name))
    assert len({namespace_digest(spec) for spec in chain}) == 1
    written = []
    put = WarmBinding.put

    def recording(self, key, deps, payload):
        written.append((key, observable(payload)))
        return put(self, key, deps, payload)

    monkeypatch.setattr(WarmBinding, "put", recording)
    shared = 0
    for timing_mode, backend in MODES:
        options = dict(timing_mode=timing_mode, backend=backend)
        verdicts = {}
        store_path = str(tmp_path / f"shared-{timing_mode}-{backend}")
        previous = None
        for index, spec in enumerate(chain):
            # A store of its own: every memo miss is solved and written.
            del written[:]
            run(spec, str(tmp_path / f"{timing_mode}-{backend}-{index}"),
                **options)
            assert written
            for key, verdict in written:
                if key in verdicts:
                    shared += 1
                assert verdicts.setdefault(key, verdict) == verdict, (
                    f"{name} {timing_mode}/{backend} spec {index}: "
                    f"store key {key} covers differing verdicts"
                )
            if previous is not None:
                invalidate(open_store(store_path), previous, spec)
            cold, cold_trace = run(spec, **options)
            warm, warm_trace = run(spec, store_path, **options)
            assert canonical(warm) == canonical(cold)
            assert warm_trace == cold_trace
            previous = spec
    # The edits leave most verdicts' keys in place.
    assert shared
