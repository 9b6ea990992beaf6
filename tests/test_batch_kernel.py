"""The block-vectorized kernel IS the scalar kernel IS the reference.

:mod:`repro.compiled.batch` re-expresses enumeration and the cheap
candidate checks as uint64 bit-plane operations over blocks of
thousands of candidates.  Its contract is the same as the compiled
engine's: byte-identical results, enumeration order, progress events
and logical traces.  These tests prove it at three levels:

* the band-cursor API of :class:`MaskAllocationEnumerator`
  (``peek_cost``/``next_band``) partitions the heap stream exactly,
  including equal-cost bands (the set-top catalog has bands of
  thousands of tied masks);
* the materialized closed-form order and every vectorized check
  (usable / possible / comm-pruned / estimate) match the scalar
  kernel element-for-element over random specs (hypothesis-driven),
  the corpus seeds and every allocation of the three case studies;
  the windowed materialized source yields the heap stream row for row
  at every block size and tie-keys only the prefix EXPLORE reads;
* ``explore()`` results, event streams and trace fingerprints are
  identical with the block kernel on and with numpy absent (the
  import-path fallback), on the band-streaming source
  (materialization threshold 0) and at any block size — serially and
  batched.
"""

import functools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .randspec import random_spec
from .test_parallel_explore import SEEDS, fingerprint
from repro.analysis import with_unit_costs
from repro.casestudies import (
    build_automotive_spec,
    build_settop_spec,
    build_tv_decoder_spec,
    synthetic_spec,
)
from repro.compiled import MaskAllocationEnumerator, compiled_spec_for
from repro.compiled import batch
from repro.core import explore
from repro.trace import Tracer, trace_fingerprint

requires_numpy = pytest.mark.skipif(
    batch._np is None, reason="numpy not installed"
)


def _enumerator(spec, include_empty=True):
    cspec = compiled_spec_for(spec)
    return cspec, MaskAllocationEnumerator(
        cspec, list(spec.units.names()), include_empty=include_empty
    )


# ---------------------------------------------------------------------------
# Band-cursor API (pure stdlib — runs with or without numpy)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("include_empty", [False, True])
def test_bands_partition_the_heap_stream(include_empty):
    """Concatenated bands reproduce ``iter_masks`` order exactly, and
    every band is a maximal equal-cost run announced by peek_cost."""
    spec = build_settop_spec()
    _, enum = _enumerator(spec, include_empty)
    reference = list(
        MaskAllocationEnumerator(
            compiled_spec_for(spec),
            list(spec.units.names()),
            include_empty=include_empty,
        ).iter_masks()
    )
    replayed = []
    previous = None
    while True:
        peek = enum.peek_cost()
        try:
            cost, masks = enum.next_band()
        except StopIteration:
            assert peek is None
            break
        assert peek == cost
        assert masks, "bands are never empty"
        if previous is not None:
            assert cost > previous, "band costs strictly increase"
        previous = cost
        replayed.extend((cost, mask) for mask in masks)
    assert replayed == reference


def test_band_tie_corners_on_settop():
    """The set-top catalog has thousands of equal-cost candidates; the
    band cursor must group each tie run into one band, in pop order."""
    spec = build_settop_spec()
    _, enum = _enumerator(spec)
    sizes = []
    while True:
        try:
            _, masks = enum.next_band()
        except StopIteration:
            break
        sizes.append(len(masks))
    assert max(sizes) > 1000, "expected large tied bands on settop"
    assert sizes[0] == 1, "the empty allocation is its own zero band"


def test_band_cursor_is_lazy_and_restartable():
    """peek_cost before any pull answers the first cost without
    consuming it; a fresh enumerator starts over."""
    spec = build_tv_decoder_spec()
    _, enum = _enumerator(spec, include_empty=False)
    first_cost = enum.peek_cost()
    cost, _ = enum.next_band()
    assert cost == first_cost
    _, again = _enumerator(spec, include_empty=False)
    assert again.next_band()[0] == first_cost


# ---------------------------------------------------------------------------
# Vectorized checks vs the scalar kernel (numpy only)
# ---------------------------------------------------------------------------


def _assert_kernel_matches_scalar(spec):
    np = batch._np
    cspec = compiled_spec_for(spec)
    kernel = batch.kernel_for(cspec)
    n = cspec.unit_count
    assert n <= 17, "exhaustive check needs a small spec"
    masks = np.arange(1 << n, dtype=np.uint64)
    usable = kernel.usable(masks)
    possible = kernel.possible(masks)
    comm = kernel.comm_pruned(usable)
    estimates = kernel.estimates(masks, False)
    for i in range(1 << n):
        assert int(usable[i]) == cspec.usable_mask(i)
        assert bool(possible[i]) == cspec.possible(i)
        assert bool(comm[i]) == cspec.comm_pruned(i)
        assert float(estimates[i]) == cspec.estimate(i, False)


@requires_numpy
def test_block_checks_match_scalar_corpus():
    for seed in SEEDS[::5]:
        _assert_kernel_matches_scalar(random_spec(seed))


@requires_numpy
@pytest.mark.parametrize(
    "build",
    [build_settop_spec, build_automotive_spec, build_tv_decoder_spec],
    ids=["settop", "automotive", "tv_decoder"],
)
def test_block_checks_match_scalar_case_studies(build):
    _assert_kernel_matches_scalar(build())


@requires_numpy
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_block_checks_match_scalar_property(seed):
    """Block-vectorized check results == scalar kernel, exhaustively
    over every allocation mask of an arbitrary random spec."""
    _assert_kernel_matches_scalar(random_spec(seed))


@requires_numpy
def test_materialized_order_matches_heap_order():
    """The closed-form DP order equals the heap stream — costs, masks
    and tie-breaking — on tied (settop) and corpus specs."""
    np = batch._np
    specs = [build_settop_spec(), build_tv_decoder_spec()]
    specs += [random_spec(seed) for seed in SEEDS[::7]]
    for spec in specs:
        for include_empty in (False, True):
            _, enum = _enumerator(spec, include_empty)
            if len(enum._costs) > 12:
                continue
            costs, index_masks = batch.materialized_order(
                enum._costs, include_empty
            )
            spec_masks = []
            for imask in index_masks.tolist():
                mask = 0
                for j, bit in enumerate(enum._bits):
                    if imask >> j & 1:
                        mask |= bit
                spec_masks.append(mask)
            observed = list(zip(costs.tolist(), spec_masks))
            assert observed == list(enum.iter_masks())


def _tie_keys_by_level(masks, n):
    """The tie keys built level by level, as first defined."""
    np = batch._np
    keys = np.zeros(len(masks), dtype=np.uint64)
    one = np.uint64(1)
    two = np.uint64(2)
    for j in range(n):
        above = masks >> np.uint64(j)
        key = np.full(len(masks), two, dtype=np.uint64)
        key[(above & one) != 0] = one
        key[above == 0] = 0
        keys = (keys << two) | key
    return keys


@requires_numpy
def test_closed_form_tie_keys_match_the_level_loop():
    """Every ``n``-bit mask, ``n`` = 1..20, gets the level loop's key."""
    np = batch._np
    for n in range(1, 21):
        masks = np.arange(1 << n, dtype=np.uint64)
        assert np.array_equal(
            batch._tie_keys(masks, n), _tie_keys_by_level(masks, n)
        ), n


def _synthetic(n_accels):
    """The 15-unit (4 accelerators) or 18-unit (5) benchmark shape."""
    return synthetic_spec(
        seed=0, n_apps=2, interfaces_per_app=2, alternatives=3, n_procs=2,
        n_accels=n_accels,
    )


def _decimal_costs():
    """TV decoder with costs 0.1/0.2/0.3/0.6, whose derivation-path
    sums differ from plain sums."""
    spec = build_tv_decoder_spec()
    costs = (0.1, 0.2, 0.3, 0.6)
    return with_unit_costs(
        spec,
        {n: costs[i % 4] for i, n in enumerate(sorted(spec.units.names()))},
    )


def _zero_cost_unit():
    spec = build_tv_decoder_spec()
    return with_unit_costs(spec, {sorted(spec.units.names())[0]: 0.0})


ORDER_INPUTS = {
    "settop": build_settop_spec,
    "synthetic-15": lambda: _synthetic(4),
    "decimal-costs": _decimal_costs,
    "zero-cost-unit": _zero_cost_unit,
}


def _window_stream(enum, include_empty, rows):
    """``_iter_materialized_blocks`` flattened to ``(cost, mask)`` rows,
    checking that every block but the last holds ``rows`` rows."""
    blocks = list(
        batch._iter_materialized_blocks(
            enum, include_empty, rows, lambda phase, s: None,
            time.perf_counter,
        )
    )
    assert all(len(costs) == rows for costs, _ in blocks[:-1])
    return [
        row
        for costs, masks in blocks
        for row in zip(costs.tolist(), masks.tolist())
    ]


@requires_numpy
@pytest.mark.parametrize("include_empty", [False, True])
@pytest.mark.parametrize("name", sorted(ORDER_INPUTS))
def test_windowed_blocks_match_heap_stream(name, include_empty):
    """The windowed materialized source yields the heap stream row for
    row at every block size, across tie groups of thousands of masks
    (set-top), 15 units, derivation-path float sums and a zero-cost
    unit tied with the empty set."""
    spec = ORDER_INPUTS[name]()
    _, enum = _enumerator(spec, include_empty)
    reference = list(enum.iter_masks())
    for rows in (1, 3, 64, batch.BLOCK_ROWS):
        assert _window_stream(enum, include_empty, rows) == reference


@requires_numpy
def test_decimal_costs_exercise_derivation_paths():
    """Guard of the input above: some heap costs are not plain sums."""
    _, enum = _enumerator(_decimal_costs(), False)
    by_bit = dict(zip(enum._bits, enum._costs))
    assert any(
        cost != sum(c for bit, c in by_bit.items() if mask & bit)
        for cost, mask in enum.iter_masks()
    )


@requires_numpy
@pytest.mark.parametrize("include_empty", [False, True])
def test_windowed_blocks_single_unit(include_empty):
    spec = build_settop_spec()
    cspec = compiled_spec_for(spec)
    enum = MaskAllocationEnumerator(
        cspec, ["A1"], include_empty=include_empty
    )
    reference = list(enum.iter_masks())
    for rows in (1, 3, batch.BLOCK_ROWS):
        assert _window_stream(enum, include_empty, rows) == reference


@requires_numpy
def test_materialized_source_stays_lazy(monkeypatch):
    """A default explore of the 18-unit what-if spec stops early, so
    fewer than 1/8 of its ``2^18`` rows may ever be tie-keyed."""
    keyed = []
    tie_keys = batch._tie_keys

    def spy(masks, n):
        keyed.append(len(masks))
        return tie_keys(masks, n)

    monkeypatch.setattr(batch, "_tie_keys", spy)
    spec = _synthetic(5)
    assert len(spec.units.names()) == 18
    explore(spec)
    assert keyed, "the materialized source did not run"
    assert sum(keyed) < (1 << 18) // 8


@pytest.fixture
def sized_blocks(monkeypatch):
    """Set the block size of every block context ``explore`` builds;
    counts the runs of the block driver."""
    seen = {"rows": None, "run_fast": 0}
    make = batch.make_block_context

    def sized(*args, **kwargs):
        return make(*args, block_rows=seen["rows"], **kwargs)

    monkeypatch.setattr(batch, "make_block_context", sized)
    original = batch.BlockContext.run_fast

    def spy(self, *args, **kwargs):
        assert self.block_rows == seen["rows"]
        seen["run_fast"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(batch.BlockContext, "run_fast", spy)
    return seen


@requires_numpy
@pytest.mark.parametrize(
    "build",
    [build_settop_spec, build_tv_decoder_spec, lambda: _synthetic(4)],
    ids=["settop", "tv_decoder", "synthetic-15"],
)
def test_results_do_not_depend_on_block_size(build, sized_blocks):
    """Result documents, statistics, progress events and span and
    audit traces are identical at block sizes 1, 7 and ``BLOCK_ROWS``,
    plain, with ties kept and with a candidate cap."""
    spec = build()
    contracts = {}
    for rows in (1, 7, batch.BLOCK_ROWS):
        sized_blocks["rows"] = rows
        contract = []
        for options in ({}, {"keep_ties": True}, {"max_candidates": 5}):
            plain = fingerprint(explore(spec, engine="compiled", **options))
            events = []
            spans = Tracer(level="spans")
            eventful = explore(
                spec, engine="compiled", progress=events.append,
                progress_every=25, tracer=spans, **options,
            )
            audit = Tracer(level="audit")
            traced = explore(spec, engine="compiled", tracer=audit, **options)
            contract.append((
                plain,
                fingerprint(eventful),
                events,
                trace_fingerprint(spans.all_records()),
                fingerprint(traced),
                trace_fingerprint(audit.all_records()),
            ))
        contracts[rows] = contract
    assert sized_blocks["run_fast"] == 27
    assert contracts[1] == contracts[7] == contracts[batch.BLOCK_ROWS]


@requires_numpy
def test_popcount64_fallback_matches():
    """The SWAR fallback equals numpy's bitwise_count when present."""
    np = batch._np
    values = np.array(
        [0, 1, 2**64 - 1, 0x5555555555555555, 0x0123456789ABCDEF],
        dtype=np.uint64,
    )
    observed = batch.popcount64(values)
    assert observed.tolist() == [bin(int(v)).count("1") for v in values]


# ---------------------------------------------------------------------------
# End-to-end fallback seams
# ---------------------------------------------------------------------------


def test_explore_with_numpy_absent(monkeypatch):
    """With numpy unimportable the engine silently runs the scalar
    kernel and produces the identical result document."""
    monkeypatch.setattr(batch, "_np", None)
    assert batch.active_numpy() is None
    assert batch.numpy_version() is None
    spec = build_settop_spec()
    observed = fingerprint(explore(spec, engine="compiled"))
    assert observed == fingerprint(explore(spec, engine="reference"))


def test_explore_with_vectorize_disabled(monkeypatch):
    monkeypatch.setattr(batch, "_np", None)
    assert batch.active_numpy() is None
    spec = build_tv_decoder_spec()
    observed = fingerprint(explore(spec, engine="compiled"))
    assert observed == fingerprint(explore(spec, engine="reference"))


def test_block_context_gate_without_numpy(monkeypatch):
    from repro.compiled import compiled_evaluator

    monkeypatch.setattr(batch, "_np", None)
    evaluator = compiled_evaluator(build_settop_spec())
    context = evaluator.block_context([], False, frozenset(), 0.0)
    assert context is None


@requires_numpy
def test_band_streaming_source_matches(monkeypatch):
    """Forcing the band-streaming block source (materialization
    threshold 0) changes nothing observable."""
    monkeypatch.setattr(batch, "MATERIALIZE_MAX_BITS_DEFAULT", 0)
    spec = build_settop_spec()
    observed = fingerprint(explore(spec, engine="compiled"))
    assert observed == fingerprint(explore(spec, engine="reference"))


@requires_numpy
@pytest.mark.parametrize("every", [None, 1, 5, 32])
def test_vectorized_vs_scalar_full_contract(monkeypatch, every, tmp_path):
    """Result document, progress events and audit-trace fingerprints
    are identical with the block kernel on and off — plain, and
    budgeted with a checkpoint journal every ``every`` candidates."""
    spec = build_settop_spec()
    contracts = {}
    numpy = batch._np
    for mode in ("1", "0"):
        monkeypatch.setattr(batch, "_np", numpy if mode == "1" else None)
        events = []
        run = explore if every is None else functools.partial(
            explore,
            deadline_seconds=1e9,
            checkpoint=str(tmp_path / "run.ckpt"),
            checkpoint_every=every,
        )
        result = run(
            spec, engine="compiled", progress=events.append,
            progress_every=25,
        )
        tracer = Tracer(level="audit")
        run(spec, engine="compiled", tracer=tracer)
        contracts[mode] = (
            fingerprint(result),
            events,
            trace_fingerprint(tracer.all_records()),
        )
    assert contracts["1"] == contracts["0"]


@requires_numpy
def test_vectorized_corpus_differential(monkeypatch):
    """Vectorized == scalar over the random corpus end to end."""
    numpy = batch._np
    for seed in SEEDS[::5]:
        spec = random_spec(seed)
        monkeypatch.setattr(batch, "_np", numpy)
        vectorized = fingerprint(explore(spec, engine="compiled"))
        monkeypatch.setattr(batch, "_np", None)
        scalar = fingerprint(explore(spec, engine="compiled"))
        assert vectorized == scalar, f"seed {seed} diverged"


def test_small_spec_floor_falls_back_scalar(monkeypatch):
    """Without numpy a small spec's block context declines and the
    scalar loop runs."""
    from repro.compiled import compiled_evaluator

    spec = build_tv_decoder_spec()
    evaluator = compiled_evaluator(spec)
    names = list(spec.units.names())
    monkeypatch.setattr(batch, "_np", None)
    assert evaluator.block_context(names, True, frozenset(), 0.0) is None
