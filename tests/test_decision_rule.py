"""EXPLORE's decision rule, checked on every driver that runs it.

The rule lives once, in :class:`repro.core.explorer.ExploreState`; the
drivers only supply candidates and the answers to its questions.  Two
properties guard each driver independently of the others:

* **oracle** — on the randspec corpus every driver's front equals the
  brute-force Pareto front over all ``2^n`` allocations;
* **taxonomy reachability** — on the audit corpus every prune reason
  of :data:`repro.trace.PRUNE_REASONS` and every bound stop is emitted
  by plain and by budgeted, checkpointed runs alike, so no route lost a
  branch of the rule.
"""

import os
import tempfile

import pytest

from .randspec import random_spec
from .routes import routes
from repro.compiled import batch
from repro.core import exhaustive_front, explore
from repro.trace import PRUNE_REASONS, Tracer

#: The randspec oracle corpus (<= 8 allocatable units each, so the
#: exhaustive front stays cheap).
ORACLE_SEEDS = list(range(16))

#: The audit corpus of ``tests/test_trace.py``.
AUDIT_SEEDS = list(range(12))

#: Option variants that, together, reach every branch of the rule:
#: ties (``tie_higher_cost``), a cost bound and a candidate budget.
VARIANTS = (
    {},
    {"keep_ties": True},
    {"max_cost": 150.0},
    {"max_candidates": 5},
)

BOUND_STOPS = ("flexibility_bound_reached", "cost_bound", "max_candidates")

needs_numpy = pytest.mark.skipif(
    batch.active_numpy() is None, reason="block kernel needs numpy"
)


@pytest.fixture
def block_spy(monkeypatch):
    """Count which of the block kernel's two drivers ran."""
    calls = {"run_fast": 0, "candidates": 0}
    for name in calls:
        original = getattr(batch.BlockContext, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(batch.BlockContext, name, spy)
    return calls


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
class TestOracle:
    """Each driver against brute force, never against another engine."""

    def exact(self, spec):
        return [p.point for p in exhaustive_front(spec)]

    def test_serial_scalar(self, seed, monkeypatch):
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        spec = random_spec(seed)
        assert explore(spec).front() == self.exact(spec)

    @needs_numpy
    def test_block_eventful(self, seed, block_spy):
        spec = random_spec(seed)
        events = []
        result = explore(spec, progress=events.append)
        assert result.front() == self.exact(spec)
        assert block_spy == {"run_fast": 0, "candidates": 1}

    @needs_numpy
    def test_block_run_fast(self, seed, block_spy):
        spec = random_spec(seed)
        assert explore(spec).front() == self.exact(spec)
        assert block_spy == {"run_fast": 1, "candidates": 0}

    @pytest.mark.parametrize("every", [1, 7])
    def test_batched(self, seed, every, tmp_path):
        spec = random_spec(seed)
        for _, route in routes(tmp_path, every):
            assert explore(spec, **route).front() == self.exact(spec)


def emitted_reasons(run):
    """Every prune and stop reason ``run`` emits over the audit corpus."""
    seen = set()
    for seed in AUDIT_SEEDS:
        spec = random_spec(seed)
        for options in VARIANTS:
            tracer = Tracer(level="audit")
            run(spec, tracer, **options)
            seen.update(
                record["reason"]
                for record in tracer.records
                if record["type"] in ("prune", "stop")
            )
    return seen


def run_serial(spec, tracer, **options):
    return explore(spec, tracer=tracer, **options)


def run_batched(spec, tracer, **options):
    """A budgeted, checkpointed run (the route service slices take)."""
    with tempfile.TemporaryDirectory() as directory:
        return explore(
            spec,
            max_evaluations=10**9,
            checkpoint=os.path.join(directory, "run.ckpt"),
            checkpoint_every=4,
            tracer=tracer,
            **options,
        )


@pytest.mark.parametrize(
    "run, stops",
    [
        (run_serial, BOUND_STOPS),
        (run_batched, BOUND_STOPS),
    ],
    ids=["serial", "batched"],
)
def test_every_reason_is_reachable(run, stops):
    seen = emitted_reasons(run)
    missing = (set(PRUNE_REASONS) | set(stops)) - seen
    assert not missing, f"{run.__name__} never emits {sorted(missing)}"
