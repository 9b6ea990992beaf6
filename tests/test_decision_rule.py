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
    """Count the runs of the block driver."""
    calls = {"run_fast": 0}
    original = batch.BlockContext.run_fast

    def spy(self, *args, **kwargs):
        calls["run_fast"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(batch.BlockContext, "run_fast", spy)
    return calls


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
class TestOracle:
    """Each driver against brute force, never against another engine."""

    def exact(self, spec):
        return [p.point for p in exhaustive_front(spec)]

    def test_reference(self, seed):
        spec = random_spec(seed)
        assert explore(spec, engine="reference").front() == self.exact(spec)

    def test_serial_scalar(self, seed, monkeypatch):
        monkeypatch.setattr(batch, "_np", None)
        spec = random_spec(seed)
        assert explore(spec).front() == self.exact(spec)

    @needs_numpy
    def test_block_eventful(self, seed, block_spy):
        spec = random_spec(seed)
        events = []
        result = explore(spec, progress=events.append)
        assert result.front() == self.exact(spec)
        assert block_spy == {"run_fast": 1}

    @needs_numpy
    def test_block_run_fast(self, seed, block_spy):
        spec = random_spec(seed)
        assert explore(spec).front() == self.exact(spec)
        assert block_spy == {"run_fast": 1}

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


#: Every kind of observed or bounded run, as ``explore()`` keywords
#: (``tmp`` is the run's scratch directory).
OBSERVED_RUNS = {
    "progress": lambda tmp: dict(progress=lambda event: None,
                                 progress_every=3),
    "spans": lambda tmp: dict(tracer=Tracer(level="spans")),
    "audit": lambda tmp: dict(tracer=Tracer(level="audit")),
    "keep_ties": lambda tmp: dict(keep_ties=True),
    "max_candidates": lambda tmp: dict(max_candidates=5),
    "budgeted": lambda tmp: dict(deadline_seconds=1e9, max_evaluations=2),
    "checkpointed": lambda tmp: dict(
        checkpoint=os.path.join(tmp, "run.ckpt"), checkpoint_every=3
    ),
}


@needs_numpy
@pytest.mark.parametrize("kind", sorted(OBSERVED_RUNS))
def test_observed_runs_take_the_block_driver(kind, block_spy, tmp_path):
    """Observers, ties, candidate caps, budgets and checkpoints all run
    on ``run_fast``; no run of the compiled engine leaves it."""
    spec = random_spec(3)
    explore(spec, **OBSERVED_RUNS[kind](str(tmp_path)))
    assert block_spy == {"run_fast": 1}


@needs_numpy
def test_resumed_run_takes_the_block_driver(block_spy, tmp_path):
    from repro.resilience import resume_explore

    path = str(tmp_path / "run.ckpt")
    result = explore(random_spec(3), checkpoint=path, max_evaluations=1)
    assert not result.completed
    resume_explore(path, progress=lambda event: None, max_evaluations=None)
    assert block_spy == {"run_fast": 2}


@needs_numpy
def test_service_slices_take_the_block_driver(block_spy, tmp_path):
    """A service slice forwards progress events and journals its state,
    and still runs on the block driver."""
    from repro.service import ExplorationService

    service = ExplorationService(str(tmp_path), slice_evaluations=2)
    service.submit(random_spec(3))
    slices = service.run()
    assert slices > 1
    assert block_spy == {"run_fast": slices}
