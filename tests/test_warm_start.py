"""End-to-end warm-start exactness (:mod:`repro.store` wired through
``explore(warm_store=...)``).

The headline contract: a warm run is **byte-identical** to a cold run —
result document (points, statistics, progress events), trace
fingerprint — and only the cache diagnostics differ.  Proven
differentially over the case studies, the 30-seed random corpus and
randomized chains of latency/cost/structural edits, plus the failure
modes: corrupted segments and malformed payloads degrade to cold,
never to a wrong front.
"""

import json
import os
import random

import pytest

from .randspec import random_spec
from repro.analysis import with_latency, with_unit_costs
from repro.casestudies import (
    build_settop_spec,
    build_tv_decoder_spec,
    synthetic_spec,
)
from repro.core import explore
from repro.errors import ExplorationError
from repro.io import spec_from_dict, spec_to_dict
from repro.io.result_io import dumps_result, loads_result, result_to_dict
from repro.resilience import resume_explore
from repro.resilience.journal import _parse_line, encode_record
from repro.service import ExplorationService
from repro.store import diff_specs, invalidate, open_store
from repro.store.store import _reset_stores
from repro.trace import Tracer, trace_fingerprint

SEEDS = list(range(30))


@pytest.fixture(autouse=True)
def fresh_intern_table():
    _reset_stores()
    yield
    _reset_stores()


def fresh(spec):
    """A structurally identical spec that shares no object identity —
    defeats the per-spec evaluator interning so every run genuinely
    consults the store instead of the in-memory memo."""
    return spec_from_dict(spec_to_dict(spec))


def canonical(result, ignore=()):
    """Result document minus wall-clock and cache diagnostics."""
    document = result_to_dict(result)
    document.get("stats", {}).pop("elapsed_seconds", None)
    for key in ignore:
        document.get("stats", {}).pop(key, None)
    document.pop("cache", None)
    return json.dumps(document, sort_keys=True)


def run(spec, warm_store=None, **options):
    tracer = Tracer(level="audit")
    result = explore(
        fresh(spec), warm_store=warm_store, tracer=tracer, **options
    )
    return result, trace_fingerprint(tracer.all_records())


def edit_and_rerun(spec, tmp_path, **options):
    """INCR's scenario: fill a store from ``spec``, bump its first
    mapping's latency, invalidate, then explore the edit cold and warm.
    Returns the invalidation report and the cold and warm results."""
    store_path = str(tmp_path / "ws")
    run(spec, warm_store=store_path, **options)
    mapping = spec_to_dict(spec)["mappings"][0]
    pair = (mapping["process"], mapping["resource"])
    patched = with_latency(spec, {pair: mapping["latency"] + 1})
    report = invalidate(open_store(store_path), spec, patched)
    assert report["kind"] == "local"
    _reset_stores()
    cold, cold_trace = run(patched, **options)
    _reset_stores()
    warm, warm_trace = run(patched, warm_store=store_path, **options)
    assert canonical(warm) == canonical(cold)
    assert warm_trace == cold_trace
    assert warm.stats.warm_hits + warm.stats.warm_misses == (
        cold.stats.memo_misses
    )
    return report, cold, warm


class TestCaseStudies:
    @pytest.mark.parametrize(
        "build", [build_settop_spec, build_tv_decoder_spec]
    )
    def test_warm_equals_cold(self, build, tmp_path):
        spec = build()
        store_path = str(tmp_path / "ws")
        cold, cold_trace = run(spec)
        filling, filling_trace = run(spec, warm_store=store_path)
        _reset_stores()
        warm, warm_trace = run(spec, warm_store=store_path)

        assert canonical(cold) == canonical(filling) == canonical(warm)
        assert cold_trace == filling_trace == warm_trace
        assert filling.stats.warm_writes > 0
        assert warm.stats.warm_hits == filling.stats.warm_writes
        assert warm.stats.warm_misses == 0
        assert warm.stats.warm_corruptions == 0

    def test_single_latency_edit_reuses_almost_everything(self, tmp_path):
        report, cold, warm = edit_and_rerun(build_settop_spec(), tmp_path)
        # the edit is local: 2 of the 85 solved verdicts are recomputed,
        # a re-solve speedup of at least 5x
        assert report["invalidated"] == 2
        assert (cold.stats.memo_misses, warm.stats.warm_misses) == (85, 2)
        assert cold.stats.memo_misses >= 5 * warm.stats.warm_misses

    def test_cost_edit_keeps_every_verdict(self, tmp_path):
        spec = build_settop_spec()
        store_path = str(tmp_path / "ws")
        filling, _trace = run(spec, warm_store=store_path)

        unit = sorted(spec.units.names())[0]
        patched = with_unit_costs(spec, {unit: 12345.0})
        report = invalidate(open_store(store_path), spec, patched)
        # costs never enter a verdict, so nothing is dropped ...
        assert report == {
            "kind": "local",
            "invalidated": 0,
            "namespace": report["namespace"],
        }

        _reset_stores()
        cold, cold_trace = run(patched)
        _reset_stores()
        warm, warm_trace = run(patched, warm_store=store_path)
        assert canonical(cold) == canonical(warm)
        assert cold_trace == warm_trace
        # ... and every stored verdict the new trajectory revisits is
        # replayed (the edit reorders the enumeration, so *new*
        # sub-problems may appear — misses, but never stale hits)
        assert warm.stats.warm_hits > 0
        assert filling.stats.warm_writes > 0


class TestRandomCorpus:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_equals_cold(self, seed, tmp_path):
        spec = random_spec(seed)
        store_path = str(tmp_path / "ws")
        cold, cold_trace = run(spec)
        filling, filling_trace = run(spec, warm_store=store_path)
        _reset_stores()
        warm, warm_trace = run(spec, warm_store=store_path)
        assert canonical(cold) == canonical(filling) == canonical(warm)
        assert cold_trace == filling_trace == warm_trace
        assert warm.stats.warm_misses == 0
        if filling.stats.warm_writes:
            assert warm.stats.warm_hits > 0

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_randomized_edit_chain(self, seed, tmp_path):
        """Any chain of patches: warm == cold at every step."""
        rng = random.Random(seed * 7919 + 13)
        spec = random_spec(seed)
        store_path = str(tmp_path / "ws")
        run(spec, warm_store=store_path)
        for _step in range(4):
            document = spec_to_dict(spec)
            choice = rng.random()
            if choice < 0.45 and document["mappings"]:
                mapping = rng.choice(document["mappings"])
                edited = with_latency(
                    spec,
                    {
                        (mapping["process"], mapping["resource"]):
                            mapping["latency"] + rng.choice((1.0, 5.0, 25.0))
                    },
                )
            elif choice < 0.9:
                unit = rng.choice(sorted(spec.units.names()))
                edited = with_unit_costs(
                    spec, {unit: float(rng.randint(1, 400))}
                )
            else:
                # structural: perturb the period attribute
                document["problem"].setdefault("attrs", {})["period"] = (
                    float(rng.choice((137, 731, 1311)))
                )
                edited = spec_from_dict(document)
            invalidate(open_store(store_path), spec, edited)
            _reset_stores()
            cold, cold_trace = run(edited)
            _reset_stores()
            warm, warm_trace = run(edited, warm_store=store_path)
            assert canonical(cold) == canonical(warm), (
                f"seed {seed}: warm diverged after a "
                f"{diff_specs(spec, edited).kind} edit"
            )
            assert cold_trace == warm_trace
            spec = edited


class TestFailureModes:
    def fill(self, tmp_path):
        spec = build_settop_spec()
        store_path = str(tmp_path / "ws")
        run(spec, warm_store=store_path)
        _reset_stores()
        segments = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(store_path)
            for name in names
        ]
        assert segments
        return spec, store_path, segments

    def test_corrupted_segment_degrades_to_cold(self, tmp_path):
        spec, store_path, segments = self.fill(tmp_path)
        for segment in segments:
            data = open(segment, "rb").read()
            with open(segment, "wb") as handle:
                handle.write(data[: len(data) // 2])
                handle.write(b"#### bit rot ####\n")
                handle.write(data[len(data) // 2:])
        cold, cold_trace = run(spec)
        _reset_stores()
        warm, warm_trace = run(spec, warm_store=store_path)
        assert canonical(cold) == canonical(warm)
        assert cold_trace == warm_trace
        store = open_store(store_path)
        assert store.corrupt_entries > 0  # loud, not silent
        assert not store.verify()["ok"]

    def test_malformed_payload_detected_not_trusted(self, tmp_path):
        """CRC-valid records with garbage verdicts: the evaluator's
        payload validation rejects them and recomputes cold."""
        spec, store_path, segments = self.fill(tmp_path)
        for segment in segments:
            lines = open(segment, "rb").read().splitlines()
            with open(segment, "w", encoding="utf-8") as handle:
                for line in lines:
                    rtype, payload = _parse_line(line + b"\n")
                    if rtype == "entry":
                        payload["v"] = {"b": 5, "d": "wrong", "tc": None}
                    handle.write(encode_record(rtype, payload))
        cold, cold_trace = run(spec)
        _reset_stores()
        warm, warm_trace = run(spec, warm_store=store_path)
        assert canonical(cold) == canonical(warm)
        assert cold_trace == warm_trace
        assert warm.stats.warm_corruptions > 0
        assert warm.stats.warm_hits == 0

    def test_malformed_payload_counted_on_every_run(self, tmp_path):
        """A rejected payload is never kept as a decoded verdict, so a
        second run in the same process rejects it (loudly) again."""
        spec, store_path, segments = self.fill(tmp_path)
        for segment in segments:
            lines = open(segment, "rb").read().splitlines()
            with open(segment, "w", encoding="utf-8") as handle:
                for line in lines:
                    rtype, payload = _parse_line(line + b"\n")
                    if rtype == "entry":
                        payload["v"] = {"b": 5, "d": "wrong", "tc": None}
                    handle.write(encode_record(rtype, payload))
        cold, _cold_trace = run(spec)
        first, _trace = run(spec, warm_store=store_path)
        second, _trace = run(spec, warm_store=store_path)
        assert canonical(cold) == canonical(first) == canonical(second)
        assert first.stats.warm_corruptions > 0
        assert second.stats.warm_corruptions == first.stats.warm_corruptions
        assert first.stats.warm_hits == second.stats.warm_hits == 0

    def test_version_skewed_store_starts_cold(self, tmp_path):
        spec, store_path, segments = self.fill(tmp_path)
        for segment in segments:
            lines = open(segment, "rb").read().splitlines()
            rtype, header = _parse_line(lines[0] + b"\n")
            header["version"] += 1
            with open(segment, "w", encoding="utf-8") as handle:
                handle.write(encode_record(rtype, header))
                for line in lines[1:]:
                    handle.write(line.decode("utf-8") + "\n")
        cold, _cold_trace = run(spec)
        _reset_stores()
        warm, _warm_trace = run(spec, warm_store=store_path)
        assert canonical(cold) == canonical(warm)
        assert warm.stats.warm_hits == 0
        assert open_store(store_path).skewed_segments > 0

    def test_unwritable_store_never_fails_the_run(self, tmp_path, monkeypatch):
        spec = build_settop_spec()
        store_path = str(tmp_path / "ws")
        # every segment-open fails, as on a full or read-only disk
        # (chmod is no barrier when the suite runs as root)
        monkeypatch.setattr(
            "repro.store.store._Namespace._open_writer", lambda self: None
        )
        cold, cold_trace = run(spec)
        _reset_stores()
        warm, warm_trace = run(spec, warm_store=store_path)
        assert canonical(cold) == canonical(warm)
        assert cold_trace == warm_trace
        assert open_store(store_path).writes == 0  # nothing durable
        assert warm.stats.warm_writes == 0
        _reset_stores()
        assert open_store(store_path).stats()["entries"] == 0

    def test_invalid_warm_store_value_rejected(self):
        with pytest.raises(ExplorationError):
            explore(build_settop_spec(), warm_store=123)
        with pytest.raises(ExplorationError):
            explore(build_settop_spec(), warm_store="")


class TestIncrementalResolve:
    """INCR beyond set-top's default timing: verdicts a single-latency
    edit leaves to recompute."""

    @pytest.mark.parametrize(
        "build, options, invalidated, solved, recomputed",
        [
            # full-spec-pinned schedule keys: the edit misses everything
            (build_settop_spec, {"timing_mode": "schedule"}, 2, 94, 94),
            (build_tv_decoder_spec, {}, 19, 19, 19),
            (
                lambda: synthetic_spec(
                    n_apps=4, interfaces_per_app=2, alternatives=3,
                    n_procs=2, n_accels=4,
                ),
                {},
                79,
                452,
                79,
            ),
        ],
        ids=["settop_schedule", "tv_decoder", "medium_synthetic"],
    )
    def test_edit_counts(
        self, build, options, invalidated, solved, recomputed, tmp_path
    ):
        report, cold, warm = edit_and_rerun(build(), tmp_path, **options)
        assert report["invalidated"] == invalidated
        assert cold.stats.memo_misses == solved
        assert warm.stats.warm_misses == recomputed


class TestDecodedVerdicts:
    """Each store entry keeps the verdict it decoded first; dropping,
    compacting or reloading the entry must take that verdict along."""

    def test_invalidated_key_misses_and_recomputes(self, tmp_path):
        spec = build_settop_spec()
        store_path = str(tmp_path / "ws")
        cold, cold_trace = run(spec)
        run(spec, warm_store=store_path)
        warm, _trace = run(spec, warm_store=store_path)  # decodes all
        assert warm.stats.warm_misses == 0

        mapping = spec_to_dict(spec)["mappings"][0]
        pair = (mapping["process"], mapping["resource"])
        patched = with_latency(spec, {pair: mapping["latency"] + 1})
        report = invalidate(open_store(store_path), spec, patched)
        assert report["invalidated"] >= 1

        again, again_trace = run(spec, warm_store=store_path)
        assert canonical(again) == canonical(cold)
        assert again_trace == cold_trace
        assert again.stats.warm_misses == report["invalidated"]
        assert again.stats.warm_writes == report["invalidated"]

    def test_gc_and_reload_keep_warm_equal_to_cold(self, tmp_path):
        spec = build_settop_spec()
        store_path = str(tmp_path / "ws")
        cold, cold_trace = run(spec)
        filling, _trace = run(spec, warm_store=store_path)
        run(spec, warm_store=store_path)  # decodes every entry
        open_store(store_path).gc()
        compacted, compacted_trace = run(spec, warm_store=store_path)
        _reset_stores()
        reloaded, reloaded_trace = run(spec, warm_store=store_path)
        for warm, trace in (
            (compacted, compacted_trace),
            (reloaded, reloaded_trace),
        ):
            assert canonical(warm) == canonical(cold)
            assert trace == cold_trace
            assert warm.stats.warm_hits == filling.stats.warm_writes
            assert warm.stats.warm_misses == 0

    def test_mutating_a_result_does_not_reach_the_store(self, tmp_path):
        spec = build_settop_spec()
        store_path = str(tmp_path / "ws")
        cold, _trace = run(spec)
        run(spec, warm_store=store_path)
        earlier, _trace = run(spec, warm_store=store_path)
        for point in earlier.points:
            for record in point.coverage:
                for process in record.binding:
                    record.binding[process] = "tampered"
                record.binding["ghost"] = "tampered"
        later, _trace = run(spec, warm_store=store_path)
        assert later.stats.warm_hits > 0
        assert canonical(later) == canonical(cold)


class TestWiring:
    def test_store_object_accepted(self, tmp_path):
        spec = build_settop_spec()
        store = open_store(str(tmp_path / "ws"))
        filling, _trace = run(spec, warm_store=store)
        assert filling.stats.warm_writes > 0
        assert store.writes == filling.stats.warm_writes

    def test_batched_replay_uses_the_store(self, tmp_path):
        """A budgeted, checkpointed run reads and fills the store."""
        spec = build_settop_spec()
        store_path = str(tmp_path / "ws")
        budgeted = dict(
            max_evaluations=10**9,
            checkpoint=str(tmp_path / "run.ckpt"),
            checkpoint_every=5,
        )
        cold, cold_trace = run(spec, **budgeted)
        filling, _trace = run(spec, warm_store=store_path, **budgeted)
        _reset_stores()
        warm, warm_trace = run(spec, warm_store=store_path, **budgeted)
        assert canonical(cold) == canonical(filling) == canonical(warm)
        assert cold_trace == warm_trace
        assert warm.stats.warm_hits > 0

    def test_checkpoint_resume_records_the_store(self, tmp_path):
        """The store path rides the checkpoint header like the engine:
        a resumed run keeps warming, and the result is
        identical to an uninterrupted cold run."""
        spec = build_settop_spec()
        store_path = str(tmp_path / "ws")
        ckpt = str(tmp_path / "run.ckpt")
        full, _trace = run(spec)

        truncated = explore(
            fresh(spec),
            warm_store=store_path,
            checkpoint=ckpt,
            max_evaluations=3,
        )
        assert not truncated.completed
        _reset_stores()
        resumed = resume_explore(ckpt, max_evaluations=None)
        assert resumed.completed
        # checkpointing legitimately differs only in its own counter
        skip = ("checkpoints_written",)
        assert canonical(full, skip) == canonical(resumed, skip)
        assert resumed.stats.warm_hits + resumed.stats.warm_writes > 0

        # the recorded path is overridable like any execution knob
        _reset_stores()
        other = str(tmp_path / "elsewhere")
        resumed_other = resume_explore(
            ckpt, warm_store=other, max_evaluations=None
        )
        assert canonical(full, skip) == canonical(resumed_other, skip)
        assert os.path.isdir(other)

    def test_result_json_round_trips_cache_section(self, tmp_path):
        spec = build_settop_spec()
        filling, _trace = run(spec, warm_store=str(tmp_path / "ws"))
        document = json.loads(dumps_result(filling))
        assert document["cache"]["warm_writes"] > 0
        restored = loads_result(dumps_result(filling))
        assert restored.stats.cache_dict() == filling.stats.cache_dict()
        assert canonical(restored) == canonical(filling)


class TestService:
    def test_jobs_share_one_store(self, tmp_path):
        spec = build_settop_spec()
        with ExplorationService(
            str(tmp_path), slice_evaluations=16
        ) as service:
            service.submit(fresh(spec), name="first")
            service.run()
            first_hits = service.metrics.get("repro_warm_hits_total").value
            service.submit(fresh(spec), name="second")
            service.run()
            jobs = service.list_jobs()
            assert all(j.state == "completed" for j in jobs)
            hits = service.metrics.get("repro_warm_hits_total").value
            assert hits > first_hits  # the second tenant reuses the first's
            assert os.path.isdir(os.path.join(str(tmp_path), "warmstore"))
            solo = explore(fresh(spec))
            for job in jobs:
                result = service.result(job.job_id)
                assert [
                    (sorted(p.units), p.cost, p.flexibility)
                    for p in result.points
                ] == [
                    (sorted(p.units), p.cost, p.flexibility)
                    for p in solo.points
                ]

    def test_warm_store_disabled(self, tmp_path):
        with ExplorationService(
            str(tmp_path), warm_store=None
        ) as service:
            service.submit(build_settop_spec())
            service.run()
            [job] = service.list_jobs()
            assert job.state == "completed"
            assert not os.path.exists(os.path.join(str(tmp_path), "warmstore"))
            assert service.metrics.get("repro_warm_hits_total").value == 0
