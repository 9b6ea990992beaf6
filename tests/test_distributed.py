"""Differential tests: sharded EXPLORE is exactly the single-host EXPLORE.

The distributed subsystem's deliverable is *exactness*: partition the
possible-allocation space any legal way, explore every shard
independently, replay-merge the journals — and the result (front,
statistics minus wall-clock, progress events, logical trace) is
byte-identical to ``explore(spec, engine="compiled")`` on one host.
These tests prove it over the seeded random-spec corpus plus both case
studies, across 1/2/4/8 shards and both partition strategies, and
verify the degraded paths: a truncated or lost shard yields
``completed=False`` with an optimality gap that ``verify_gap``
accepts against the full run.
"""

import json
import os
import shutil

import pytest

from .randspec import random_spec
from .test_parallel_explore import SEEDS, fingerprint
from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.core import explore
from repro.errors import (
    CheckpointError,
    ExplorationError,
    SerializationError,
)
from repro.io import (
    dump_manifest,
    load_manifest,
    manifest_to_dict,
)
from repro.io.result_io import result_to_dict
from repro.parallel import EvaluationCache, explore_batched
from repro.distributed import (
    SHARD_GAP_REASON,
    Shard,
    ShardRun,
    combine_gaps,
    cost_bands,
    explore_sharded,
    make_partition,
    merge_fronts,
    merge_shard_checkpoints,
    merge_shard_runs,
    owner_index,
    prefix_shards,
    validate_partition,
)
from repro.resilience import load_checkpoint, resume_explore
from repro.resilience.anytime import verify_gap
from repro.trace import Tracer, trace_fingerprint


def result_doc(result):
    """Canonical JSON of a result, minus wall-clock."""
    document = result_to_dict(result)
    document.get("stats", {}).pop("elapsed_seconds", None)
    document.pop("cache", None)
    return json.dumps(document, sort_keys=True)


def run_shards_in_memory(spec, shards, **options):
    """Execute every shard (serial, compiled) into in-memory runs."""
    runs = []
    for shard in shards:
        cache = EvaluationCache()
        explore_batched(
            spec, shard=shard, cache=cache,
            engine="compiled", **options,
        )
        runs.append(ShardRun(shard, cache, None, True))
    return runs


def merged_in_memory(spec, count, strategy, tracer=None, **options):
    shards = make_partition(spec, count, strategy)
    runs = run_shards_in_memory(spec, shards, **options)
    return merge_shard_runs(
        spec, runs, engine="compiled", tracer=tracer, **options
    )


class TestPartition:
    def test_band_partition_tiles_the_cost_axis(self):
        shards = cost_bands(build_settop_spec(), 4)
        assert len(shards) == 4
        assert shards[0].cost_lo == 0.0
        assert shards[-1].cost_hi is None
        for left, right in zip(shards, shards[1:]):
            assert left.cost_hi == right.cost_lo

    def test_prefix_partition_covers_every_pattern(self):
        shards = prefix_shards(build_settop_spec(), 4)
        assert sorted(s.pattern for s in shards) == [0, 1, 2, 3]
        assert len({s.prefix_units for s in shards}) == 1

    def test_every_candidate_has_exactly_one_owner(self):
        """Disjoint + exhaustive, checked against the real enumeration."""
        from repro.core.candidates import AllocationEnumerator
        from repro.core.explorer import prepare_exploration

        spec = build_settop_spec()
        setup = prepare_exploration(
            spec, None, None, max_cost=0.0, weighted=False
        )
        stream = list(AllocationEnumerator(
            spec, setup.extra_names, include_empty=bool(setup.required)
        ))
        for strategy in ("band", "prefix"):
            shards = make_partition(spec, 4, strategy)
            for cost, extras in stream:
                total = cost + setup.required_cost
                owners = [
                    s.index for s in shards if s.accepts(total, extras)
                ]
                assert len(owners) == 1, (strategy, total, extras, owners)
                assert owners[0] == owner_index(shards, total, extras)

    def test_empty_shards_are_legal(self):
        """A band above the dearest allocation matches nothing."""
        spec = build_tv_decoder_spec()
        shards = validate_partition([
            Shard("band", 0, 2, cost_lo=0.0, cost_hi=10**9),
            Shard("band", 1, 2, cost_lo=10**9, cost_hi=None),
        ])
        runs = run_shards_in_memory(spec, shards)
        merged = merge_shard_runs(spec, runs, engine="compiled")
        assert result_doc(merged) == result_doc(
            explore(spec, engine="compiled")
        )

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ExplorationError, match="do not tile"):
            validate_partition([
                Shard("band", 0, 2, cost_lo=0.0, cost_hi=200.0),
                Shard("band", 1, 2, cost_lo=100.0, cost_hi=None),
            ])

    def test_gapped_bands_rejected(self):
        with pytest.raises(ExplorationError, match="do not tile"):
            validate_partition([
                Shard("band", 0, 2, cost_lo=0.0, cost_hi=100.0),
                Shard("band", 1, 2, cost_lo=200.0, cost_hi=None),
            ])

    def test_shard_dict_round_trip(self):
        for shard in make_partition(build_settop_spec(), 4, "prefix"):
            assert Shard.from_dict(shard.to_dict()) == shard

    def test_malformed_shard_dict_rejected(self):
        with pytest.raises(ExplorationError):
            Shard.from_dict({"strategy": "band"})

    def test_prefix_wider_than_free_units_rejected(self):
        spec = random_spec(4)  # one freely allocatable unit
        with pytest.raises(ExplorationError, match="cannot fix"):
            make_partition(spec, 4, "prefix")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ExplorationError, match="unknown shard strategy"):
            make_partition(build_tv_decoder_spec(), 2, "roundrobin")

    def test_max_candidates_incompatible_with_shard(self):
        spec = build_tv_decoder_spec()
        shard = make_partition(spec, 2, "band")[0]
        with pytest.raises(ExplorationError, match="max_candidates"):
            explore_batched(spec, shard=shard, max_candidates=5)


class TestByteIdentity:
    """The headline acceptance: merged == single-host, byte for byte."""

    @pytest.fixture(scope="class")
    def solo_case_studies(self):
        runs = {}
        for name, build in (
            ("settop", build_settop_spec),
            ("tv", build_tv_decoder_spec),
        ):
            tracer = Tracer(level="audit")
            result = explore(build(), engine="compiled", tracer=tracer)
            runs[name] = (
                result_doc(result),
                trace_fingerprint(tracer.all_records()),
            )
        return runs

    @pytest.mark.parametrize("count", [1, 2, 4, 8])
    @pytest.mark.parametrize("strategy", ["band", "prefix"])
    def test_case_studies_all_partitions(
        self, solo_case_studies, count, strategy
    ):
        for name, build in (
            ("settop", build_settop_spec),
            ("tv", build_tv_decoder_spec),
        ):
            spec = build()
            tracer = Tracer(level="audit")
            merged = merged_in_memory(spec, count, strategy, tracer=tracer)
            solo_doc, solo_trace = solo_case_studies[name]
            assert result_doc(merged) == solo_doc, (name, count, strategy)
            assert trace_fingerprint(tracer.all_records()) == solo_trace, (
                f"{name} trace diverged at {count}x{strategy}"
            )

    def test_random_corpus_all_partitions(self):
        """30 seeds x (1,2,4,8) shards x both strategies.

        Prefix partitions wider than a spec's free-unit count are
        impossible and must be rejected loudly — those combos assert
        the loud error instead of silently passing.
        """
        checked = 0
        for seed in SEEDS:
            spec = random_spec(seed)
            solo_tracer = Tracer(level="audit")
            solo = explore(spec, engine="compiled", tracer=solo_tracer)
            solo_doc = result_doc(solo)
            solo_trace = trace_fingerprint(solo_tracer.all_records())
            for count in (1, 2, 4, 8):
                for strategy in ("band", "prefix"):
                    tracer = Tracer(level="audit")
                    try:
                        merged = merged_in_memory(
                            spec, count, strategy, tracer=tracer
                        )
                    except ExplorationError as error:
                        assert "cannot fix" in str(error), (
                            seed, count, strategy, error,
                        )
                        continue
                    checked += 1
                    assert result_doc(merged) == solo_doc, (
                        f"seed {seed} diverged at {count}x{strategy}"
                    )
                    observed = trace_fingerprint(tracer.all_records())
                    assert observed == solo_trace, (
                        f"seed {seed} trace diverged at {count}x{strategy}"
                    )
        assert checked >= 200

    @pytest.mark.parametrize("keep_ties", [False, True])
    def test_option_matrix_survives_sharding(self, keep_ties):
        spec = build_settop_spec()
        options = dict(keep_ties=keep_ties, util_bound=0.5, prune_comm=False)
        solo = explore(spec, engine="compiled", **options)
        merged = merged_in_memory(spec, 4, "band", **options)
        assert result_doc(merged) == result_doc(solo)

    def test_max_cost_survives_sharding(self):
        spec = build_settop_spec()
        solo = explore(spec, engine="compiled", max_cost=300.0)
        merged = merged_in_memory(spec, 4, "band", max_cost=300.0)
        assert result_doc(merged) == result_doc(solo)


class TestCheckpointMerge:
    def run_shards_to_disk(self, spec, shards, tmp_path, **options):
        paths = []
        for shard in shards:
            path = os.path.join(str(tmp_path), f"s{shard.index}.ckpt")
            explore_batched(
                spec, shard=shard, checkpoint=path,
                engine="compiled", **options,
            )
            paths.append(path)
        return paths

    def test_journal_merge_matches_solo(self, tmp_path):
        spec = build_settop_spec()
        shards = make_partition(spec, 4, "band")
        paths = self.run_shards_to_disk(spec, shards, tmp_path)
        merged = merge_shard_checkpoints(paths, engine="compiled")
        assert result_doc(merged) == result_doc(
            explore(spec, engine="compiled")
        )

    def test_truncated_shard_degrades_to_sound_gap(self, tmp_path):
        spec = build_settop_spec()
        solo = explore(spec, engine="compiled")
        shards = make_partition(spec, 4, "band")
        paths = []
        for shard in shards:
            path = os.path.join(str(tmp_path), f"s{shard.index}.ckpt")
            budget = {"max_evaluations": 2} if shard.index == 2 else {}
            explore_batched(
                spec, shard=shard, checkpoint=path, checkpoint_every=1,
                engine="compiled", **budget,
            )
            paths.append(path)
        merged = merge_shard_checkpoints(paths, engine="compiled")
        assert not merged.completed
        assert merged.gap is not None
        assert merged.gap.reason == SHARD_GAP_REASON
        assert verify_gap(merged, solo) == []

    def test_lost_shard_degrades_to_sound_gap(self, tmp_path):
        spec = build_settop_spec()
        solo = explore(spec, engine="compiled")
        shards = make_partition(spec, 4, "band")
        paths = self.run_shards_to_disk(
            spec, [s for s in shards if s.index != 2], tmp_path
        )
        merged = merge_shard_checkpoints(
            paths, lost_shards=[shards[2]], engine="compiled"
        )
        assert not merged.completed
        assert merged.gap is not None
        assert merged.gap.reason == SHARD_GAP_REASON
        assert verify_gap(merged, solo) == []

    def test_every_shard_lost_is_loud(self):
        shards = make_partition(build_tv_decoder_spec(), 2, "band")
        with pytest.raises(CheckpointError, match="lost"):
            merge_shard_checkpoints([], lost_shards=shards)

    def test_foreign_journal_rejected(self, tmp_path):
        """Journals from a different spec cannot be cross-wired in."""
        settop = build_settop_spec()
        tv = build_tv_decoder_spec()
        settop_paths = self.run_shards_to_disk(
            settop, make_partition(settop, 2, "band"), tmp_path
        )
        tv_path = os.path.join(str(tmp_path), "tv.ckpt")
        explore_batched(
            tv, shard=make_partition(tv, 2, "band")[1],
            checkpoint=tv_path, engine="compiled",
        )
        with pytest.raises(CheckpointError, match="different"):
            merge_shard_checkpoints(
                [settop_paths[0], tv_path], engine="compiled"
            )

    def test_parameter_drift_rejected(self, tmp_path):
        """Shards run with different options cannot be merged."""
        spec = build_tv_decoder_spec()
        shards = make_partition(spec, 2, "band")
        a = os.path.join(str(tmp_path), "a.ckpt")
        b = os.path.join(str(tmp_path), "b.ckpt")
        explore_batched(spec, shard=shards[0], checkpoint=a,
                        engine="compiled", util_bound=0.69)
        explore_batched(spec, shard=shards[1], checkpoint=b,
                        engine="compiled", util_bound=0.5)
        with pytest.raises(CheckpointError, match="util_bound"):
            merge_shard_checkpoints([a, b], engine="compiled")

    def test_non_shard_checkpoint_rejected(self, tmp_path):
        spec = build_tv_decoder_spec()
        path = os.path.join(str(tmp_path), "whole.ckpt")
        explore_batched(spec, checkpoint=path, engine="compiled")
        with pytest.raises(CheckpointError, match="not a shard run"):
            merge_shard_checkpoints([path], engine="compiled")


class TestCoordinator:
    @pytest.mark.parametrize("mode", ["inline", "service"])
    @pytest.mark.parametrize("strategy", ["band", "prefix"])
    def test_modes_byte_identical(self, tmp_path, mode, strategy):
        spec = build_settop_spec()
        sharded = explore_sharded(
            spec, shards=4, strategy=strategy, mode=mode,
            workdir=str(tmp_path), engine="compiled",
        )
        assert result_doc(sharded.result) == result_doc(
            explore(spec, engine="compiled")
        )
        assert sharded.result.completed
        assert len(sharded.outcomes) == 4
        assert all(o.completed and not o.lost for o in sharded.outcomes)
        assert os.path.exists(sharded.manifest_path)

    def test_resume_reuses_finished_shards(self, tmp_path):
        spec = build_tv_decoder_spec()
        first = explore_sharded(
            spec, shards=2, mode="inline", workdir=str(tmp_path),
            engine="compiled",
        )
        second = explore_sharded(
            spec, shards=2, mode="inline", workdir=str(tmp_path),
            engine="compiled",
        )
        assert all(o.resumed for o in second.outcomes)
        assert result_doc(second.result) == result_doc(first.result)

    def test_manifest_pins_the_partition(self, tmp_path):
        spec = build_tv_decoder_spec()
        explore_sharded(
            spec, shards=2, mode="inline", workdir=str(tmp_path),
            engine="compiled",
        )
        with pytest.raises(CheckpointError, match="partition"):
            explore_sharded(
                spec, shards=4, mode="inline", workdir=str(tmp_path),
                engine="compiled",
            )

    def test_manifest_pins_the_specification(self, tmp_path):
        explore_sharded(
            build_tv_decoder_spec(), shards=2, mode="inline",
            workdir=str(tmp_path), engine="compiled",
        )
        with pytest.raises(CheckpointError, match="different"):
            explore_sharded(
                build_settop_spec(), shards=2, mode="inline",
                workdir=str(tmp_path), engine="compiled",
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExplorationError, match="dispatch mode"):
            explore_sharded(build_tv_decoder_spec(), mode="carrier-pigeon")

    def test_workers_only_for_remote(self):
        with pytest.raises(ExplorationError, match="remote"):
            explore_sharded(
                build_tv_decoder_spec(), mode="inline",
                workers=["127.0.0.1:1"],
            )

    def test_max_candidates_rejected(self):
        with pytest.raises(ExplorationError, match="max_candidates"):
            explore_sharded(build_tv_decoder_spec(), max_candidates=5)

    def test_service_rejects_option_before_manifest(self, tmp_path):
        """A job cannot carry warm_store: refused before the
        partition is pinned (the inline mode accepts it)."""
        workdir = str(tmp_path / "service")
        store = str(tmp_path / "store")
        with pytest.raises(ExplorationError, match="warm_store") as error:
            explore_sharded(
                build_tv_decoder_spec(), shards=2, mode="service",
                workdir=workdir, warm_store=store,
            )
        assert "service" in str(error.value)
        assert not os.path.exists(os.path.join(workdir, "shards.json"))
        inline = explore_sharded(
            build_tv_decoder_spec(), shards=2, mode="inline",
            workdir=str(tmp_path / "inline"), warm_store=store,
        )
        assert inline.result.completed

    def test_remote_rejects_option_before_connecting(
        self, tmp_path, monkeypatch
    ):
        from repro.distributed import coordinator

        attempts = []

        def refuse(address, *args, **kwargs):
            attempts.append(address)
            raise ConnectionRefusedError(f"nothing listens on {address}")

        monkeypatch.setattr(coordinator, "connect", refuse)
        with pytest.raises(ExplorationError, match="warm_store") as error:
            explore_sharded(
                build_tv_decoder_spec(), shards=2, mode="remote",
                workers=["127.0.0.1:1"], workdir=str(tmp_path),
                retry_delay=0.0, warm_store=str(tmp_path / "store"),
            )
        assert "remote" in str(error.value)
        assert attempts == []
        assert not os.path.exists(os.path.join(str(tmp_path), "shards.json"))


#: Shard journals of the TV decoder (2 band shards, compiled engine,
#: checkpoint_every=4) written by an earlier release: shard 0 ran to
#: completion, shard 1 stopped on ``max_evaluations=3``.
LEGACY_JOURNALS = os.path.join(
    os.path.dirname(__file__), "golden", "journals"
)


def test_legacy_journals_resume_and_merge(tmp_path):
    paths = [
        shutil.copy(os.path.join(LEGACY_JOURNALS, name), str(tmp_path))
        for name in sorted(os.listdir(LEGACY_JOURNALS))
    ]
    assert [load_checkpoint(p).completed for p in paths] == [True, False]
    resumed = resume_explore(paths[1], max_evaluations=None)
    assert resumed.completed
    merged = merge_shard_checkpoints(paths, engine="compiled")
    assert result_doc(merged) == result_doc(
        explore(build_tv_decoder_spec(), engine="compiled")
    )


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        spec = build_settop_spec()
        shards = make_partition(spec, 4, "band")
        path = os.path.join(str(tmp_path), "shards.json")
        dump_manifest(path, manifest_to_dict(spec, shards, {"engine": None}))
        loaded, document = load_manifest(path)
        assert loaded == shards
        assert document["count"] == 4
        assert document["strategy"] == "band"

    def test_malformed_manifest_rejected(self):
        from repro.io import manifest_from_dict

        with pytest.raises(SerializationError, match="not a shard manifest"):
            manifest_from_dict({"format": "something-else"})
        with pytest.raises(SerializationError, match="no shards"):
            manifest_from_dict(
                {"format": "repro/shard-manifest", "version": 1,
                 "shards": []}
            )


class TestServiceShardJobs:
    def test_shard_option_accepted_and_journaled(self, tmp_path):
        from repro.service import ExplorationService

        spec = build_tv_decoder_spec()
        shards = make_partition(spec, 2, "band")
        service = ExplorationService(str(tmp_path), progress_every=None)
        try:
            jobs = [
                service.submit(
                    spec, name=f"s{shard.index}",
                    options={"shard": shard.to_dict(), "engine": "compiled"},
                )
                for shard in shards
            ]
            service.run()
            assert all(service.job(j.job_id).state == "completed"
                       for j in jobs)
        finally:
            service.close()

    def test_shard_with_max_candidates_rejected(self):
        from repro.service import ServiceError, validate_options

        shard = make_partition(build_tv_decoder_spec(), 2, "band")[0]
        with pytest.raises(ServiceError, match="max_candidates"):
            validate_options(
                {"shard": shard.to_dict(), "max_candidates": 3}
            )

    def test_shard_option_must_be_a_descriptor(self):
        from repro.service import ServiceError, validate_options

        with pytest.raises(ServiceError, match="shard"):
            validate_options({"shard": 3})


class TestGapCombination:
    def test_combine_gaps_takes_the_sound_extremes(self):
        from repro.core.result import OptimalityGap

        combined = combine_gaps([
            OptimalityGap(300.0, 6.0, 4.0, "budget"),
            OptimalityGap(250.0, 8.0, 5.0, SHARD_GAP_REASON),
        ])
        assert combined.next_cost_bound == 250.0
        assert combined.flexibility_bound == 8.0
        assert combined.achieved_flexibility == 5.0

    def test_merge_fronts_is_sound_at_point_level(self):
        """The lossy union keeps every nondominated (cost, flex) point."""
        spec = build_settop_spec()
        solo = explore(spec, engine="compiled")
        shards = make_partition(spec, 4, "band")
        partials = []
        for shard in shards:
            cache = EvaluationCache()
            partials.append(explore_batched(
                spec, shard=shard, cache=cache,
                engine="compiled",
            ))
        union = merge_fronts(partials)
        assert {(p.cost, p.flexibility) for p in union.points} >= {
            (p.cost, p.flexibility) for p in solo.points
        }


class TestShardCLI:
    def run_cli(self, argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    @pytest.fixture()
    def settop_json(self, tmp_path):
        path = str(tmp_path / "settop.json")
        code, _ = self.run_cli(["demo", "settop", "--save", path])
        assert code == 0
        return path

    def test_sharded_explore_output_matches_plain(
        self, tmp_path, settop_json
    ):
        code, plain = self.run_cli(["explore", settop_json])
        assert code == 0
        code, sharded = self.run_cli([
            "explore", settop_json, "--shards", "4",
            "--shard-dir", str(tmp_path / "shards"),
        ])
        assert code == 0
        body = "\n".join(
            line for line in sharded.splitlines()
            if not line.startswith("sharded explore:")
        )
        assert body.strip() == plain.strip()

    def test_service_mode_output_matches_plain(
        self, tmp_path, settop_json
    ):
        """The CLI's unset (None) options must not leak into service
        job validation — regression for --shard-mode service."""
        code, plain = self.run_cli(["explore", settop_json])
        assert code == 0
        code, sharded = self.run_cli([
            "explore", settop_json, "--shards", "4",
            "--shard-mode", "service",
            "--shard-dir", str(tmp_path / "shards"),
        ])
        assert code == 0
        body = "\n".join(
            line for line in sharded.splitlines()
            if not line.startswith("sharded explore:")
        )
        assert body.strip() == plain.strip()

    def test_shards_with_checkpoint_rejected(self, settop_json):
        code, _ = self.run_cli([
            "explore", settop_json, "--shards", "2",
            "--checkpoint", "x.ckpt",
        ])
        assert code == 1

    def test_shard_workers_without_shards_rejected(self, settop_json):
        code, _ = self.run_cli([
            "explore", settop_json, "--shard-workers", "h:1",
        ])
        assert code == 1
