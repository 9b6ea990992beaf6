"""The telemetry plane: registry, sampler, profiler, top, CLI.

Covers the unified metric namespace (collectors, grammar validation,
snapshot algebra), the process resource sampler, the phase profiler on
the tracer seam, the warm-store bridge, the ``repro top`` renderer, and
the new CLI surfaces — including the satellite requirement that the
merged export of *every* metric surface stays inside the Prometheus
grammar with no name collisions.
"""

import io
import json

import pytest

from repro.casestudies import build_settop_spec
from repro.cli import main as cli_main
from repro.core import explore
from repro.io import job_io
from repro.service import ExplorationService, MetricError
from repro.store import open_store
from repro.telemetry import (
    PHASE_BUCKETS,
    MetricRegistry,
    PhaseProfiler,
    ResourceSampler,
    Telemetry,
    diff_snapshots,
    export_store_metrics,
    format_top,
    registry_from_snapshot,
    run_top,
    store_collector,
    top_snapshot,
)
from repro.telemetry.registry import COLLECTOR_ERRORS_METRIC

from .test_service_metrics import validate_prometheus_text


class TestMetricRegistry:
    def test_collectors_run_on_export(self):
        registry = MetricRegistry()
        calls = []

        def collect(reg):
            calls.append(1)
            reg.gauge("repro_fresh", "").set(42.0)

        registry.register_collector(collect)
        assert registry.as_dict()["repro_fresh"]["value"] == 42.0
        registry.to_prometheus()
        assert len(calls) == 2

    def test_collector_registration_idempotent(self):
        registry = MetricRegistry()
        calls = []

        def collect(reg):
            calls.append(1)

        registry.register_collector(collect)
        registry.register_collector(collect)
        registry.as_dict()
        assert len(calls) == 1

    def test_failing_collector_is_counted_not_fatal(self):
        registry = MetricRegistry()

        def boom(reg):
            raise RuntimeError("collector bug")

        registry.register_collector(boom)
        registry.counter("repro_ok_total", "").inc()
        document = registry.as_dict()
        assert document["repro_ok_total"]["value"] == 1
        assert document[COLLECTOR_ERRORS_METRIC]["value"] == 1

    def test_validate_flags_histogram_suffix_collision(self):
        registry = MetricRegistry()
        registry.histogram("repro_x_seconds", "", (1.0,))
        registry.gauge("repro_x_seconds_bucket", "")
        problems = registry.validate()
        assert any("collides" in p for p in problems)
        with pytest.raises(MetricError):
            registry.validate(strict=True)

    def test_validate_clean_registry(self):
        registry = MetricRegistry()
        registry.counter("repro_a_total", "").inc()
        registry.histogram("repro_b_seconds", "", (0.1, 1.0)).observe(0.5)
        assert registry.validate(strict=True) == []


class TestSnapshots:
    def _populated(self):
        registry = MetricRegistry()
        registry.counter("repro_c_total", "count help").inc(7)
        registry.gauge("repro_g", "gauge help").set(-2.5)
        histogram = registry.histogram(
            "repro_h_seconds", "hist help", (0.001, 0.1, 1.0)
        )
        for value in (0.0005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        return registry

    def test_round_trip_identity(self):
        document = self._populated().as_dict()
        assert registry_from_snapshot(document).as_dict() == document

    def test_round_trip_survives_json_key_sorting(self):
        # json.dump(sort_keys=True) orders histogram bucket keys
        # lexically ("0.001" < "1e-05" is false numerically); the
        # loader must re-sort numerically.
        registry = MetricRegistry()
        registry.histogram(
            "repro_p_seconds", "", PHASE_BUCKETS
        ).observe(0.0001)
        document = json.loads(
            json.dumps(registry.as_dict(), sort_keys=True)
        )
        loaded = registry_from_snapshot(document)
        assert loaded.as_dict() == document
        validate_prometheus_text(loaded.to_prometheus())

    def test_diff_snapshots(self):
        registry = self._populated()
        before = registry.as_dict()
        registry.counter("repro_c_total").inc(3)
        registry.histogram("repro_h_seconds").observe(0.2)
        registry.counter("repro_new_total", "").inc()
        after = registry.as_dict()
        delta = diff_snapshots(before, after)
        assert delta["repro_c_total"]["delta"] == 3
        assert delta["repro_c_total"]["change"] == "changed"
        assert delta["repro_new_total"]["change"] == "added"
        assert delta["repro_h_seconds"]["after"]["count"] == 5
        assert "repro_g" not in delta  # unchanged
        assert diff_snapshots(after, after) == {}

    def test_diff_reports_removed(self):
        delta = diff_snapshots(
            {"repro_old": {"kind": "gauge", "value": 1}}, {}
        )
        assert delta["repro_old"]["change"] == "removed"


class TestResourceSampler:
    def test_snapshot_shape(self):
        snap = ResourceSampler().snapshot()
        for key in (
            "rss_max_bytes", "cpu_user_seconds", "cpu_system_seconds",
            "uptime_seconds", "gc_collections", "gc_objects",
        ):
            assert key in snap
        assert snap["rss_max_bytes"] > 0
        assert snap["cpu_user_seconds"] >= 0

    def test_uptime_uses_injected_clock(self):
        ticks = iter((100.0, 107.5))
        sampler = ResourceSampler(clock=lambda: next(ticks))
        assert sampler.snapshot()["uptime_seconds"] == 7.5

    def test_export_mirrors_gauges_and_sample_counter(self):
        registry = MetricRegistry()
        sampler = ResourceSampler()
        sampler.export(registry)
        sampler.export(registry)
        document = registry.as_dict()
        assert document["repro_process_rss_max_bytes"]["value"] > 0
        assert document["repro_process_samples_total"]["value"] == 2
        validate_prometheus_text(registry.to_prometheus())


class TestPhaseProfiler:
    def test_charge_and_totals(self):
        profiler = PhaseProfiler()
        profiler.charge("evaluate", 0.002)
        profiler.charge("evaluate", 0.3)
        profiler.charge("binding", 0.00005)
        assert profiler.totals() == {
            "binding": {"calls": 1, "seconds": 0.00005},
            "evaluate": {"calls": 2, "seconds": pytest.approx(0.302)},
        }

    def test_timed_charges_even_on_raise(self):
        profiler = PhaseProfiler(clock=iter((0.0, 1.5)).__next__)
        with pytest.raises(ValueError):
            profiler.timed("boom", lambda: (_ for _ in ()).throw(
                ValueError("x")
            ))
        assert profiler.totals()["boom"]["seconds"] == 1.5

    def test_export_histograms(self):
        profiler = PhaseProfiler()
        profiler.charge("evaluate", 0.002)
        profiler.charge("evaluate", 0.3)
        profiler.charge("evaluate", 120.0)  # beyond the last bound
        registry = MetricRegistry()
        profiler.export(registry)
        entry = registry.as_dict()["repro_phase_evaluate_seconds"]
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(120.302)
        validate_prometheus_text(registry.to_prometheus())

    def test_phase_names_sanitised(self):
        profiler = PhaseProfiler()
        profiler.charge("weird phase/name", 0.1)
        registry = MetricRegistry()
        profiler.export(registry)
        assert "repro_phase_weird_phase_name_seconds" in registry.as_dict()

    def test_profiler_satisfies_telemetry_seam(self):
        profiler = PhaseProfiler()
        assert profiler.profiler is profiler
        assert Telemetry().profiler.profiler is not None


class TestStoreBridge:
    def test_export_after_warm_runs(self, tmp_path):
        spec = build_settop_spec()
        store_dir = str(tmp_path / "store")
        explore(spec, warm_store=store_dir)
        explore(spec, warm_store=store_dir)
        store = open_store(store_dir)
        registry = MetricRegistry()
        export_store_metrics(store, registry)
        document = registry.as_dict()
        # In-process reruns are absorbed by the evaluator's verdict
        # memo, so the store's lifetime signal here is misses+writes.
        assert document["repro_store_misses_total"]["value"] > 0
        assert document["repro_store_writes_total"]["value"] > 0
        assert document["repro_store_bytes"]["value"] > 0
        assert document["repro_store_evicted_total"]["value"] == 0
        validate_prometheus_text(registry.to_prometheus())

    def test_evicted_counter_reaches_export(self, tmp_path):
        spec = build_settop_spec()
        store_dir = str(tmp_path / "store")
        explore(spec, warm_store=store_dir)
        store = open_store(store_dir)
        report = store.gc(max_bytes=0)
        assert report["evicted"]
        registry = MetricRegistry()
        export_store_metrics(store, registry)
        assert registry.as_dict()["repro_store_evicted_total"][
            "value"
        ] == len(report["evicted"])

    def test_collector_refreshes_on_every_export(self, tmp_path):
        spec = build_settop_spec()
        store_dir = str(tmp_path / "store")
        explore(spec, warm_store=store_dir)
        store = open_store(store_dir)
        registry = MetricRegistry()
        registry.register_collector(store_collector(store))
        first = registry.as_dict()["repro_store_misses_total"]["value"]
        store.binding("ffffffff").get("no-such-key")
        second = registry.as_dict()["repro_store_misses_total"]["value"]
        assert second == first + 1


def _service_run(directory, specs=None):
    service = ExplorationService(str(directory), slice_evaluations=200)
    try:
        for spec in specs or (build_settop_spec(),):
            service.submit(spec)
        service.run()
    finally:
        service.close()
    return service


class TestTop:
    def test_snapshot_and_render(self, tmp_path):
        _service_run(tmp_path)
        snapshot = top_snapshot(str(tmp_path))
        assert snapshot["states"] == {"completed": 1}
        (row,) = snapshot["jobs"]
        assert row["state"] == "completed"
        assert row["evaluations"] > 0
        assert snapshot["metrics"]["repro_slices_total"] >= 1
        screen = format_top(snapshot)
        assert "JOB" in screen and row["job"] in screen
        assert "completed" in screen

    def test_empty_directory_is_tolerated(self, tmp_path):
        snapshot = top_snapshot(str(tmp_path))
        assert snapshot["jobs"] == []
        assert "(no jobs)" in format_top(snapshot)

    def test_run_top_iterations_and_json(self, tmp_path):
        _service_run(tmp_path)
        out = io.StringIO()
        naps = []
        shown = run_top(
            str(tmp_path), out, refresh=0.5, iterations=3,
            sleep=naps.append,
        )
        assert shown == 3
        assert naps == [0.5, 0.5]
        out = io.StringIO()
        run_top(str(tmp_path), out, iterations=1, as_json=True)
        snapshot = json.loads(out.getvalue())
        assert snapshot["states"] == {"completed": 1}


class TestServiceUnifiedRegistry:
    def test_merged_namespace_is_collision_free(self, tmp_path):
        """Satellite (a): service + store + process + phase
        metrics merge into one registry that survives strict grammar
        and collision validation, and the exposition parses."""
        service = _service_run(tmp_path)
        document = service.metrics.as_dict()
        # All three historic surfaces plus the new ones, one namespace:
        assert "repro_jobs_completed_total" in document
        assert "repro_phase_binding_seconds" in document
        assert "repro_warm_hits_total" in document
        assert "repro_store_hits_total" in document
        assert "repro_process_rss_max_bytes" in document
        assert service.metrics.validate(strict=True) == []
        series, typed = validate_prometheus_text(
            service.metrics.to_prometheus()
        )
        assert "repro_store_hits_total" in typed

    def test_metrics_json_snapshot_loadable(self, tmp_path):
        _service_run(tmp_path)
        with open(job_io.metrics_json_path(str(tmp_path))) as handle:
            document = json.load(handle)
        loaded = registry_from_snapshot(document)
        assert loaded.as_dict() == document


class TestCli:
    def _svc(self, tmp_path):
        directory = tmp_path / "svc"
        _service_run(directory)
        return str(directory)

    def test_cache_stats_prometheus(self, tmp_path):
        spec = build_settop_spec()
        store_dir = str(tmp_path / "store")
        explore(spec, warm_store=store_dir)
        out = io.StringIO()
        assert cli_main(
            ["cache", "stats", store_dir, "--format", "prometheus"],
            out=out,
        ) == 0
        series, typed = validate_prometheus_text(out.getvalue())
        assert typed["repro_store_misses_total"] == "counter"
        assert typed["repro_store_bytes"] == "gauge"
        # --json keeps working unchanged.
        out = io.StringIO()
        assert cli_main(
            ["cache", "stats", store_dir, "--json"], out=out
        ) == 0
        assert "entries" in json.loads(out.getvalue())

    def test_telemetry_dump_and_diff(self, tmp_path):
        directory = self._svc(tmp_path)
        out = io.StringIO()
        assert cli_main(["telemetry", "dump", directory], out=out) == 0
        dumped = json.loads(out.getvalue())
        with open(job_io.metrics_json_path(directory)) as handle:
            assert dumped == json.load(handle)
        out = io.StringIO()
        assert cli_main(
            ["telemetry", "dump", directory, "--format", "prometheus"],
            out=out,
        ) == 0
        validate_prometheus_text(out.getvalue())
        out = io.StringIO()
        assert cli_main(
            ["telemetry", "diff", directory, directory], out=out
        ) == 0
        assert json.loads(out.getvalue()) == {}

    def test_telemetry_arity_and_missing_path(self, tmp_path):
        directory = self._svc(tmp_path)
        assert cli_main(
            ["telemetry", "diff", directory], out=io.StringIO()
        ) == 1
        assert cli_main(
            ["telemetry", "dump", str(tmp_path / "nope")],
            out=io.StringIO(),
        ) == 1

    def test_top_once(self, tmp_path):
        directory = self._svc(tmp_path)
        out = io.StringIO()
        assert cli_main(["top", directory, "--once"], out=out) == 0
        assert "repro top" in out.getvalue()
        assert "completed" in out.getvalue()
        out = io.StringIO()
        assert cli_main(
            ["top", directory, "--once", "--json"], out=out
        ) == 0
        assert json.loads(out.getvalue())["states"] == {"completed": 1}
        assert cli_main(
            ["top", str(tmp_path / "nope")], out=io.StringIO()
        ) == 1
