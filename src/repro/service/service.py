"""The in-process exploration service: many jobs, time-sliced.

An :class:`ExplorationService` owns a service directory (the durable
job ledger and per-job checkpoints — see :mod:`repro.io.job_io`), a
deterministic :class:`~repro.service.scheduler.StrideScheduler`, an
:class:`~repro.service.events.EventBus` and a
:class:`~repro.service.metrics.MetricsRegistry`, and multiplexes any
number of named exploration jobs over them by time-slicing:

* :meth:`submit` journals a job (spec + explore options + priority)
  and makes it runnable;
* :meth:`step` runs exactly one scheduling decision — pick the
  smallest-pass job, run one slice of its exploration bounded by
  ``slice_evaluations`` full candidate evaluations, then either
  complete the job or *preempt* it by letting the PR-2 checkpoint
  machinery journal its state (the next slice resumes
  fingerprint-identically via
  :func:`repro.resilience.resume_explore`);
* :meth:`run` steps until the queue drains (ingesting spooled
  ``repro submit`` files between steps).

Because a slice is "resume from the journal, stop on a cumulative
evaluation budget", preemption needs no cooperation from the explore
loop and a ``kill -9`` between (or during) slices is indistinguishable
from a preemption: a restarted service re-reads its ledger, re-queues
every non-terminal job and resumes each from its checkpoint — the
differential tests assert the resulting fronts are identical to solo
uninterrupted ``explore()`` runs.

Determinism: every scheduling input (aging, wait times, slice
accounting) reads the injectable service clock; under a
:class:`~repro.service.clock.ManualClock` the full schedule is a pure
function of the job mix, asserted literally in the tests.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from typing import Any, Dict, List, Optional

from ..core.explorer import explore
from ..core.result import ExplorationResult
from ..errors import CheckpointError, HangError, OverloadedError, ReproError
from ..io import job_io
from ..io.json_io import spec_from_dict, spec_to_dict
from ..io.result_io import dump_result, load_result
from ..resilience.checkpoint import resume_explore
from ..resilience.journal import JournalWriter, read_journal
from ..spec import SpecificationGraph
from ..supervision.admission import AdmissionController
from ..supervision.watchdog import run_bounded
from .clock import ManualClock, MonotonicClock, ServiceClock
from .events import EventBus, Subscription
from ..trace import Tracer, bridge_trace_metrics, write_trace
from .job import Job, ServiceError, validate_options
from .scheduler import StrideScheduler

logger = logging.getLogger(__name__)

#: Default slice budget: full candidate evaluations per scheduling
#: decision.  Small enough to interleave many jobs responsively, large
#: enough to amortise the checkpoint fsync.
SLICE_EVALUATIONS_DEFAULT = 32

#: Default cadence (enumerated candidates) of per-job ``progress`` events.
PROGRESS_EVERY_DEFAULT = 64


class ExplorationService:
    """Schedules many named EXPLORE jobs by time-slicing them."""

    def __init__(
        self,
        directory: str,
        slice_evaluations: int = SLICE_EVALUATIONS_DEFAULT,
        progress_every: Optional[int] = PROGRESS_EVERY_DEFAULT,
        clock: Optional[ServiceClock] = None,
        aging_rate: float = 0.0,
        max_queued: Optional[int] = None,
        overload_policy: str = "reject",
        slice_timeout: Optional[float] = None,
        warm_store: Optional[str] = "auto",
    ) -> None:
        if slice_evaluations < 1:
            raise ServiceError(
                f"slice_evaluations must be a positive integer, "
                f"got {slice_evaluations!r}"
            )
        if slice_timeout is not None and slice_timeout <= 0:
            raise ServiceError(
                f"slice_timeout must be > 0 seconds (or None for "
                f"unsupervised slices), got {slice_timeout!r}"
            )
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        os.makedirs(job_io.events_dir(directory), exist_ok=True)
        #: Warm-start store shared by every job on this host
        #: (:mod:`repro.store`): ``"auto"`` (default) places it at
        #: ``<directory>/warmstore``, any other string is used as the
        #: store directory, ``None`` disables persistence.  Jobs on the
        #: same specification structure share one content-addressed
        #: namespace, so tenant A's completed exploration warms tenant
        #: B's — with byte-identical results either way.
        self.warm_store: Optional[str] = (
            os.path.join(directory, "warmstore")
            if warm_store == "auto"
            else warm_store
        )
        self.slice_evaluations = slice_evaluations
        self.progress_every = progress_every
        #: Admission control: the runnable queue is bounded at
        #: ``max_queued`` with an explicit overload policy ("reject"
        #: raises :class:`~repro.errors.OverloadedError`; "shed"
        #: cancels the lowest-priority queued job with a journaled
        #: ``shed`` event).  ``None`` keeps the historical unbounded
        #: queue.
        self.admission = AdmissionController(max_queued, overload_policy)
        #: Wall-clock watchdog budget per slice (``None`` = off): a
        #: slice that exceeds it is preempted with a typed
        #: :class:`~repro.errors.HangError` and the job quarantined
        #: (failed, checkpoint kept) instead of wedging the scheduler.
        self.slice_timeout = slice_timeout
        self.clock: ServiceClock = clock if clock is not None else MonotonicClock()
        self.bus = EventBus()
        # The unified telemetry plane (imported lazily: repro.telemetry
        # builds on repro.service.metrics, so a module-level import
        # here would be circular).  ``self.metrics`` keeps its historic
        # name/API; it is now a collector-refreshing MetricRegistry
        # carrying the service instruments, trace bridge, process
        # resources, phase histograms and — when a warm store is
        # configured — the store's lifetime counters.
        from ..telemetry import MetricRegistry, Telemetry

        self.telemetry = Telemetry(registry=MetricRegistry())
        self.metrics = self.telemetry.registry
        self.scheduler = StrideScheduler(self.clock, aging_rate)
        self.jobs: Dict[str, Job] = {}
        self._seq = 0
        self._event_files: Dict[str, Any] = {}
        self._stats_seen: Dict[str, Dict[str, float]] = {}
        self._tracers: Dict[str, Tracer] = {}
        self._design_space: Dict[str, int] = {}
        self._runtime: Dict[str, float] = {}
        self._slice_started: Dict[str, float] = {}
        self._instruments()
        if self.warm_store:
            from ..store import open_store
            from ..telemetry import store_collector

            # ``open_store`` interns per absolute path, so this is the
            # same object the compiled evaluators attach to — its
            # lifetime counters are the true totals behind the
            # per-slice delta counters (``repro_warm_*_total``).
            self.metrics.register_collector(
                store_collector(open_store(self.warm_store))
            )
        ledger = job_io.ledger_path(directory)
        if os.path.exists(ledger):
            recovered = job_io.read_job_ledger(ledger)
            # A kill mid-append can leave a torn final line; chop it so
            # new records start on a clean boundary.
            _, valid_length = read_journal(ledger)
            self._ledger = JournalWriter(ledger, truncate_to=valid_length)
        else:
            recovered = {}
            self._ledger = JournalWriter(ledger, fresh=True)
            self._ledger.append("header", job_io.ledger_header(), sync=True)
        self._recover(recovered)

    # --- metrics instruments -------------------------------------------

    def _instruments(self) -> None:
        m = self.metrics
        self.m_submitted = m.counter(
            "repro_jobs_submitted_total", "Jobs accepted by the service"
        )
        self.m_completed = m.counter(
            "repro_jobs_completed_total", "Jobs finished successfully"
        )
        self.m_failed = m.counter(
            "repro_jobs_failed_total", "Jobs ended by an error"
        )
        self.m_cancelled = m.counter(
            "repro_jobs_cancelled_total", "Jobs cancelled before completion"
        )
        self.m_recovered = m.counter(
            "repro_jobs_recovered_total",
            "Live jobs re-queued from the ledger after a restart",
        )
        self.m_rejected = m.counter(
            "repro_jobs_rejected_total",
            "Submissions refused because the admission queue was full",
        )
        self.m_shed = m.counter(
            "repro_jobs_shed_total",
            "Queued jobs shed (cancelled) to admit higher-priority work",
        )
        self.m_hangs = m.counter(
            "repro_hangs_total",
            "Slices preempted by the watchdog (job quarantined)",
        )
        self.m_queue_depth = m.gauge(
            "repro_queue_depth", "Runnable jobs in the scheduler"
        )
        self.m_running = m.gauge(
            "repro_jobs_running", "Jobs currently running a slice (0/1)"
        )
        self.m_slices = m.counter(
            "repro_slices_total", "Scheduling slices executed"
        )
        self.m_preemptions = m.counter(
            "repro_preemptions_total",
            "Slices ended by checkpoint-preemption (job re-queued)",
        )
        self.m_evaluations = m.counter(
            "repro_evaluations_total",
            "Full candidate evaluations performed across all jobs",
        )
        self.m_checkpoints = m.counter(
            "repro_checkpoints_total", "Checkpoint records journaled"
        )
        self.m_wait = m.histogram(
            "repro_wait_seconds",
            "Queue wait time between slices of a job",
        )
        self.m_slice_time = m.histogram(
            "repro_slice_seconds", "Wall-clock duration of one slice"
        )
        self.m_eval_rate = m.gauge(
            "repro_evaluations_per_second",
            "Evaluation throughput of the most recent slice",
        )
        self.m_warm_hits = m.counter(
            "repro_warm_hits_total",
            "Binding verdicts replayed from the warm-start store",
        )
        self.m_warm_misses = m.counter(
            "repro_warm_misses_total",
            "Warm-store lookups that fell through to a cold solve",
        )
        self.m_warm_corruptions = m.counter(
            "repro_warm_corruptions_total",
            "Warm-store entries rejected as corrupt (re-solved cold)",
        )

    # --- durable records and events ------------------------------------

    def _journal_state(self, job: Job, sync: bool = False, **fields) -> None:
        payload = job_io.state_payload(
            job.job_id, job.state, **{**job.counters(), **fields}
        )
        self._ledger.append("state", payload, sync=sync)

    def _emit(self, job_id: str, kind: str, **fields: Any) -> None:
        event = {"kind": kind, "job": job_id, "t": self.clock.now()}
        job = self.jobs.get(job_id)
        if job is not None:
            event["trace"] = job.trace_id
        event.update(fields)
        self.bus.publish(event)
        handle = self._event_files.get(job_id)
        if handle is None:
            handle = open(
                job_io.events_path(self.directory, job_id),
                "a",
                encoding="utf-8",
            )
            self._event_files[job_id] = handle
        handle.write(json.dumps(event, sort_keys=True) + "\n")
        handle.flush()

    # --- submission and recovery ---------------------------------------

    def _next_job_id(self) -> str:
        job_id = f"j{self._seq:04d}"
        self._seq += 1
        return job_id

    def submit(
        self,
        spec: SpecificationGraph,
        name: Optional[str] = None,
        priority: float = 1.0,
        options: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Accept a job: journal it durably and make it runnable.

        Submissions pass admission control first: when the runnable
        queue holds ``max_queued`` jobs, the overload policy either
        refuses this submission (:class:`~repro.errors.OverloadedError`,
        CLI exit code 4) or sheds the lowest-priority queued job to
        make room.  Either way overload is loud — typed errors,
        ``shed`` events, and the ``repro_jobs_rejected_total`` /
        ``repro_jobs_shed_total`` counters.
        """
        if priority <= 0:
            raise ServiceError(f"priority must be > 0, got {priority!r}")
        options = validate_options(options)
        queued = [
            (
                job_id,
                self.jobs[job_id].priority,
                self.jobs[job_id].submitted_at,
            )
            for job_id in self.scheduler.job_ids()
        ]
        try:
            decision = self.admission.admit(queued, priority)
        except OverloadedError:
            self.m_rejected.inc()
            raise
        if decision.victim is not None:
            self._shed(decision.victim, priority)
        job_id = self._next_job_id()
        job = Job(
            job_id,
            name or spec.name,
            spec,
            options,
            priority,
            self.clock.now(),
        )
        self._ledger.append(
            "job",
            job_io.job_payload(
                job_id,
                job.name,
                priority,
                spec_to_dict(spec),
                options,
                job.submitted_at,
            ),
            sync=True,
        )
        self.jobs[job_id] = job
        self.scheduler.add(job_id, priority)
        self.m_submitted.inc()
        self.m_queue_depth.set(len(self.scheduler))
        logger.info(
            "job %s (%s) submitted: priority=%g trace=%s",
            job_id,
            job.name,
            priority,
            options.get("trace", "off"),
        )
        self._emit(
            job_id,
            "submitted",
            name=job.name,
            priority=priority,
            spec=spec.name,
        )
        return job

    def ingest_spool(self) -> List[Job]:
        """Adopt every spooled ``repro submit`` file into the ledger."""
        adopted = []
        for path, document in job_io.read_submissions(self.directory):
            spec = spec_from_dict(document["spec"])
            job = self.submit(
                spec,
                name=document.get("name"),
                priority=float(document.get("priority", 1.0)),
                options=document.get("options"),
            )
            adopted.append(job)
            os.unlink(path)
        return adopted

    def _recover(self, entries: Dict[str, job_io.JobLedgerEntry]) -> None:
        """Rebuild jobs from the ledger; re-queue every live one."""
        for entry in entries.values():
            spec = spec_from_dict(entry.spec_document)
            try:
                options, invalid = validate_options(entry.options), None
            except ServiceError as error:
                # Journaled with an option this release no longer has:
                # the job cannot run as submitted, so it fails (typed).
                options, invalid = {}, error
            job = Job(
                entry.job_id,
                entry.name,
                spec,
                options,
                entry.priority,
                entry.submitted_at,
            )
            job.state = entry.state
            job.slices = int(entry.fields.get("slices", 0))
            job.preemptions = int(entry.fields.get("preemptions", 0))
            job.evaluations = int(entry.fields.get("evaluations", 0))
            job.candidates = int(entry.fields.get("candidates", 0))
            job.error = entry.fields.get("error")
            self.jobs[entry.job_id] = job
            match = re.fullmatch(r"j(\d+)", entry.job_id)
            if match:
                self._seq = max(self._seq, int(match.group(1)) + 1)
            if job.state in job_io.LIVE_STATES:
                # A job caught mid-run by the crash is simply queued
                # again; its checkpoint journal carries the exploration
                # state and the next slice resumes it.
                job.state = "queued"
                job.recovered = True
                self.scheduler.add(entry.job_id, entry.priority)
                if invalid is not None:
                    self._finish_failed(job, invalid)
                    continue
                logger.info(
                    "job %s (%s) recovered from the ledger: "
                    "%d slice(s), %d evaluation(s)",
                    entry.job_id,
                    job.name,
                    job.slices,
                    job.evaluations,
                )
                self.m_recovered.inc()
                self._emit(
                    entry.job_id,
                    "recovered",
                    name=job.name,
                    slices=job.slices,
                    evaluations=job.evaluations,
                )
        self.m_queue_depth.set(len(self.scheduler))

    # --- queries --------------------------------------------------------

    def job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job {job_id!r}") from None

    def list_jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        return [self.jobs[k] for k in sorted(self.jobs)]

    def subscribe(
        self, job_id: Optional[str] = None, kinds=None
    ) -> Subscription:
        """Stream service events (optionally one job's / some kinds)."""
        return self.bus.subscribe(job_id=job_id, kinds=kinds)

    def result(self, job_id: str) -> ExplorationResult:
        """A completed job's result (reloaded from disk after a
        restart)."""
        job = self.job(job_id)
        if job.result is None and job.state == "completed":
            job.result = load_result(
                job_io.result_path(self.directory, job_id)
            )
        if job.result is None:
            raise ServiceError(
                f"job {job_id!r} has no result (state {job.state!r})"
            )
        return job.result

    def _shed(self, job_id: str, admitted_priority: float) -> None:
        """Shed one queued job to make room for a higher-priority one.

        The victim ends ``cancelled`` with a journaled ``shed`` event;
        its checkpoint journal stays on disk, so resubmitting the same
        specification resumes where the shed job left off.
        """
        job = self.job(job_id)
        job.transition("cancelled")
        job.finished_at = self.clock.now()
        if job_id in self.scheduler:
            self.scheduler.remove(job_id)
        self._journal_state(job, sync=True, reason="shed")
        self.m_shed.inc()
        self.m_queue_depth.set(len(self.scheduler))
        logger.warning(
            "job %s (%s) shed: queue full, displaced by a "
            "priority-%g submission",
            job_id, job.name, admitted_priority,
        )
        self._emit(
            job_id,
            "shed",
            priority=job.priority,
            displaced_by_priority=admitted_priority,
        )

    def cancel(self, job_id: str) -> None:
        """Cancel a queued job (its checkpoint remains on disk)."""
        job = self.job(job_id)
        if job.terminal:
            raise ServiceError(f"job {job_id!r} is already {job.state}")
        job.transition("cancelled")
        job.finished_at = self.clock.now()
        if job_id in self.scheduler:
            self.scheduler.remove(job_id)
        self._journal_state(job, sync=True)
        self.m_cancelled.inc()
        self.m_queue_depth.set(len(self.scheduler))
        self._emit(job_id, "cancelled")

    # --- the scheduling step -------------------------------------------

    def _progress_forwarder(self, job: Job):
        """Adapt explore-progress events into job events + metrics."""

        def forward(event: Dict[str, Any]) -> None:
            kind = event.get("kind")
            if kind == "explore_start":
                self._design_space[job.job_id] = event["design_space_size"]
            elif kind == "incumbent":
                self._emit(
                    job.job_id,
                    "incumbent",
                    cost=event["cost"],
                    flexibility=event["flexibility"],
                    units=event["units"],
                    candidates=event["candidates"],
                    evaluations=event["evaluations"],
                )
            elif kind == "progress":
                fields = {
                    "candidates": event["candidates"],
                    "evaluations": event["evaluations"],
                    "feasible": event["feasible"],
                    "flexibility": event["flexibility"],
                }
                fields["eta_seconds"] = self._eta(
                    job.job_id, event["candidates"]
                )
                self._emit(job.job_id, "progress", **fields)

        return forward

    def _eta(self, job_id: str, candidates: int) -> Optional[float]:
        """Crude remaining-time estimate from enumeration progress."""
        total = self._design_space.get(job_id)
        elapsed = self._runtime.get(job_id, 0.0)
        slice_started = self._slice_started.get(job_id)
        if slice_started is not None:
            elapsed += time.perf_counter() - slice_started
        if not total or not candidates or elapsed <= 0.0:
            return None
        rate = candidates / elapsed
        return round((total - candidates) / rate, 6)

    def _tracer_for(self, job: Job) -> Optional[Tracer]:
        """The job's per-service-lifetime tracer (``None`` untraced).

        ``record_truncation`` is off so preemptions leave no logical
        mark: a job sliced N times accumulates exactly the records of
        one uninterrupted run.
        """
        level = job.options.get("trace")
        if level is None:
            return None
        tracer = self._tracers.get(job.job_id)
        if tracer is None:
            tracer = Tracer(
                level=level, clock=self.clock, trace_id=job.trace_id
            )
            tracer.record_truncation = False
            self._tracers[job.job_id] = tracer
        return tracer

    def _run_slice(self, job: Job, budget: int) -> ExplorationResult:
        """One checkpointed slice of a job, bounded by ``budget``
        cumulative evaluations."""
        checkpoint = job_io.checkpoint_path(self.directory, job.job_id)
        forward = self._progress_forwarder(job)
        tracer = self._tracer_for(job)
        if os.path.exists(checkpoint):
            try:
                return resume_explore(
                    checkpoint,
                    progress=forward,
                    progress_every=self.progress_every,
                    max_evaluations=budget,
                    tracer=tracer,
                    telemetry=self.telemetry,
                    # The store is host configuration: the service's
                    # setting overrides the journaled
                    # path (results are store-independent).
                    warm_store=self.warm_store,
                )
            except CheckpointError:
                # Torn beyond use (e.g. killed before the header hit
                # the disk): start over — the fresh run rewrites it.
                pass
        options = {k: v for k, v in job.options.items() if k != "trace"}
        return explore(
            job.spec,
            checkpoint=checkpoint,
            max_evaluations=budget,
            progress=forward,
            progress_every=self.progress_every,
            tracer=tracer,
            telemetry=self.telemetry,
            warm_store=self.warm_store,
            **options,
        )

    def step(self) -> Optional[str]:
        """Run one scheduling decision; returns the job id, or ``None``
        when the queue is idle."""
        job_id = self.scheduler.pick()
        if job_id is None:
            return None
        job = self.jobs[job_id]
        now = self.clock.now()
        wait = max(0.0, now - self.scheduler.waiting_since(job_id))
        self.m_wait.observe(wait)
        first_slice = job.slices == 0 and not job.recovered
        if job.state == "queued":
            job.transition("running")
            if first_slice:
                job.started_at = now
                self._journal_state(job)
        self.m_running.set(1)
        self._emit(
            job_id,
            "slice_start",
            slice=job.slices + 1,
            wait_seconds=round(wait, 9),
            budget=self.slice_evaluations,
        )
        started = time.perf_counter()
        self._slice_started[job_id] = started
        budget = job.evaluations + self.slice_evaluations
        try:
            result = run_bounded(
                lambda: self._run_slice(job, budget),
                self.slice_timeout,
                name=f"job {job_id} slice {job.slices + 1}",
            )
        except HangError as error:
            # A wedged evaluation: the watchdog preempted the slice
            # (typed, loud) and the job is quarantined — its checkpoint
            # survives for a resubmission to resume from.
            self.m_hangs.inc()
            self._emit(
                job_id,
                "hung",
                slice=job.slices + 1,
                timeout_seconds=self.slice_timeout,
                error=str(error),
            )
            self._finish_failed(job, error)
            return job_id
        except ReproError as error:
            self._finish_failed(job, error)
            return job_id
        finally:
            elapsed = time.perf_counter() - started
            self._slice_started.pop(job_id, None)
            self._runtime[job_id] = self._runtime.get(job_id, 0.0) + elapsed
            self.m_running.set(0)
            self.m_slices.inc()
            self.m_slice_time.observe(elapsed)
            self.clock.advance(1.0)  # one virtual slice on manual clocks
        self._charge_stats(job, result, elapsed)
        tracer = self._tracers.get(job_id)
        if tracer is not None:
            # Rewrite after every slice so the on-disk trace always
            # reflects the job's cumulative logical history.
            write_trace(
                tracer, job_io.trace_path(self.directory, job_id)
            )
        job.slices += 1
        self.scheduler.charge(job_id)
        if result.completed:
            self._finish_completed(job, result)
        else:
            job.preemptions += 1
            self.m_preemptions.inc()
            job.state = "queued"
            # Journal the counters so a restart budgets resumed slices
            # correctly (the checkpoint holds the exploration state).
            self._journal_state(job)
            self._emit(
                job_id,
                "preempted",
                evaluations=job.evaluations,
                candidates=job.candidates,
                reason=result.gap.reason if result.gap else None,
                flexibility=(
                    result.gap.achieved_flexibility if result.gap else 0.0
                ),
            )
        return job_id

    def _charge_stats(
        self, job: Job, result: ExplorationResult, elapsed: float
    ) -> None:
        """Move per-job stat deltas into the service-wide metrics."""
        stats = result.stats.as_dict()
        seen = self._stats_seen.setdefault(job.job_id, {})

        def delta(name: str) -> float:
            fresh = float(stats.get(name, 0.0)) - seen.get(name, 0.0)
            seen[name] = float(stats.get(name, 0.0))
            return max(0.0, fresh)

        evaluations = delta("estimate_exceeded")
        self.m_evaluations.inc(evaluations)
        self.m_checkpoints.inc(delta("checkpoints_written"))
        # Cache counters are per-slice deltas already (they are not
        # journaled across preemptions), so they are charged directly.
        cache = result.stats.cache_dict()
        self.m_warm_hits.inc(cache["warm_hits"])
        self.m_warm_misses.inc(cache["warm_misses"])
        self.m_warm_corruptions.inc(cache["warm_corruptions"])
        if elapsed > 0:
            self.m_eval_rate.set(evaluations / elapsed)
        job.evaluations = int(stats.get("estimate_exceeded", 0))
        job.candidates = int(stats.get("candidates_enumerated", 0))
        job.checkpoints = int(stats.get("checkpoints_written", 0))

    def _finish_completed(
        self, job: Job, result: ExplorationResult
    ) -> None:
        job.transition("completed")
        job.result = result
        job.finished_at = self.clock.now()
        dump_result(
            result, job_io.result_path(self.directory, job.job_id)
        )
        self._journal_state(
            job,
            sync=True,
            front=[[p.cost, p.flexibility] for p in result.points],
        )
        self.scheduler.remove(job.job_id)
        self.m_completed.inc()
        self.m_queue_depth.set(len(self.scheduler))
        tracer = self._tracers.get(job.job_id)
        if tracer is not None:
            bridge_trace_metrics(tracer, self.metrics)
        logger.info(
            "job %s (%s) completed: %d point(s), %d evaluation(s), "
            "%d slice(s)",
            job.job_id,
            job.name,
            len(result.points),
            job.evaluations,
            job.slices,
        )
        self._emit(
            job.job_id,
            "completed",
            front=[[p.cost, p.flexibility] for p in result.points],
            evaluations=job.evaluations,
            slices=job.slices,
            preemptions=job.preemptions,
        )

    def _finish_failed(self, job: Job, error: BaseException) -> None:
        job.transition("failed")
        job.error = repr(error)
        job.finished_at = self.clock.now()
        self._journal_state(job, sync=True, error=job.error)
        logger.warning(
            "job %s (%s) failed: %s", job.job_id, job.name, job.error
        )
        self.scheduler.remove(job.job_id)
        self.m_failed.inc()
        self.m_queue_depth.set(len(self.scheduler))
        self._emit(job.job_id, "failed", error=job.error)

    # --- the service loop ----------------------------------------------

    def run(
        self,
        max_slices: Optional[int] = None,
        poll_seconds: float = 0.0,
    ) -> int:
        """Step until the queue drains; returns the slice count.

        ``max_slices`` bounds the work (the kill-and-restart tests use
        it to stop mid-run); ``poll_seconds > 0`` keeps the service
        alive that much longer when idle, re-scanning the spool for
        late submissions before giving up.
        """
        executed = 0
        while max_slices is None or executed < max_slices:
            self.ingest_spool()
            if self.step() is None:
                if poll_seconds > 0:
                    time.sleep(poll_seconds)
                    if self.ingest_spool():
                        continue
                break
            executed += 1
        self.export_metrics()
        return executed

    # --- exports and shutdown ------------------------------------------

    def export_metrics(self) -> None:
        """Write the JSON and Prometheus metric snapshots into the
        service directory."""
        with open(
            job_io.metrics_json_path(self.directory), "w", encoding="utf-8"
        ) as handle:
            json.dump(self.metrics.as_dict(), handle, indent=2, sort_keys=True)
        with open(
            job_io.metrics_prometheus_path(self.directory),
            "w",
            encoding="utf-8",
        ) as handle:
            handle.write(self.metrics.to_prometheus())

    def close(self) -> None:
        """Shut down: export metrics, close the ledger, event files
        and bus.  Idempotent."""
        try:
            self.export_metrics()
        except OSError:  # pragma: no cover - directory vanished
            pass
        self._ledger.close()
        for handle in self._event_files.values():
            handle.close()
        self._event_files.clear()
        self.bus.close()

    def __enter__(self) -> "ExplorationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "ExplorationService",
    "ManualClock",
    "PROGRESS_EVERY_DEFAULT",
    "SLICE_EVALUATIONS_DEFAULT",
]
