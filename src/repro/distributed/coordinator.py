"""The distributed-EXPLORE coordinator: partition, dispatch, merge.

:func:`explore_sharded` is the one-call front door.  It partitions the
possible-allocation space (:mod:`repro.distributed.partition`), writes
a shard manifest pinning the partition to the specification
(:mod:`repro.io.shard_io`), dispatches every shard as an independent
job, and replay-merges the per-shard checkpoint journals into the
single-host result (:mod:`repro.distributed.merge`).  Three dispatch
modes share the same durable substrate — one
``repro/explore-checkpoint`` journal per shard in ``workdir``:

``inline``
    Shards run sequentially in this process via ``explore_batched``.
    The zero-infrastructure mode: same journals, same merge, no
    sockets.  With ``resume=True`` a re-run picks every shard up from
    its newest fsync'd snapshot.

``service``
    Shards are submitted as jobs to a fresh
    :class:`~repro.service.ExplorationService` rooted under
    ``workdir/service`` and run under its stride scheduler with
    checkpoint preemption; the merge reads the per-job journals.

``remote``
    Shards are sent to ``shard-worker`` servers (``workers=`` a list
    of ``host:port`` addresses) over the CRC-framed protocol of
    :mod:`repro.distributed.protocol`.  Connection-level failures
    (dead or restarting worker) are retried with bounded attempts,
    rotating across workers; a restarted worker resumes from its own
    journal, so the retried reply is the journal an uninterrupted run
    would have produced.  A shard whose retries are exhausted is
    declared *lost* and the merge degrades to the exact single-host
    prefix with a provably sound :class:`OptimalityGap` — never a
    silently wrong front.

Whatever the mode, a fully-completed sharded run returns a result
byte-identical (front, statistics except wall-clock, progress events,
logical trace) to ``explore(spec, engine="compiled", ...)`` on one
host — see the soundness argument in :mod:`repro.distributed.merge`.
"""

from __future__ import annotations

import inspect
import logging
import os
import socket
import tempfile
import time
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.explorer import POSITION, SESSION, SHARD, param_names
from ..core.result import ExplorationResult
from ..errors import (
    CheckpointError,
    ExplorationError,
    HangError,
    ProtocolError,
)
from ..io import shard_io
from ..spec import SpecificationGraph
from ..supervision.watchdog import (
    HEARTBEAT_SECONDS_DEFAULT,
    HEARTBEAT_TIMEOUT_DEFAULT,
    Watchdog,
)
from .partition import Shard, make_partition
from .protocol import MessageStream, connect, parse_address

logger = logging.getLogger(__name__)

#: Dispatch modes of :func:`explore_sharded`.
DISPATCH_MODES = ("inline", "service", "remote")

#: Default bounded-retry policy for remote dispatch.
RETRY_ATTEMPTS_DEFAULT = 3
RETRY_DELAY_DEFAULT = 0.5

#: How a failed remote attempt is classified (typed, per attempt, in
#: :attr:`ShardOutcome.failures`): the peer is *hung* (reachable yet
#: silent past the heartbeat timeout), *dead* (the OS says the
#: connection is gone), or spoke garbage (*protocol*).  A *slow* peer —
#: heartbeats keep arriving — is never failed over.
FAILURE_KINDS = ("hung", "dead", "protocol", "refused")

#: The manifest filename inside a coordinator workdir.
MANIFEST_NAME = "shards.json"

def _mode_options(mode: str) -> FrozenSet[str]:
    """The explore options dispatch ``mode`` can carry to its shards.

    The coordinator places and journals the shards itself, so no mode
    takes the enumeration-position, shard-placement or per-session
    parameters.  Inline runs take every other ``explore_batched``
    parameter; service jobs and remote run requests take what their
    request formats accept.
    """
    if mode == "inline":
        from ..parallel.batched import explore_batched

        names = tuple(inspect.signature(explore_batched).parameters)
    elif mode == "service":
        from ..service.job import SUBMIT_OPTIONS

        names = SUBMIT_OPTIONS
    else:
        from .worker import WORKER_RUN_OPTIONS

        names = WORKER_RUN_OPTIONS
    return frozenset(names).difference(
        ("spec",), param_names(POSITION, SHARD, SESSION)
    )


def shard_journal_path(workdir: str, shard: Shard) -> str:
    """The coordinator-side checkpoint journal path of one shard."""
    return os.path.join(workdir, f"shard-{shard.index:03d}.checkpoint")


class ShardOutcome:
    """What happened to one shard during a sharded exploration."""

    __slots__ = (
        "shard", "journal_path", "elapsed_seconds", "attempts",
        "worker", "resumed", "lost", "cursor", "completed",
        "heartbeats", "hangs", "failures", "resources",
    )

    def __init__(self, shard: Shard, journal_path: str) -> None:
        self.shard = shard
        self.journal_path = journal_path
        self.elapsed_seconds = 0.0
        self.attempts = 0
        self.worker: Optional[str] = None
        self.resumed = False
        self.lost = False
        self.cursor: Optional[int] = None
        self.completed = False
        #: Heartbeat frames received across all attempts.
        self.heartbeats = 0
        #: Attempts failed over because the worker went silent (hung).
        self.hangs = 0
        #: One ``{"worker", "kind", "error"}`` record per failed
        #: attempt (``kind`` is one of :data:`FAILURE_KINDS`) — the
        #: typed hung-vs-dead-vs-garbled story of this shard.
        self.failures: List[Dict[str, Any]] = []
        #: Newest worker resource snapshot (RSS/CPU/GC) seen on a
        #: heartbeat or the final reply; ``{}`` from workers predating
        #: the telemetry plane (the key is version-tolerant).
        self.resources: Dict[str, Any] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard.index,
            "strategy": self.shard.strategy,
            "elapsed_seconds": self.elapsed_seconds,
            "attempts": self.attempts,
            "worker": self.worker,
            "resumed": self.resumed,
            "lost": self.lost,
            "cursor": self.cursor,
            "completed": self.completed,
            "heartbeats": self.heartbeats,
            "hangs": self.hangs,
            "failures": list(self.failures),
            "resources": dict(self.resources),
        }


class ShardedExploration:
    """The return value of :func:`explore_sharded`.

    ``result`` is the merged :class:`ExplorationResult`; ``outcomes``
    record the per-shard dispatch story (timing, retries, which worker
    served it, whether it was lost) for the benchmark harness and for
    operators debugging a degraded run.
    """

    __slots__ = (
        "result", "shards", "outcomes", "manifest_path", "workdir",
        "mode", "strategy", "merge_seconds", "elapsed_seconds",
    )

    def __init__(
        self,
        result: ExplorationResult,
        shards: Sequence[Shard],
        outcomes: Sequence[ShardOutcome],
        manifest_path: str,
        workdir: str,
        mode: str,
        merge_seconds: float,
        elapsed_seconds: float,
    ) -> None:
        self.result = result
        self.shards = list(shards)
        self.outcomes = list(outcomes)
        self.manifest_path = manifest_path
        self.workdir = workdir
        self.mode = mode
        self.strategy = self.shards[0].strategy if self.shards else None
        self.merge_seconds = merge_seconds
        self.elapsed_seconds = elapsed_seconds

    @property
    def lost_shards(self) -> List[Shard]:
        return [o.shard for o in self.outcomes if o.lost]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "strategy": self.strategy,
            "shard_count": len(self.shards),
            "merge_seconds": self.merge_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "completed": self.result.completed,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def _prepare_partition(
    spec: SpecificationGraph,
    workdir: str,
    shards: int,
    strategy: str,
    resume: bool,
    options: Dict[str, Any],
) -> Tuple[List[Shard], str]:
    """Build (or reload) the partition and pin it in the manifest.

    A resumed coordinator must replay the *same* partition — shard
    journals are meaningless against any other — so the manifest is
    the source of truth once written.
    """
    from ..io.json_io import spec_to_dict

    manifest_path = os.path.join(workdir, MANIFEST_NAME)
    digest = shard_io.spec_digest(spec_to_dict(spec))
    if resume and os.path.exists(manifest_path):
        loaded, document = shard_io.load_manifest(manifest_path)
        if document.get("spec_digest") != digest:
            raise CheckpointError(
                f"shard manifest {manifest_path!r} pins a different "
                f"specification (digest {document.get('spec_digest')!r}, "
                f"this spec is {digest!r})"
            )
        if document.get("strategy") != strategy or len(loaded) != shards:
            raise CheckpointError(
                f"shard manifest {manifest_path!r} pins "
                f"{document.get('count')}x{document.get('strategy')!r} "
                f"but this run asked for {shards}x{strategy!r}; "
                f"use a fresh workdir to change the partition"
            )
        return loaded, manifest_path
    partition = make_partition(
        spec,
        shards,
        strategy,
        require_units=options.get("require_units"),
        forbid_units=options.get("forbid_units"),
    )
    if not resume:
        # A fresh (non-resuming) run must not merge stale journals.
        for shard in partition:
            stale = shard_journal_path(workdir, shard)
            if os.path.exists(stale):
                os.unlink(stale)
    shard_io.dump_manifest(
        manifest_path, shard_io.manifest_to_dict(spec, partition, options)
    )
    return partition, manifest_path


def _run_inline(
    spec: SpecificationGraph,
    outcomes: Sequence[ShardOutcome],
    resume: bool,
    checkpoint_every: Optional[int],
    options: Dict[str, Any],
) -> None:
    from ..parallel.batched import explore_batched
    from ..resilience.checkpoint import load_checkpoint, resume_explore

    for outcome in outcomes:
        started = time.perf_counter()
        outcome.attempts = 1
        result = None
        if resume and os.path.exists(outcome.journal_path):
            try:
                # This run's anytime budgets apply to the continuation
                # (None lifts a budget journaled by the previous run).
                result = resume_explore(
                    outcome.journal_path,
                    max_evaluations=options.get("max_evaluations"),
                    deadline_seconds=options.get("deadline_seconds"),
                )
                outcome.resumed = True
            except CheckpointError:
                logger.warning(
                    "coordinator: journal %s unusable, rerunning shard %d",
                    outcome.journal_path, outcome.shard.index,
                )
        if result is None:
            explore_batched(
                spec,
                shard=outcome.shard,
                checkpoint=outcome.journal_path,
                checkpoint_every=checkpoint_every,
                **options,
            )
        loaded = load_checkpoint(outcome.journal_path)
        outcome.cursor = loaded.cursor
        outcome.completed = loaded.completed
        outcome.worker = "inline"
        outcome.elapsed_seconds = time.perf_counter() - started


def _run_service(
    spec: SpecificationGraph,
    workdir: str,
    outcomes: Sequence[ShardOutcome],
    checkpoint_every: Optional[int],
    options: Dict[str, Any],
) -> None:
    """Dispatch shards as jobs of a workdir-local exploration service.

    Each shard becomes one job; the stride scheduler interleaves them
    in checkpointed slices (exercising shard preemption), and the
    per-job journals are linked back to the coordinator's canonical
    ``shard-NNN.checkpoint`` names for the merge.
    """
    from ..io import job_io
    from ..resilience.checkpoint import load_checkpoint
    from ..service import ExplorationService

    service_dir = os.path.join(workdir, "service")
    # Unset (None) options are dropped — the service validates job
    # options strictly, and a real value it cannot carry (e.g. a
    # per-shard deadline) must still be rejected loudly.
    job_options = {
        key: value for key, value in options.items() if value is not None
    }
    kwargs: Dict[str, Any] = {"progress_every": None}
    if checkpoint_every is not None:
        kwargs["checkpoint_every"] = checkpoint_every
    service = ExplorationService(service_dir, **kwargs)
    try:
        jobs = []
        for outcome in outcomes:
            submitted = dict(job_options)
            submitted["shard"] = outcome.shard.to_dict()
            job = service.submit(
                spec,
                name=f"shard-{outcome.shard.index:03d}",
                options=submitted,
            )
            jobs.append(job)
        service.run()
        for outcome, job in zip(outcomes, jobs):
            outcome.attempts = 1
            outcome.worker = f"service:{job.job_id}"
            if job.state != "completed":
                raise ExplorationError(
                    f"shard {outcome.shard.index} job {job.job_id!r} "
                    f"ended in state {job.state!r}"
                )
            source = job_io.checkpoint_path(service_dir, job.job_id)
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
            with open(outcome.journal_path, "w", encoding="utf-8") as handle:
                handle.write(text)
            loaded = load_checkpoint(outcome.journal_path)
            outcome.cursor = loaded.cursor
            outcome.completed = loaded.completed
            # Accumulated slice runtime under the stride scheduler.
            outcome.elapsed_seconds = service._runtime.get(job.job_id, 0.0)
    finally:
        service.close()


def _remote_request(
    address: Tuple[str, int],
    job: str,
    spec_doc: Dict[str, Any],
    outcome: ShardOutcome,
    checkpoint_every: Optional[int],
    options: Dict[str, Any],
    timeout: Optional[float],
    heartbeat_seconds: Optional[float] = None,
    heartbeat_timeout: float = HEARTBEAT_TIMEOUT_DEFAULT,
    telemetry=None,
) -> Dict[str, Any]:
    """One run round-trip to one worker (raises on any failure).

    With heartbeats enabled (``heartbeat_seconds``), the reply phase is
    a receive *loop* bounded per frame by ``heartbeat_timeout`` — the
    coordinator never blocks indefinitely on a single end-of-run
    receive.  ``heartbeat`` frames re-arm the watchdog (a beating
    worker is *slow*, never failed over, however long the run takes);
    silence past the timeout raises a typed
    :class:`~repro.errors.HangError` (*hung*), while a dropped
    connection stays a :class:`ConnectionError` (*dead*) — both feed
    the caller's retry/failover path, distinguishably.
    """
    key = f"{address[0]}:{address[1]}"
    stream: MessageStream = connect(address, timeout=timeout)
    try:
        run_payload = {
            "job": job,
            "spec": spec_doc,
            "shard": outcome.shard.to_dict(),
            "options": options,
            "checkpoint_every": checkpoint_every,
        }
        if heartbeat_seconds:
            run_payload["heartbeat_seconds"] = heartbeat_seconds
        stream.send("run", run_payload)
        if heartbeat_seconds:
            watchdog = Watchdog(timeout_seconds=heartbeat_timeout)
            watchdog.arm(key)
            stream.settimeout(heartbeat_timeout)
            while True:
                try:
                    message_type, payload = stream.receive()
                except socket.timeout:
                    raise HangError(
                        f"worker {key} went silent on shard "
                        f"{outcome.shard.index}: no frame for "
                        f"{heartbeat_timeout:g}s after "
                        f"{watchdog.beats(key)} heartbeat(s) "
                        f"(last: {watchdog.info(key) or 'none'})"
                    ) from None
                if message_type != "heartbeat":
                    break
                beat = payload if isinstance(payload, dict) else {}
                watchdog.beat(
                    key,
                    cursor=beat.get("cursor"),
                    evaluations=beat.get("evaluations"),
                )
                outcome.heartbeats += 1
                resources = beat.get("resources")
                if isinstance(resources, dict):
                    # Additive telemetry key — absent from old workers.
                    outcome.resources = resources
                if telemetry is not None:
                    telemetry.record_beat(outcome.shard.index, beat)
        else:
            message_type, payload = stream.receive()
    finally:
        stream.close()
    if message_type == "error":
        kind = payload.get("kind") if isinstance(payload, dict) else None
        message = payload.get("message") if isinstance(payload, dict) else None
        # The worker ran and refused: a typed, permanent failure —
        # retrying would refuse identically, so surface it now.
        raise ExplorationError(
            f"worker {address[0]}:{address[1]} failed shard "
            f"{outcome.shard.index}: {kind}: {message}"
        )
    if message_type != "result" or not isinstance(payload, dict):
        raise ProtocolError(
            f"expected result from worker, got {message_type!r}"
        )
    return payload


def _classify_failure(error: BaseException) -> str:
    """Which :data:`FAILURE_KINDS` a failed remote attempt is."""
    if isinstance(error, (HangError, socket.timeout)):
        return "hung"
    if isinstance(error, ProtocolError):
        return "protocol"
    return "dead"


def _pick_address(
    addresses: Sequence[Tuple[str, int]],
    base: int,
    breakers,
) -> Tuple[str, int]:
    """The rotation address, skipped past open circuit breakers.

    Starting at ``base`` (the deterministic shard/attempt rotation),
    return the first address whose breaker admits work.  When *every*
    breaker is open, fall back to the rotation address anyway — losing
    a shard because all peers recently failed is strictly worse than
    probing one of them early.
    """
    for offset in range(len(addresses)):
        address = addresses[(base + offset) % len(addresses)]
        if breakers is None or breakers.allow(
            f"{address[0]}:{address[1]}"
        ):
            return address
    return addresses[base % len(addresses)]


def _run_remote(
    spec: SpecificationGraph,
    outcomes: Sequence[ShardOutcome],
    workers: Sequence[Union[str, Tuple[str, int]]],
    checkpoint_every: Optional[int],
    options: Dict[str, Any],
    retry_attempts: int,
    retry_delay: float,
    timeout: Optional[float],
    heartbeat_seconds: Optional[float] = None,
    heartbeat_timeout: float = HEARTBEAT_TIMEOUT_DEFAULT,
    breakers=None,
    telemetry=None,
) -> None:
    from ..io.json_io import spec_to_dict
    from ..resilience.checkpoint import load_checkpoint

    if not workers:
        raise ExplorationError("remote dispatch needs at least one worker")
    addresses = [
        parse_address(w) if isinstance(w, str) else (str(w[0]), int(w[1]))
        for w in workers
    ]
    spec_doc = spec_to_dict(spec)
    # Job ids are namespaced by the spec digest: worker directories
    # outlive any one exploration, and a bare ``shard-NNN`` id would
    # let a worker resume the journal of a *previous, different* run.
    digest = shard_io.spec_digest(spec_doc)
    run_options = {
        key: value for key, value in options.items() if value is not None
    }
    for outcome in outcomes:
        started = time.perf_counter()
        job = f"{digest}-shard-{outcome.shard.index:03d}"
        reply = None
        for attempt in range(retry_attempts):
            # Rotate across workers (skipping open breakers): a dead
            # or hung host's shards fail over to its peers (which
            # start the shard fresh — equally sound, the journal is
            # complete either way).
            address = _pick_address(
                addresses, outcome.shard.index + attempt, breakers
            )
            key = f"{address[0]}:{address[1]}"
            outcome.attempts = attempt + 1
            try:
                reply = _remote_request(
                    address, job, spec_doc, outcome,
                    checkpoint_every, run_options, timeout,
                    heartbeat_seconds=heartbeat_seconds,
                    heartbeat_timeout=heartbeat_timeout,
                    telemetry=telemetry,
                )
                outcome.worker = key
                if breakers is not None:
                    breakers.record_success(key)
                break
            except (HangError, ProtocolError, ConnectionError,
                    OSError) as error:
                # The worker died, went silent, or spoke garbage.  Its
                # journal survives, so the retry resumes rather than
                # repeats.  The kind is recorded — hung-vs-dead-vs-
                # garbled matter to operators and to the breakers.
                kind = _classify_failure(error)
                if kind == "hung":
                    outcome.hangs += 1
                outcome.failures.append({
                    "worker": key, "kind": kind, "error": str(error),
                })
                if breakers is not None:
                    breakers.record_failure(key)
                logger.warning(
                    "coordinator: shard %d attempt %d via %s "
                    "failed (%s): %s",
                    outcome.shard.index, attempt + 1, key, kind, error,
                )
                if attempt + 1 < retry_attempts:
                    time.sleep(retry_delay)
        if reply is None:
            # Retries exhausted: the shard is lost.  The merge will
            # degrade to a sound gap instead of a wrong front.
            outcome.lost = True
            logger.error(
                "coordinator: shard %d lost after %d attempts",
                outcome.shard.index, outcome.attempts,
            )
        else:
            with open(outcome.journal_path, "w", encoding="utf-8") as handle:
                handle.write(reply["journal"])
            # Trust but verify: the returned journal must journal THIS
            # spec and shard — a confused worker must fail loudly here,
            # not produce a plausible merge of someone else's run.
            loaded = load_checkpoint(outcome.journal_path)
            if shard_io.spec_digest(spec_to_dict(loaded.spec)) != digest:
                raise ExplorationError(
                    f"worker {outcome.worker} returned a journal for a "
                    f"different specification (job {job!r})"
                )
            if loaded.params.get("shard") != outcome.shard.to_dict():
                raise ExplorationError(
                    f"worker {outcome.worker} returned a journal for a "
                    f"different shard (job {job!r})"
                )
            outcome.cursor = reply.get("cursor")
            outcome.completed = bool(reply.get("completed"))
            outcome.resumed = bool(reply.get("resumed"))
            resources = reply.get("resources")
            if isinstance(resources, dict):
                outcome.resources = resources
        outcome.elapsed_seconds = time.perf_counter() - started
        if telemetry is not None:
            telemetry.record_outcome(outcome)


def explore_sharded(
    spec: SpecificationGraph,
    shards: int = 4,
    strategy: str = "band",
    mode: str = "inline",
    workers: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
    workdir: Optional[str] = None,
    resume: bool = True,
    checkpoint_every: Optional[int] = None,
    retry_attempts: int = RETRY_ATTEMPTS_DEFAULT,
    retry_delay: float = RETRY_DELAY_DEFAULT,
    timeout: Optional[float] = None,
    heartbeat_seconds: Optional[float] = HEARTBEAT_SECONDS_DEFAULT,
    heartbeat_timeout: float = HEARTBEAT_TIMEOUT_DEFAULT,
    breakers=None,
    progress=None,
    progress_every: Optional[int] = None,
    tracer=None,
    telemetry=None,
    **options: Any,
) -> ShardedExploration:
    """Distributed EXPLORE: partition, dispatch, replay-merge.

    Parameters
    ----------
    shards, strategy:
        Partition geometry — ``strategy`` is ``"band"`` (total-cost
        intervals) or ``"prefix"`` (allocation-bit patterns over the
        most balanced BDD variables); see
        :func:`repro.distributed.make_partition`.
    mode, workers:
        Dispatch mode (``"inline"``, ``"service"`` or ``"remote"``);
        ``workers`` lists ``host:port`` shard-worker addresses and is
        required (only) for remote dispatch.
    workdir, resume:
        Durable state root: the shard manifest plus one checkpoint
        journal per shard.  With ``resume=True`` (default) an
        interrupted coordinator re-run reuses the pinned partition and
        every finished or partial journal; ``resume=False`` starts
        clean.  Defaults to a fresh temporary directory.
    retry_attempts, retry_delay, timeout:
        Remote fault policy — bounded per-shard retries rotating over
        the worker list, then the shard is declared lost and the merge
        returns the sound degraded result (``completed=False`` plus an
        :class:`OptimalityGap` accepted by ``verify_gap``).
    heartbeat_seconds, heartbeat_timeout, breakers:
        The remote supervision plane (:mod:`repro.supervision`).
        Workers stream ``heartbeat`` frames every ``heartbeat_seconds``
        while a shard runs; a worker silent past ``heartbeat_timeout``
        is declared *hung* (typed in ``outcome.failures``) and failed
        over — a beating worker is merely *slow* and never preempted.
        ``heartbeat_seconds=None`` disables beats (legacy single
        end-of-run receive, bounded only by ``timeout``).  ``breakers``
        is an optional
        :class:`~repro.supervision.BreakerRegistry`; by default a
        fresh one supervises this run, so a repeatedly failing worker
        address stops receiving shards until its cool-down probe
        succeeds — pass a shared registry to carry breaker state (and
        its metrics export) across runs.
    progress, progress_every, tracer:
        Observability of the *merged* (global) exploration, identical
        in meaning to the ``explore()`` parameters.
    telemetry:
        An optional :class:`repro.telemetry.FleetTelemetry`: every
        worker heartbeat and every finished shard outcome is folded in
        as it arrives, so ``telemetry.registry`` exports live
        ``repro_shard_<n>_*`` and ``repro_fleet_*`` metrics (worker
        RSS/CPU snapshots ride the heartbeat frames — old workers
        interoperate, their beats just carry no resources).  Strictly
        wall-clock-side: the merged result is byte-identical with or
        without it.
    options:
        Explore options (``util_bound``, ``max_cost``, ``backend``,
        ``engine``, ``keep_ties``, ...), applied uniformly to every
        shard.  Inline takes every ``explore_batched`` option; service
        takes what a job may set (``SUBMIT_OPTIONS``) and remote what a
        run request may carry (``WORKER_RUN_OPTIONS``).  No mode takes
        ``max_candidates`` (it counts enumeration positions, which
        differ per shard), ``shard`` or the per-session seams.  A
        rejected option raises :class:`~repro.errors.ExplorationError`
        before anything is written or sent.
    """
    from .merge import merge_shard_checkpoints

    if mode not in DISPATCH_MODES:
        raise ExplorationError(
            f"unknown dispatch mode {mode!r}; expected one of "
            f"{DISPATCH_MODES}"
        )
    if mode != "remote" and workers:
        raise ExplorationError(
            f"workers= is only meaningful with mode='remote', "
            f"got mode={mode!r}"
        )
    if options.get("max_candidates") is not None:
        raise ExplorationError(
            "max_candidates is incompatible with sharding: it counts "
            "enumeration positions, which differ per shard"
        )
    options.pop("max_candidates", None)
    # Checked before the manifest is written or any host is contacted;
    # an option left at None is unset, and every mode accepts that.
    accepted = _mode_options(mode)
    rejected = sorted(
        name for name, value in options.items()
        if value is not None and name not in accepted
    )
    if rejected:
        raise ExplorationError(
            f"mode={mode!r} cannot carry explore option(s) "
            f"{rejected!r}; it accepts {sorted(accepted)}"
        )
    started = time.perf_counter()
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-shards-")
    else:
        os.makedirs(workdir, exist_ok=True)
    partition, manifest_path = _prepare_partition(
        spec, workdir, shards, strategy, resume, options
    )
    outcomes = [
        ShardOutcome(shard, shard_journal_path(workdir, shard))
        for shard in partition
    ]
    if mode == "inline":
        _run_inline(spec, outcomes, resume, checkpoint_every, options)
    elif mode == "service":
        _run_service(spec, workdir, outcomes, checkpoint_every, options)
    else:
        if breakers is None:
            from ..supervision.breaker import BreakerRegistry

            # With fleet telemetry attached, breaker gauges join the
            # same unified registry (one /metrics-style export).
            breakers = BreakerRegistry(
                metrics=telemetry.registry
                if telemetry is not None
                else None
            )
        _run_remote(
            spec, outcomes, workers or (), checkpoint_every, options,
            retry_attempts, retry_delay, timeout,
            heartbeat_seconds=heartbeat_seconds,
            heartbeat_timeout=heartbeat_timeout,
            breakers=breakers,
            telemetry=telemetry,
        )
    if telemetry is not None and mode != "remote":
        # Inline/service dispatch produces no heartbeats; the outcomes
        # still feed the fleet view.
        for outcome in outcomes:
            telemetry.record_outcome(outcome)
    merge_started = time.perf_counter()
    merged = merge_shard_checkpoints(
        [o.journal_path for o in outcomes if not o.lost],
        lost_shards=[o.shard for o in outcomes if o.lost],
        progress=progress,
        progress_every=progress_every,
        tracer=tracer,
        engine=options.get("engine"),
    )
    finished = time.perf_counter()
    return ShardedExploration(
        merged,
        partition,
        outcomes,
        manifest_path,
        workdir,
        mode,
        merge_seconds=finished - merge_started,
        elapsed_seconds=finished - started,
    )
