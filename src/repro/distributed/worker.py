"""The shard-worker server: one host's share of a distributed EXPLORE.

A worker owns a directory of per-job checkpoint journals and serves
``run`` requests over the CRC-framed protocol of
:mod:`repro.distributed.protocol`.  Each request names a job id, ships
the full specification document, a shard descriptor and the explore
options; the worker runs ``explore_batched(shard=...)`` journaling
into ``<directory>/<job>.checkpoint`` and replies with the result
document *and* the verbatim journal text.  Everything durable lives in
the journal, so a worker killed mid-run (``kill -9``) loses nothing
the protocol cannot recover: re-sending the same ``run`` request to a
restarted worker resumes from the newest fsync'd snapshot
(:func:`repro.resilience.resume_explore`) and returns the same journal
an uninterrupted worker would have produced.

Malformed frames never kill the server: the offending connection gets
a best-effort ``error`` reply and is closed, the listener keeps
serving (the defect is still loud — typed, logged, and visible to the
client as a :class:`~repro.errors.ProtocolError`).
"""

from __future__ import annotations

import logging
import os
import re
import socket
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.explorer import param_names
from ..errors import CheckpointError, ProtocolError, ReproError
from .protocol import (
    MessageStream,
    check_hello,
    hello_payload,
)

logger = logging.getLogger(__name__)

#: Progress-event cadence (enumerated candidates) feeding the heartbeat
#: sender.  Deliberately fine-grained — the sender rate-limits by wall
#: clock, so a finer cadence costs a dict lookup, not wire traffic.
HEARTBEAT_PROGRESS_EVERY = 64

#: Options a run request may carry (the result-affecting explore
#: parameters plus per-run geometry and budgets, and the service-style
#: ``trace`` level; unknown keys are rejected loudly).
WORKER_RUN_OPTIONS = param_names(tag="run") + ("trace",)

_JOB_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def checkpoint_path(directory: str, job: str) -> str:
    """The worker-side journal path of a job (id validated: a job id
    is a filename component, never a path)."""
    if not _JOB_ID.match(job):
        raise ProtocolError(f"invalid job id {job!r}")
    return os.path.join(directory, f"{job}.checkpoint")


def _journal_mismatch(path: str, spec, shard) -> Optional[str]:
    """Why an existing journal does NOT belong to this run (or None).

    A worker directory outlives any one exploration, so a journal found
    under the requested job id may be a leftover from a different spec
    or partition.  Resuming it would be silently wrong; the caller
    starts fresh instead.  An unreadable journal returns None — the
    resume path's own validation handles (and logs) that case.
    """
    from ..io.json_io import spec_to_dict
    from ..io.shard_io import spec_digest
    from ..resilience.checkpoint import load_checkpoint

    try:
        loaded = load_checkpoint(path)
    except CheckpointError:
        return None
    if spec_digest(spec_to_dict(loaded.spec)) != \
            spec_digest(spec_to_dict(spec)):
        return "journals a different specification"
    if loaded.params.get("shard") != shard.to_dict():
        return "journals a different shard"
    return None


def run_request(
    directory: str,
    payload: Any,
    heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Execute one validated ``run`` request; returns the reply payload.

    ``heartbeat`` (when given) is called with ``{"cursor": ...,
    "evaluations": ...}`` at every progress event of the underlying
    exploration — the liveness seam :func:`_serve_connection` wires to
    ``heartbeat`` wire frames.  Heartbeats prove *progress*, not mere
    process liveness: an evaluation wedged inside one candidate stops
    the beats, which is exactly what the coordinator's watchdog is
    there to catch.
    """
    from ..io.json_io import spec_from_dict
    from ..io.result_io import result_to_dict
    from ..parallel.batched import explore_batched
    from ..resilience.checkpoint import load_checkpoint, resume_explore
    from ..trace import Tracer
    from .partition import Shard

    if not isinstance(payload, dict):
        raise ProtocolError("run payload is not an object")
    try:
        job = payload["job"]
        spec_doc = payload["spec"]
        shard_doc = payload["shard"]
    except KeyError as error:
        raise ProtocolError(f"run payload lacks {error.args[0]!r}") from None
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise ProtocolError("run options must be an object")
    unknown = set(options) - set(WORKER_RUN_OPTIONS)
    if unknown:
        raise ProtocolError(
            f"unknown run option(s) {sorted(unknown)!r}; "
            f"a run may set {WORKER_RUN_OPTIONS}"
        )
    options = dict(options)
    trace_level = options.pop("trace", None)
    path = checkpoint_path(directory, str(job))
    spec = spec_from_dict(spec_doc)
    shard = Shard.from_dict(shard_doc)
    tracer = None
    if trace_level is not None:
        # Shard-tagged spans: the worker's own observability channel
        # (the merged trace is reconstructed coordinator-side, untagged).
        tracer = Tracer(
            level=trace_level,
            tags={
                "shard": shard.index,
                "shards": shard.count,
                "strategy": shard.strategy,
            },
        )
    progress_cb = None
    progress_every = None
    if heartbeat is not None:
        progress_every = HEARTBEAT_PROGRESS_EVERY

        def progress_cb(event: Dict[str, Any]) -> None:
            heartbeat({
                "cursor": event.get("candidates"),
                "evaluations": event.get("evaluations"),
            })

    resumed = False
    result = None
    if os.path.exists(path):
        stale = _journal_mismatch(path, spec, shard)
        if stale is not None:
            # A journal under this job id from a *different*
            # exploration (worker directory reused across runs):
            # resuming it would return the wrong run's result.  Start
            # fresh — the new journal truncates the stale one.
            logger.warning(
                "worker: journal %s is stale (%s), starting fresh",
                path, stale,
            )
        else:
            try:
                # The request's anytime budgets govern the continuation
                # (None lifts a budget journaled by an earlier attempt).
                result = resume_explore(
                    path,
                    tracer=tracer,
                    progress=progress_cb,
                    progress_every=progress_every,
                    max_evaluations=options.get("max_evaluations"),
                    deadline_seconds=options.get("deadline_seconds"),
                )
                resumed = True
            except CheckpointError:
                logger.warning(
                    "worker: journal %s unusable, starting fresh", path
                )
    if result is None:
        result = explore_batched(
            spec,
            shard=shard,
            checkpoint=path,
            checkpoint_every=payload.get("checkpoint_every"),
            tracer=tracer,
            progress=progress_cb,
            progress_every=progress_every,
            **options,
        )
    loaded = load_checkpoint(path)
    with open(path, "r", encoding="utf-8") as handle:
        journal_text = handle.read()
    reply: Dict[str, Any] = {
        "job": job,
        "result": result_to_dict(result),
        "journal": journal_text,
        "cursor": loaded.cursor,
        "completed": loaded.completed,
        "resumed": resumed,
        "host": {"pid": os.getpid(), "name": socket.gethostname()},
    }
    try:
        # Final resource reading for the coordinator's fleet telemetry
        # (additive key: old coordinators ignore it).
        from ..telemetry import ResourceSampler

        reply["resources"] = ResourceSampler().snapshot()
    except Exception:  # pragma: no cover - OS accounting failure
        pass
    if tracer is not None:
        reply["trace"] = tracer.all_records()
    return reply


def _heartbeat_sender(
    stream: MessageStream, job: Any, interval: Any
) -> Optional[Callable[[Dict[str, Any]], None]]:
    """A rate-limited ``heartbeat``-frame sender (``None`` = disabled).

    Heartbeats are only sent when the coordinator asked for them
    (``heartbeat_seconds`` in the run payload) — an older coordinator
    does one end-of-run receive and must never see an unexpected frame.
    A send failure disables further beats but never aborts the run: the
    computation and its journal are worth finishing even if the
    coordinator is gone (a retry resumes from that journal).

    Each beat carries a ``resources`` snapshot (RSS/CPU/GC, see
    :class:`repro.telemetry.ResourceSampler`) next to the progress
    fields.  The key is additive and version-tolerant both ways: an
    old coordinator ignores it, and beats from an old worker simply
    lack it.  Snapshots are taken only for beats that actually go on
    the wire (the rate limit fires first), so the cost is bounded by
    ``heartbeat_seconds``, not by progress cadence.
    """
    if not isinstance(interval, (int, float)) or interval <= 0:
        return None
    from ..telemetry import ResourceSampler

    sampler = ResourceSampler()
    state = {"last": float("-inf"), "dead": False}

    def send(info: Dict[str, Any]) -> None:
        if state["dead"]:
            return
        now = time.monotonic()
        if now - state["last"] < interval:
            return
        state["last"] = now
        beat = {"job": job, **info}
        try:
            beat["resources"] = sampler.snapshot()
        except Exception:  # pragma: no cover - OS accounting failure
            pass  # liveness must never depend on resource accounting
        try:
            stream.send("heartbeat", beat)
        except OSError:
            state["dead"] = True
            logger.warning(
                "worker: heartbeat for job %r undeliverable; continuing "
                "the run without beats (journal survives for resume)",
                job,
            )

    return send


def _serve_connection(stream: MessageStream, directory: str) -> str:
    """Serve one connection; returns ``"shutdown"`` to stop the server."""
    message_type, payload = stream.receive()
    if message_type != "hello":
        raise ProtocolError(
            f"expected hello to open the connection, got {message_type!r}"
        )
    check_hello(payload)
    stream.send("hello", hello_payload())
    while True:
        message_type, payload = stream.receive()
        if message_type == "ping":
            stream.send("pong", {})
        elif message_type == "shutdown":
            stream.send("bye", {})
            return "shutdown"
        elif message_type == "run":
            job = payload.get("job") if isinstance(payload, dict) else None
            logger.info("worker: run job=%r", job)
            sender = _heartbeat_sender(
                stream,
                job,
                payload.get("heartbeat_seconds")
                if isinstance(payload, dict) else None,
            )
            stream.send("result", run_request(
                directory, payload, heartbeat=sender
            ))
        else:
            raise ProtocolError(
                f"unexpected {message_type!r} message from coordinator"
            )


def serve(
    directory: str,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: Optional[int] = None,
    ready=None,
) -> None:
    """Serve shard runs until a ``shutdown`` message (or request cap).

    ``port=0`` binds an ephemeral port; ``ready`` (when given) is
    called once with the bound ``(host, port)`` — the CLI prints it so
    scripts can discover the address.  One connection is served at a
    time: a worker process is one execution lane, parallelism comes
    from running several workers.
    """
    os.makedirs(directory, exist_ok=True)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(8)
    bound = listener.getsockname()
    logger.info("shard-worker listening on %s:%d dir=%s",
                bound[0], bound[1], directory)
    if ready is not None:
        ready(bound)
    served = 0
    try:
        while max_requests is None or served < max_requests:
            connection, peer = listener.accept()
            served += 1
            stream = MessageStream(connection)
            try:
                verdict = _serve_connection(stream, directory)
                if verdict == "shutdown":
                    return
            except ProtocolError as error:
                logger.error(
                    "worker: rejected connection from %s: %s", peer, error
                )
                _best_effort_error(stream, "ProtocolError", str(error))
            except ReproError as error:
                logger.error("worker: request from %s failed: %r",
                             peer, error)
                _best_effort_error(stream, type(error).__name__, str(error))
            except ConnectionError as error:
                logger.warning("worker: connection from %s dropped: %r",
                               peer, error)
            finally:
                stream.close()
    finally:
        listener.close()


def _best_effort_error(
    stream: MessageStream, kind: str, message: str
) -> None:
    try:
        stream.send("error", {"kind": kind, "message": message})
    except OSError:
        pass
