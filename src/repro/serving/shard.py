"""Shard worker process: one isolated :class:`ForecastService` per shard.

The supervised shard runtime (:mod:`repro.serving.supervisor`) spawns N
worker *processes*, each running this module's :func:`worker_main` loop:
a full in-process :class:`~repro.serving.service.ForecastService`
(durable write-through) behind a pickled-dict RPC over
a :func:`multiprocessing.Pipe`. Process isolation is the point — a
worker segfault, OOM kill, or ``SIGKILL`` takes down only its shard's
resident sessions, all of which are recoverable from the shard's spill
directory by the replacement worker.

Protocol (one dict per message, pickled by the pipe):

- request: ``{"id", "op", "args", "expires_at"}`` — ``expires_at`` is an
  absolute ``time.monotonic()`` instant (same-host comparable), ``None``
  for no deadline;
- response: ``{"id", "ok": True, "result": ...}`` or
  ``{"id", "ok": False, "error": <type name>, "detail": str,
  "extra": {...}}``.

Errors cross the process boundary *structurally* (:func:`encode_error`
/ :func:`decode_error`) rather than as pickled exception objects:
several typed errors take constructor arguments that a generic
unpickle-by-args would mangle, and a worker must never be able to crash
the supervisor with an unpicklable exception instance.

The worker heartbeats into a shared ``multiprocessing.Value`` so the
supervisor can distinguish *dead* (process gone, pipe EOF) from *hung*
(alive but no heartbeat) and SIGKILL the latter before failing over.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    ServingError,
    SessionCorruptError,
    SessionExistsError,
    SessionNotFoundError,
    WorkerCrashedError,
)
from repro.obs import OBS, TRACER, TraceContext, get_logger
from repro.runtime import Deadline

_LOG = get_logger("serving.shard")

#: Seconds between heartbeat writes inside the worker.
HEARTBEAT_INTERVAL = 0.2

#: Handler threads per worker. Each runs its request to the end; the
#: inner service's gate lets one step at a time.
WORKER_THREADS = 4


# ----------------------------------------------------------------------
# Structural error transport
# ----------------------------------------------------------------------
def encode_error(err: BaseException) -> Dict[str, Any]:
    """Flatten an exception into a pipe-safe structural payload."""
    extra: Dict[str, Any] = {}
    for attr in (
        "session_id",
        "queue_depth",
        "queue_limit",
        "deadline",
        "shard",
        "retry_after",
    ):
        value = getattr(err, attr, None)
        if isinstance(value, (int, float, str, bool)):
            extra[attr] = value
    return {
        "error": type(err).__name__,
        "detail": str(err),
        "extra": extra,
    }


_DECODERS = {
    "SessionNotFoundError": lambda d, x: SessionNotFoundError(
        x.get("session_id", "?")
    ),
    "SessionExistsError": lambda d, x: SessionExistsError(
        x.get("session_id", "?")
    ),
    "SessionCorruptError": lambda d, x: SessionCorruptError(
        x.get("session_id", "?")
    ),
    "ServiceOverloadedError": lambda d, x: ServiceOverloadedError(
        int(x.get("queue_depth", 0)),
        int(x.get("queue_limit", 0)),
        x.get("retry_after"),
    ),
    "DeadlineExceededError": lambda d, x: DeadlineExceededError(
        float(x.get("deadline", 0.0))
    ),
    "ServiceUnavailableError": lambda d, x: ServiceUnavailableError(d),
    "WorkerCrashedError": lambda d, x: WorkerCrashedError(
        int(x.get("shard", -1)), d
    ),
    "DataValidationError": lambda d, x: DataValidationError(d),
    "ConfigurationError": lambda d, x: ConfigurationError(d),
    "ServingError": lambda d, x: ServingError(d),
}


def decode_error(payload: Dict[str, Any]) -> BaseException:
    """Rebuild the typed exception a worker encoded.

    Unknown types (a bug's ``ValueError``, ...) decode to a plain
    ``RuntimeError`` so they keep counting as *internal* failures in the
    supervisor's taxonomy instead of masquerading as client errors.
    """
    name = payload.get("error", "RuntimeError")
    detail = payload.get("detail", "")
    extra = payload.get("extra", {}) or {}
    decoder = _DECODERS.get(name)
    if decoder is not None:
        return decoder(detail, extra)
    return RuntimeError(f"shard worker error ({name}): {detail}")


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _handle(service, msg: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one RPC against the worker's in-process service."""
    request_id = msg.get("id")
    expires_at = msg.get("expires_at")
    deadline = (
        Deadline.at(float(expires_at)) if expires_at is not None else None
    )
    ctx = (
        TraceContext.from_wire(msg.get("trace"))
        if TRACER.enabled else None
    )
    if ctx is not None:
        # Re-root the supervisor's trace in this process: everything the
        # service records below nests under one ``worker.handle`` span.
        with TRACER.span("worker.handle", parent=ctx, op=msg.get("op")):
            return _dispatch(service, msg, request_id, deadline)
    return _dispatch(service, msg, request_id, deadline)


def _dispatch(
    service,
    msg: Dict[str, Any],
    request_id,
    deadline: Optional[Deadline],
) -> Dict[str, Any]:
    try:
        if deadline is not None and deadline.expired():
            # Shed before touching the service: the client (or the
            # supervisor retrying on its behalf) has already given up.
            raise DeadlineExceededError(service.config.deadline)
        op = msg.get("op")
        args = msg.get("args", {}) or {}
        if op == "observe":
            result = service.observe(
                args["session_id"],
                args["value"],
                seq=args.get("seq"),
                deadline=deadline,
            )
        elif op == "predict":
            result = service.predict(
                args["session_id"], deadline=deadline
            )
        elif op == "create":
            result = service.create_session(
                args["session_id"],
                args["history"],
                **args.get("session_kwargs", {}),
            )
        elif op == "info":
            result = service.session_info(args["session_id"])
        elif op == "close":
            service.close_session(args["session_id"])
            result = {"closed": args["session_id"]}
        elif op == "health":
            result = service.health()
        elif op == "stats":
            result = service.stats()
        elif op == "metrics":
            result = service.metrics_snapshot()
        elif op == "ping":
            result = {"pong": True}
        else:
            raise ServingError(f"unknown shard op: {op!r}")
        return {"id": request_id, "ok": True, "result": result}
    except BaseException as err:  # noqa: BLE001 - transported to parent
        return {"id": request_id, "ok": False, **encode_error(err)}


def worker_main(shard_index: int, conn, heartbeat, bundle, config) -> None:
    """Entry point of one shard worker process (runs until shutdown).

    ``conn`` is the child end of a duplex pipe; ``heartbeat`` a shared
    ``Value('d')`` this process keeps stamping with ``time.monotonic()``.
    """
    # The supervisor owns lifecycle: a terminal Ctrl-C must not tear
    # down workers mid-request before the parent has drained them.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.serving.service import ForecastService

    trace_dir = getattr(config, "trace_dir", None)
    if trace_dir:
        # Each incarnation writes its own file (the name embeds the
        # pid), so a failover never interleaves two workers' spans.
        TRACER.enable(trace_dir, f"shard-{shard_index}")
    if getattr(config, "worker_telemetry", False) and not OBS.enabled:
        # Registry-only session (no sinks): counters/histograms for the
        # supervisor's merged /metrics without any file I/O here.
        from repro.obs import TelemetryConfig, configure

        configure(TelemetryConfig(enabled=True))

    service = ForecastService(bundle, config)
    stop = threading.Event()
    send_lock = threading.Lock()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(HEARTBEAT_INTERVAL)

    heartbeat.value = time.monotonic()
    threading.Thread(
        target=beat, name=f"repro-shard-{shard_index}-beat", daemon=True
    ).start()

    def respond(msg: Dict[str, Any]) -> None:
        response = _handle(service, msg)
        with send_lock:
            try:
                conn.send(response)
            except (OSError, BrokenPipeError):  # parent gone
                stop.set()

    pool = ThreadPoolExecutor(
        max_workers=WORKER_THREADS,
        thread_name_prefix=f"repro-shard-{shard_index}",
    )
    _LOG.info("shard %d worker ready (pid will heartbeat)", shard_index)
    try:
        while not stop.is_set():
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                # Supervisor died or closed the pipe: drain and exit.
                _LOG.warning(
                    "shard %d: control pipe closed; shutting down",
                    shard_index,
                )
                break
            if not isinstance(msg, dict):
                continue
            if msg.get("op") == "__shutdown__":
                pool.shutdown(wait=True)
                summary = service.shutdown()
                with send_lock:
                    try:
                        conn.send(
                            {"id": msg.get("id"), "ok": True,
                             "result": summary}
                        )
                    except (OSError, BrokenPipeError):
                        pass
                return
            pool.submit(respond, msg)
    finally:
        stop.set()
        pool.shutdown(wait=False)
        service.shutdown()
        # multiprocessing children exit via os._exit (no atexit), so the
        # tracer's drop-count meta line must be flushed here.
        TRACER.disable()
