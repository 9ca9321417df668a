"""Transport-agnostic multi-tenant online forecasting service.

:class:`ForecastService` composes the serving subsystem — the shared
:class:`~repro.serving.bundle.ModelBundle`, the LRU
:class:`~repro.serving.store.SessionStore`, and the
:class:`~repro.serving.batcher.MicroBatcher` — behind five operations
(``create_session``, ``observe``, ``predict``, ``close_session``,
``session_info``) plus ``health``/``stats``. The HTTP frontend
(:mod:`repro.serving.http`) and in-process callers (the benchmark, the
tests) speak to the same object, so admission control, the circuit
breaker, and the metrics are exercised identically in both.

Failure taxonomy (the HTTP layer maps these one-to-one onto status
codes):

- :class:`ServiceOverloadedError` — bounded queue full, HTTP 429;
- :class:`DeadlineExceededError` — request missed its latency budget,
  HTTP 503;
- :class:`ServiceUnavailableError` — circuit open or shutting down,
  HTTP 503;
- :class:`SessionNotFoundError` / :class:`SessionExistsError` — 404/409;
- :class:`DataValidationError`/:class:`ConfigurationError` — 400.

The circuit breaker counts only *internal* errors (bugs, corrupt
snapshots) — overload, deadlines, and client mistakes never trip it, so
a misbehaving client cannot blacken the service for everyone else.
"""

from __future__ import annotations

import tempfile
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    DeadlineExceededError,
    ServiceUnavailableError,
    ServingError,
    SessionCorruptError,
)
from repro.obs import OBS, get_logger, render_prom_text
from repro.obs.trace import NOOP_TRACE_SPAN, TRACER
from repro.runtime import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    coerce_deadline,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.store import SessionStore
from repro.serving.tenantstats import TenantAccountant

_LOG = get_logger("serving.service")


@dataclass
class ServiceConfig:
    """Operational knobs of the forecasting service.

    Attributes
    ----------
    max_sessions:
        Resident-session bound of the LRU store; excess sessions spill
        to ``spill_dir``.
    spill_dir:
        Checkpoint directory for evicted sessions. ``None`` creates a
        fresh temporary directory (sessions then do not survive a
        process restart).
    queue_limit:
        Admission bound: requests beyond this are rejected immediately
        with :class:`ServiceOverloadedError`. It also bounds a
        micro-batch, which takes whatever is queued and never waits
        for company; each ``observe`` in it runs the serial
        :meth:`SeriesSession.observe` step.
    deadline:
        Per-request latency budget in seconds; requests that cannot
        start (or finish) within it fail with
        :class:`DeadlineExceededError`.
    agent:
        When set, the registry name the served bundle's policy agent
        must carry (e.g. ``"td3"``); a mismatch fails service
        construction with :class:`ConfigurationError` instead of
        surfacing at the first observe. ``None`` serves any bundle.
    executor:
        Selects nothing: every request runs serially on the batcher's
        collector thread, and ``shards`` alone picks the shard runtime.
        The field stays only so existing callers that pass
        ``"serial"``, ``"thread"`` or ``"process"`` keep working (the
        ledger benchmark's server does); ``"process"`` is accepted only
        beside ``shards >= 1``.
    shards:
        Number of supervised shard worker processes. ``0`` (the
        default) serves in-process (:class:`ForecastService`); ``> 0``
        selects the shard runtime
        (:class:`repro.serving.supervisor.ShardSupervisor`, built by
        :func:`make_service`). Sessions are stateful, so process
        isolation means dedicated shard workers, not a process pool.
    durable:
        Acknowledge ``observe`` only after the session state has been
        checkpointed to the spill tier (write-through). Required for the
        zero-lost-acknowledgements guarantee under worker crashes.
    degraded_mode:
        Serve a pool ensemble-average forecast flagged ``degraded: true``
        for sessions whose checkpoints are corrupt, instead of failing
        the request.
    breaker_threshold / breaker_cooldown:
        Consecutive internal errors tripping the service breaker, and
        the denied-call count absorbed before a half-open probe.
    trace_dir:
        When set, distributed request tracing is enabled: every process
        of the runtime (frontend, shard workers) appends its spans to
        its own JSONL file under this directory, assembled offline by
        ``repro trace`` / :class:`repro.obs.TraceAssembler`. ``None``
        (the default) keeps the one-attribute-check no-op fast path.
    worker_telemetry:
        Enable a registry-only telemetry session inside shard worker
        processes so the supervisor can merge their
        :class:`~repro.obs.MetricsRegistry` snapshots into one
        ``/metrics`` output. Set automatically by the supervisor when
        the frontend has telemetry or tracing on.
    """

    max_sessions: int = 128
    spill_dir: Optional[str] = None
    queue_limit: int = 256
    deadline: float = 2.0
    agent: Optional[str] = None
    executor: str = "thread"
    shards: int = 0
    durable: bool = False
    degraded_mode: bool = True
    breaker_threshold: int = 5
    breaker_cooldown: int = 50
    trace_dir: Optional[str] = None
    worker_telemetry: bool = False

    def validate(self) -> None:
        if self.max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be > 0 seconds, got {self.deadline}"
            )
        if self.shards < 0:
            raise ConfigurationError(
                f"shards must be >= 0, got {self.shards}"
            )
        if self.executor not in ("serial", "thread", "process"):
            raise ConfigurationError(
                f"executor must be 'serial', 'thread' or 'process', "
                f"got {self.executor!r}"
            )
        if self.executor == "process" and self.shards < 1:
            raise ConfigurationError(
                "executor='process' is no backend of its own: set "
                "shards >= 1 to select the shard runtime"
            )
        if self.breaker_threshold < 1 or self.breaker_cooldown < 1:
            raise ConfigurationError(
                "breaker_threshold and breaker_cooldown must be >= 1"
            )


class ForecastService:
    """Multi-tenant online forecasting core (transport-agnostic)."""

    def __init__(self, bundle, config: Optional[ServiceConfig] = None):
        self.config = config if config is not None else ServiceConfig()
        self.config.validate()
        if self.config.shards > 0:
            raise ConfigurationError(
                "shards > 0 selects the supervised shard runtime: build "
                "the service with repro.serving.make_service(bundle, "
                "config) (or ShardSupervisor directly) instead of "
                "ForecastService"
            )
        if (
            self.config.agent is not None
            and self.config.agent != bundle.agent_name
        ):
            raise ConfigurationError(
                f"service configured for agent {self.config.agent!r} but "
                f"the bundle serves a {bundle.agent_name!r} policy"
            )
        self.bundle = bundle
        self._owns_tracer = False
        if self.config.trace_dir and not TRACER.enabled:
            # Shard workers enable their tracer (with a shard role)
            # before building their service, so this only fires for
            # in-process deployments and the plain-service path.
            TRACER.enable(self.config.trace_dir, "service")
            self._owns_tracer = True
        spill_dir = self.config.spill_dir
        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="repro-serving-")
            _LOG.info("no spill_dir configured; using %s", spill_dir)
        self.tenants = TenantAccountant()
        self.store = SessionStore(
            bundle,
            capacity=self.config.max_sessions,
            spill_dir=spill_dir,
            durable=self.config.durable,
        )
        # Spill restores are attributed per tenant (bounded by the
        # accountant's cap, never per raw session id in the registry).
        self.store.restore_listener = self.tenants.record_restore
        self.batcher = MicroBatcher(
            queue_limit=self.config.queue_limit,
            group_handler=self._observe_batch,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_steps=self.config.breaker_cooldown,
            on_transition=self._on_breaker_transition,
        )
        self._breaker_lock = threading.Lock()
        self._shutting_down = threading.Event()
        self._started_at = time.time()

    # ------------------------------------------------------------------
    def _on_breaker_transition(self, old, new) -> None:
        _LOG.warning("service breaker %s -> %s", old.value, new.value)
        if OBS.enabled:
            OBS.emit(
                "service_breaker", old=old.value, new=new.value
            )
            OBS.registry.gauge("repro_serving_breaker_open").set(
                1.0 if new is BreakerState.OPEN else 0.0
            )

    def _admit(self) -> None:
        if self._shutting_down.is_set():
            raise ServiceUnavailableError(
                "service is shutting down; refusing new requests"
            )
        with self._breaker_lock:
            allowed = self.breaker.allow()
        if not allowed:
            raise ServiceUnavailableError(
                "service circuit breaker is open (recent internal "
                "errors); retry after cooldown"
            )

    def _observe_outcome(self, error: Optional[BaseException]) -> None:
        """Feed the breaker: internal errors only, never client faults."""
        if error is None:
            with self._breaker_lock:
                self.breaker.record_success()
            return
        internal = not isinstance(
            error, (ServingError, DataValidationError, ConfigurationError)
        )
        if internal:
            with self._breaker_lock:
                self.breaker.record_failure()

    def _timed(self, op: str, fn, tenant: Optional[str] = None):
        """Run one operation with request metrics, the ``service.<op>``
        trace span, per-tenant accounting, and breaker accounting."""
        span = NOOP_TRACE_SPAN
        if TRACER.enabled:
            span = (
                TRACER.span(f"service.{op}", session=tenant)
                if tenant is not None
                else TRACER.span(f"service.{op}")
            )
        start = time.perf_counter()
        status = "ok"
        result = None
        try:
            with span:
                result = fn()
            self._observe_outcome(None)
            return result
        except BaseException as err:
            status = _status_label(err)
            self._observe_outcome(err)
            raise
        finally:
            elapsed = time.perf_counter() - start
            if tenant is not None:
                self.tenants.record(
                    tenant, op, elapsed,
                    response=result if status == "ok" else None,
                    error=status != "ok",
                )
            if OBS.enabled:
                registry = OBS.registry
                registry.histogram(
                    "repro_serving_request_seconds", {"op": op}
                ).observe(elapsed)
                registry.counter(
                    "repro_serving_requests_total",
                    {"op": op, "status": status},
                ).inc()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def create_session(
        self, session_id: str, history, **session_kwargs
    ) -> Dict[str, Any]:
        """Admit a new tenant series; returns its description."""
        def run():
            self._admit()
            history_arr = np.asarray(history, dtype=np.float64)
            session = self.store.create(
                session_id, history_arr, **session_kwargs
            )
            return session.describe()

        return self._timed("create", run, tenant=session_id)

    def _deadline(self, deadline) -> Deadline:
        return coerce_deadline(deadline, self.config.deadline)

    def _submit(self, fn, deadline: Deadline, payload=None):
        """Push work through the batcher and wait out the deadline."""
        expires_at = None if deadline.unbounded else deadline.expires_at
        future = self.batcher.submit(
            fn,
            deadline=self.config.deadline,
            expires_at=expires_at,
            payload=payload,
        )
        # Grace beyond the deadline covers work that *started* in time;
        # a hang four budgets long is treated as unavailability.
        timeout = (
            self.config.deadline * 4
            if deadline.unbounded
            else deadline.remaining() + self.config.deadline
        )
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            raise ServiceUnavailableError(
                "request did not complete within its deadline grace "
                "period"
            ) from None

    def observe(
        self,
        session_id: str,
        value: float,
        *,
        seq: Optional[int] = None,
        deadline=None,
    ) -> Dict[str, Any]:
        """Feed one realised value; returns the next-step forecast.

        ``seq`` makes the call idempotent: a strictly increasing
        per-session sequence number. Retrying the last acknowledged
        ``seq`` returns the cached response without advancing the
        session, so a retry after a crash can never double-apply an
        observation. ``deadline`` is the remaining end-to-end budget
        (seconds, or a :class:`~repro.runtime.Deadline`).
        """
        dl = self._deadline(deadline)

        def run():
            self._admit()
            return self._submit(None, dl, payload=(session_id, value, seq))

        return self._timed("observe", run, tenant=session_id)

    def _check_seq(self, holder, seq: Optional[int], session_id: str):
        """Idempotency ledger: cached response for a duplicate, error
        for a stale or gapped sequence number, None to proceed."""
        if seq is None or holder.ack_seq is None:
            return None
        if seq == holder.ack_seq:
            if OBS.enabled:
                OBS.registry.counter(
                    "repro_serving_duplicate_observe_total"
                ).inc()
            return dict(holder.ack_response, duplicate=True)
        if seq <= holder.ack_seq:
            raise DataValidationError(
                f"stale sequence number {seq} for session "
                f"{session_id!r}: already acknowledged {holder.ack_seq}"
            )
        if seq != holder.ack_seq + 1:
            raise DataValidationError(
                f"sequence gap for session {session_id!r}: got {seq} "
                f"after {holder.ack_seq}"
            )
        return None

    # ------------------------------------------------------------------
    # Observe: the serial session step, once per payload
    # ------------------------------------------------------------------
    def _observe_batch(self, payloads: List[Tuple]) -> list:
        """Group handler for the micro-batcher's observes.

        Runs every payload of a dispatch through the serial session step
        (:meth:`SeriesSession.observe`) in arrival order, so repeated
        session ids keep their order. Outcomes are index-aligned and
        exceptions travel as values: one slot's failure (a missing or
        corrupt session, a stale ``seq``) never touches the others.
        """
        outcomes: list = []
        for sid, value, seq in payloads:
            try:
                outcomes.append(self._observe_one(sid, value, seq))
            except BaseException as err:  # noqa: BLE001 - to the future
                outcomes.append(err)
        return outcomes

    def _observe_one(
        self, session_id: str, value: float, seq: Optional[int]
    ) -> Dict[str, Any]:
        """One Alg. 1 step; a corrupt session gets its degraded-mode
        answer (when ``degraded_mode`` is on) once its lock drops."""
        try:
            with self.store.acquire(session_id) as session, session.lock:
                cached = self._check_seq(session, seq, session_id)
                if cached is not None:
                    return cached
                forecast = session.observe(float(value))
                response = {
                    "session": session_id,
                    "forecast": float(forecast),
                    "step": session.step,
                    "drift": session.last_drifted,
                    "policy_update": session.last_update_trigger,
                    "degraded": False,
                }
                if seq is not None:
                    session.ack_seq = seq
                    session.ack_response = response
                if self.config.durable:
                    # Commit point: acknowledge only once the observation
                    # (ledger included) hit the spill tier.
                    self.store.sync(session_id)
                return response
        except SessionCorruptError:
            if not self.config.degraded_mode:
                raise
        return self._observe_degraded(session_id, value, seq)

    def predict(
        self, session_id: str, *, deadline=None
    ) -> Dict[str, Any]:
        """Peek at the next-step forecast without advancing the session."""
        dl = self._deadline(deadline)

        def run():
            self._admit()
            return self._submit(
                lambda: self._predict_inner(session_id), dl
            )

        return self._timed("predict", run, tenant=session_id)

    def _predict_inner(self, session_id: str) -> Dict[str, Any]:
        try:
            with self.store.acquire(session_id) as session:
                return {
                    "session": session_id,
                    "forecast": float(session.predict()),
                    "step": session.step,
                    "degraded": False,
                }
        except SessionCorruptError:
            if not self.config.degraded_mode:
                raise
            return self._predict_degraded(session_id)

    # ------------------------------------------------------------------
    # Degraded mode: corrupt-checkpoint sessions keep answering
    # ------------------------------------------------------------------
    def _ensemble_average(self, history: np.ndarray) -> float:
        """Uniform average over the healthy pool members' forecasts.

        The policy state is gone with the corrupt checkpoint, so the
        best remaining estimator is the unweighted healthy ensemble —
        the paper's baseline aggregation.
        """
        values, mask = self.bundle.pool.predict_next_with_mask(history)
        values = np.asarray(values, dtype=np.float64)
        usable = np.asarray(mask, dtype=bool) & np.isfinite(values)
        if not usable.any():
            raise ServiceUnavailableError(
                "degraded forecast unavailable: no healthy pool member "
                "produced a finite prediction"
            )
        return float(values[usable].mean())

    def _degraded_state(self, session_id: str):
        degraded = self.store.degraded_session(session_id)
        if degraded is None or degraded.history is None:
            # No sidecar survived either — nothing to forecast from.
            raise SessionCorruptError(session_id)
        return degraded

    def _observe_degraded(
        self, session_id: str, value: float, seq: Optional[int]
    ) -> Dict[str, Any]:
        degraded = self._degraded_state(session_id)
        with degraded.lock:
            cached = self._check_seq(degraded, seq, session_id)
            if cached is not None:
                return cached
            degraded.history = np.append(
                degraded.history, float(value)
            )
            forecast = self._ensemble_average(degraded.history)
            response = {
                "session": session_id,
                "forecast": forecast,
                "step": None,
                "drift": False,
                "policy_update": False,
                "degraded": True,
            }
            if seq is not None:
                degraded.ack_seq = seq
                degraded.ack_response = response
            if self.config.durable:
                self.store.persist_degraded(session_id)
            if OBS.enabled:
                OBS.registry.counter(
                    "repro_serving_degraded_requests_total"
                ).inc()
            return response

    def _predict_degraded(self, session_id: str) -> Dict[str, Any]:
        degraded = self._degraded_state(session_id)
        with degraded.lock:
            forecast = self._ensemble_average(degraded.history)
        if OBS.enabled:
            OBS.registry.counter(
                "repro_serving_degraded_requests_total"
            ).inc()
        return {
            "session": session_id,
            "forecast": forecast,
            "step": None,
            "degraded": True,
        }

    def session_info(self, session_id: str) -> Dict[str, Any]:
        def run():
            try:
                with self.store.acquire(session_id) as session:
                    info = session.describe()
                    info["degraded"] = False
                    return info
            except SessionCorruptError:
                if not self.config.degraded_mode:
                    raise
                degraded = self._degraded_state(session_id)
                with degraded.lock:
                    return {
                        "session": session_id,
                        "degraded": True,
                        "history_length": int(degraded.history.size),
                        "step": None,
                    }

        return self._timed("info", run, tenant=session_id)

    def close_session(self, session_id: str) -> None:
        self._timed(
            "close", lambda: self.store.close(session_id),
            tenant=session_id,
        )

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        breaker = self.breaker.state.value
        healthy = (
            not self._shutting_down.is_set()
            and self.breaker.state is not BreakerState.OPEN
        )
        return {
            "status": "ok" if healthy else "unavailable",
            "breaker": breaker,
            "shutting_down": self._shutting_down.is_set(),
            "uptime_seconds": round(time.time() - self._started_at, 3),
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "sessions": self.store.stats(),
            "queue_depth": self.batcher.depth,
            "queue_limit": self.batcher.queue_limit,
            "batches": self.batcher.batches,
            "shed": self.batcher.shed,
            "breaker": self.breaker.state.value,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "tenants": self.tenants.snapshot(),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """This process's registry snapshot (mergeable across workers)."""
        return OBS.registry.snapshot()

    def metrics_text(self) -> str:
        """Prometheus text exposition of this process's registry."""
        return render_prom_text(OBS.registry)

    # ------------------------------------------------------------------
    def shutdown(self) -> Dict[str, Any]:
        """Refuse new work, drain in-flight requests, spill every session.

        Idempotent; returns a summary of what was flushed (also attached
        to the ``service_shutdown`` telemetry event).
        """
        already = self._shutting_down.is_set()
        self._shutting_down.set()
        if already:
            return {"spilled": 0, "repeat": True}
        self.batcher.close()
        spilled = self.store.spill_all()
        summary = {
            "spilled": spilled,
            "sessions": self.store.stats(),
            "batches": self.batcher.batches,
        }
        _LOG.info(
            "service shut down: %d session(s) spilled to disk", spilled
        )
        if OBS.enabled:
            OBS.emit("service_shutdown", **summary)
            OBS.flush()
        if self._owns_tracer:
            TRACER.disable()
        return summary


def _status_label(error: BaseException) -> str:
    """Stable low-cardinality status label for the requests counter."""
    from repro.exceptions import (
        ServiceOverloadedError,
        SessionExistsError,
        SessionNotFoundError,
        WorkerCrashedError,
    )

    if isinstance(error, ServiceOverloadedError):
        return "overloaded"
    if isinstance(error, DeadlineExceededError):
        return "deadline"
    if isinstance(error, SessionCorruptError):
        return "corrupt"
    if isinstance(error, WorkerCrashedError):
        return "worker_crash"
    if isinstance(error, ServiceUnavailableError):
        return "unavailable"
    if isinstance(error, SessionNotFoundError):
        return "not_found"
    if isinstance(error, SessionExistsError):
        return "conflict"
    if isinstance(error, (DataValidationError, ConfigurationError)):
        return "bad_request"
    return "error"
