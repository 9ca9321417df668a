"""Supervised shard workers with crash failover and consistent hashing.

:class:`ShardSupervisor` is the process-isolated sibling of
:class:`~repro.serving.service.ForecastService` — same five operations,
same error taxonomy, same HTTP frontend — but sessions live in N shard
*worker processes* (:mod:`repro.serving.shard`), partitioned by
consistent hashing on the session id:

- **placement** — a :class:`HashRing` (CRC32, virtual nodes) maps every
  session id to one shard; a session's spill directory lives under that
  shard's subtree, so the mapping survives restarts of both sides;
- **liveness** — each worker heartbeats into shared memory; a monitor
  thread detects *dead* workers (``is_alive()`` false / pipe EOF)
  and *hung* ones (stale heartbeat → ``SIGKILL``), then fails over;
- **failover** — all requests pending on a dead worker fail fast with
  :class:`~repro.exceptions.WorkerCrashedError`; a replacement worker is
  spawned on the same shard + spill directory and re-adopts the spilled
  sessions lazily. Workers run *durable* services (observe is
  acknowledged only after the checkpoint hits disk), so an acknowledged
  observation is never lost to a crash and a failed-over session is
  bit-identical to one that never crashed;
- **retries** — idempotent operations (sequence-numbered ``observe``,
  ``predict``, ``info``, ``close``) are retried against the replacement
  worker under a jittered-backoff :class:`~repro.runtime.RetryPolicy`
  clamped to the request's remaining :class:`~repro.runtime.Deadline`;
  a non-idempotent ``observe`` (no ``seq``) is attempted exactly once;
- **crash-loop protection** — a per-shard
  :class:`~repro.runtime.CircuitBreaker` counts crashes; a shard that
  keeps dying is left down for a cooldown (its requests fail fast with
  :class:`~repro.exceptions.ServiceUnavailableError`) instead of
  fork-bombing the host.

The shard count (``ServiceConfig.shards``) is fixed for the life of a
supervisor. To change it, stop the fleet and start it at the new
count: before the first worker spawns, the supervisor renames every
session directory into the subtree its :class:`HashRing` owner uses —
~K/n of them for a one-shard change. ``os.rename`` is atomic, so a
crash part-way leaves each directory in exactly one subtree, and the
next start finishes the moves.

Construct through :func:`make_service`, which picks this runtime when
``ServiceConfig.shards > 0``.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    ServiceUnavailableError,
    SessionExistsError,
    SessionNotFoundError,
    WorkerCrashedError,
)
from repro.obs import (
    OBS,
    TRACER,
    get_logger,
    merge_snapshots,
    render_prom_snapshot,
)
from repro.runtime import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    coerce_deadline,
)
from repro.serving.ring import VNODES, HashRing
from repro.serving.service import ForecastService, ServiceConfig
from repro.serving.shard import decode_error, worker_main
from repro.serving.store import SESSION_ID_PATTERN, validate_session_id
from repro.serving.tenantstats import TenantAccountant

_LOG = get_logger("serving.supervisor")

__all__ = ["HashRing", "ShardSupervisor", "VNODES", "make_service"]

#: Monitor cadence and heartbeat staleness bound (seconds).
MONITOR_INTERVAL = 0.25
HEARTBEAT_TIMEOUT = 5.0

#: A worker alive this long after (re)spawn counts as stable again.
STABILITY_WINDOW = 5.0

#: Crashes tripping a shard's restart breaker, and monitor ticks
#: absorbed while OPEN before a restart probe.
CRASH_THRESHOLD = 5
CRASH_COOLDOWN_TICKS = 40

#: Jittered exponential backoff between consecutive respawns of the
#: same crash-looping shard (a stable worker's first crash still
#: respawns immediately — failover latency is the point of the runtime).
RESPAWN_BACKOFF_BASE = 0.25
RESPAWN_BACKOFF_MAX = 5.0


def _mp_context():
    """Fork when available (shares the fitted bundle copy-on-write;
    POSIX-only), else the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


class _Shard:
    """Supervisor-side handle of one worker incarnation chain."""

    def __init__(self, index: int, spill_dir: str):
        self.index = index
        self.spill_dir = spill_dir
        self.lock = threading.Lock()
        self.process = None
        self.conn = None
        self.heartbeat = None
        self.reader: Optional[threading.Thread] = None
        self.pending: Dict[int, Future] = {}
        self.generation = 0
        self.spawned_at = 0.0
        self.stable = False
        self.alive = False
        self.closing = False
        # Consecutive crashes without an intervening stable window, and
        # the monotonic time before which the monitor must not respawn
        # (jittered exponential backoff against crash loops).
        self.crashes_in_row = 0
        self.next_respawn_at = 0.0
        self.breaker = CircuitBreaker(
            failure_threshold=CRASH_THRESHOLD,
            cooldown_steps=CRASH_COOLDOWN_TICKS,
        )


class ShardSupervisor:
    """Process-isolated, crash-tolerant drop-in for ForecastService."""

    def __init__(
        self,
        bundle,
        config: Optional[ServiceConfig] = None,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
    ):
        self.config = config if config is not None else ServiceConfig(
            shards=2
        )
        self.config.validate()
        if self.config.shards < 1:
            raise ConfigurationError(
                f"ShardSupervisor needs shards >= 1, got "
                f"{self.config.shards}; use ForecastService (or "
                f"make_service) for the in-process runtime"
            )
        self.bundle = bundle
        self.n_shards = self.config.shards
        spill_root = self.config.spill_dir
        if spill_root is None:
            spill_root = tempfile.mkdtemp(prefix="repro-shards-")
            _LOG.info("no spill_dir configured; using %s", spill_root)
        self.spill_root = spill_root
        self.respawn_backoffs = 0
        # The configured count always wins: the spill tree is healed to
        # match it before any worker can open a session directory.
        self.ring = HashRing(self.n_shards)
        self._reconcile_spill_tree(self.ring)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.retry_policy.validate()
        self.heartbeat_timeout = float(heartbeat_timeout)
        self._owns_tracer = False
        if self.config.trace_dir and not TRACER.enabled:
            # The supervisor process is the request frontend; workers
            # enable their own tracers (role ``shard-<i>``) on spawn.
            TRACER.enable(self.config.trace_dir, "frontend")
            self._owns_tracer = True
        self._ctx = _mp_context()
        self._rng = np.random.default_rng(0xC0FFEE)
        self._request_ids = iter(range(1, 1 << 62)).__next__
        self._id_lock = threading.Lock()
        self._shutting_down = threading.Event()
        self._started_at = time.time()
        self.restarts = 0
        self._shards = [
            _Shard(i, self.shard_spill_dir(i))
            for i in range(self.n_shards)
        ]
        for shard in self._shards:
            self._spawn_locked(shard)
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name="repro-shard-monitor",
            daemon=True,
        )
        self._monitor.start()
        if OBS.enabled:
            OBS.registry.gauge("repro_serving_shards").set(
                float(self.n_shards)
            )
        _LOG.info(
            "shard supervisor up: %d worker(s), spill root %s",
            self.n_shards, spill_root,
        )

    # ------------------------------------------------------------------
    # Spill tree: startup reconciliation
    # ------------------------------------------------------------------
    def shard_spill_dir(self, index: int) -> str:
        """Spill subtree of one shard (directory location == ownership)."""
        return os.path.join(self.spill_root, f"shard-{index:02d}")

    def _reconcile_spill_tree(self, ring: HashRing) -> None:
        """Move every session directory under its ring owner's subtree.

        Runs before any worker spawns, so renaming is race-free. A
        restart at a new shard count moves the ~K/n directories whose
        owner changed; a crash part-way leaves each directory in
        exactly one subtree (``os.rename`` is atomic), and the next
        start finishes the job.
        """
        root = Path(self.spill_root)
        if not root.is_dir():
            return
        moved = 0
        for sub in sorted(root.iterdir()):
            if not sub.is_dir() or not sub.name.startswith("shard-"):
                continue
            try:
                index = int(sub.name.split("-", 1)[1])
            except ValueError:
                continue
            for sess in sorted(sub.iterdir()):
                if not sess.is_dir() or not SESSION_ID_PATTERN.match(
                    sess.name
                ):
                    continue
                owner = ring.shard_for(sess.name)
                if owner == index:
                    continue
                dst = Path(self.shard_spill_dir(owner)) / sess.name
                if dst.exists():
                    # Renames alone never produce this; never
                    # delete data — park the stray under a name the
                    # session-id pattern rejects so no store adopts it.
                    try:
                        os.rename(sess, sess.with_name(sess.name + "~stray"))
                        _LOG.error(
                            "session %s found in two shard subtrees; "
                            "kept shard %d's copy, parked shard %d's as "
                            "%s~stray", sess.name, owner, index, sess.name,
                        )
                    except OSError:  # pragma: no cover - stray of a stray
                        pass
                    continue
                dst.parent.mkdir(parents=True, exist_ok=True)
                os.rename(sess, dst)
                moved += 1
        if moved:
            _LOG.info(
                "spill reconciliation moved %d session directorie(s) to "
                "their ring owners", moved,
            )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _worker_config(self, shard: _Shard) -> ServiceConfig:
        # Workers always run durable in-process services: the
        # ack-after-checkpoint write-through is what makes failover
        # lossless for acknowledged observations. ``executor`` selects
        # nothing, but a worker's ``shards=0`` would reject "process". ``trace_dir`` rides
        # along via ``replace``; workers get a registry-only telemetry
        # session whenever the supervisor's is live (or tracing is on)
        # so ``/metrics`` can merge every shard's snapshot.
        return replace(
            self.config,
            executor="thread",
            shards=0,
            durable=True,
            spill_dir=shard.spill_dir,
            worker_telemetry=(
                self.config.worker_telemetry
                or OBS.enabled
                or bool(self.config.trace_dir)
            ),
        )

    def _spawn_locked(self, shard: _Shard) -> None:
        """Start a fresh worker incarnation (caller serialises)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        heartbeat = self._ctx.Value("d", time.monotonic(), lock=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                shard.index,
                child_conn,
                heartbeat,
                self.bundle,
                self._worker_config(shard),
            ),
            name=f"repro-shard-{shard.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # child's end lives in the child only
        shard.process = process
        shard.conn = parent_conn
        shard.heartbeat = heartbeat
        shard.generation += 1
        shard.spawned_at = time.monotonic()
        shard.stable = False
        shard.alive = True
        generation = shard.generation
        shard.reader = threading.Thread(
            target=self._reader_loop,
            args=(shard, parent_conn, generation),
            name=f"repro-shard-{shard.index}-reader",
            daemon=True,
        )
        shard.reader.start()
        _LOG.info(
            "shard %d: worker generation %d started (pid %s)",
            shard.index, generation, process.pid,
        )

    def _reader_loop(self, shard: _Shard, conn, generation: int) -> None:
        """Resolve pending futures from one incarnation's pipe."""
        while True:
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                # SIGKILL mid-send, worker exit, or our own close().
                break
            if not isinstance(payload, dict):
                continue
            with shard.lock:
                future = shard.pending.pop(payload.get("id"), None)
            if future is not None and not future.done():
                future.set_result(payload)
        if not shard.closing:
            self._on_worker_death(shard, generation, "pipe closed")

    def _on_worker_death(
        self, shard: _Shard, generation: int, why: str
    ) -> None:
        """Fail over one incarnation: fail its pending, maybe respawn."""
        with shard.lock:
            if shard.generation != generation or not shard.alive:
                return  # stale notification from a replaced incarnation
            shard.alive = False
            pending = list(shard.pending.values())
            shard.pending.clear()
            shard.breaker.record_failure()
            try:
                shard.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        _LOG.error(
            "shard %d: worker generation %d died (%s); failing %d "
            "in-flight request(s)",
            shard.index, generation, why, len(pending),
        )
        for future in pending:
            if not future.done():
                # Futures carry raw payload dicts; a None payload is
                # translated to WorkerCrashedError at the call site.
                future.set_result(None)
        if OBS.enabled:
            OBS.registry.counter(
                "repro_serving_worker_crashes_total",
                {"shard": str(shard.index)},
            ).inc()
        if self._shutting_down.is_set():
            return
        with shard.lock:
            # A stable worker's first crash fails over immediately (the
            # runtime's whole point); a worker that keeps dying inside
            # its stability window gets jittered exponential backoff so
            # a crash loop cannot spin the monitor thread hot.
            shard.crashes_in_row = (
                1 if shard.stable else shard.crashes_in_row + 1
            )
            if shard.crashes_in_row <= 1:
                shard.next_respawn_at = 0.0
                if shard.breaker.allow():
                    self.restarts += 1
                    self._spawn_locked(shard)
                return
            crashes = shard.crashes_in_row
            backoff = min(
                RESPAWN_BACKOFF_MAX,
                RESPAWN_BACKOFF_BASE * 2.0 ** (crashes - 2),
            ) * float(self._rng.uniform(0.5, 1.5))
            shard.next_respawn_at = time.monotonic() + backoff
            self.respawn_backoffs += 1
        _LOG.warning(
            "shard %d: %d consecutive crash(es); delaying respawn %.2fs",
            shard.index, crashes, backoff,
        )
        if OBS.enabled:
            OBS.registry.counter(
                "repro_serving_respawn_backoffs_total",
                {"shard": str(shard.index)},
            ).inc()
            OBS.emit(
                "shard_respawn_backoff",
                shard=shard.index,
                crashes=crashes,
                backoff_seconds=round(backoff, 3),
            )

    def _monitor_loop(self) -> None:
        """Detect dead and hung workers; restart when the breaker lets us."""
        while not self._shutting_down.wait(MONITOR_INTERVAL):
            now = time.monotonic()
            for shard in self._shards:
                with shard.lock:
                    alive = shard.alive
                    closing = shard.closing
                    process = shard.process
                    generation = shard.generation
                    heartbeat = (
                        shard.heartbeat.value
                        if shard.heartbeat is not None else now
                    )
                    spawned_at = shard.spawned_at
                if closing:
                    continue  # shutting down
                if not alive:
                    # Down shard: probe the restart breaker each tick so
                    # OPEN cools down and HALF_OPEN eventually retries;
                    # a crash-looping shard additionally waits out its
                    # jittered respawn backoff.
                    with shard.lock:
                        if (
                            not shard.alive
                            and not shard.closing
                            and now >= shard.next_respawn_at
                            and shard.breaker.allow()
                        ):
                            self.restarts += 1
                            self._spawn_locked(shard)
                    continue
                if process is not None and not process.is_alive():
                    self._on_worker_death(
                        shard, generation, "process exited"
                    )
                    continue
                if now - heartbeat > self.heartbeat_timeout:
                    _LOG.error(
                        "shard %d: heartbeat stale for %.1fs; killing "
                        "hung worker",
                        shard.index, now - heartbeat,
                    )
                    try:
                        process.kill()
                    except (OSError, AttributeError):
                        pass
                    # The reader's EOF triggers the actual failover.
                    continue
                if (
                    not shard.stable
                    and now - spawned_at > STABILITY_WINDOW
                ):
                    with shard.lock:
                        shard.stable = True
                        shard.crashes_in_row = 0
                        shard.breaker.record_success()

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        with self._id_lock:
            return self._request_ids()

    def _call_shard(
        self, shard: _Shard, op: str, args: Dict[str, Any], dl: Deadline
    ) -> Any:
        """One attempt against one shard; raises typed errors."""
        span = TRACER.child_span("rpc.shard", shard=shard.index, op=op)
        with span:
            request_id = self._next_id()
            future: Future = Future()
            envelope = {
                "id": request_id,
                "op": op,
                "args": args,
                "expires_at": None if dl.unbounded else dl.expires_at,
            }
            if span.ctx is not None:
                # The worker parents its ``worker.handle`` span here, so
                # the assembled trace crosses the process boundary.
                envelope["trace"] = span.ctx.to_wire()
            with shard.lock:
                if not shard.alive:
                    if shard.breaker.state is BreakerState.OPEN:
                        raise ServiceUnavailableError(
                            f"shard {shard.index} is crash-looping; its "
                            "restart breaker is open — retry later"
                        )
                    # A crash-looping shard respawns at the first
                    # monitor tick after its backoff; the retry waits
                    # for that instead of burning its attempts early.
                    respawn_in = shard.next_respawn_at - time.monotonic()
                    raise WorkerCrashedError(
                        shard.index, "worker is down (restarting)",
                        retry_after=(
                            respawn_in + MONITOR_INTERVAL
                            if respawn_in > 0 else 0.0
                        ),
                    )
                shard.pending[request_id] = future
                try:
                    shard.conn.send(envelope)
                except (OSError, BrokenPipeError) as err:
                    shard.pending.pop(request_id, None)
                    raise WorkerCrashedError(
                        shard.index, f"send failed: {err}"
                    ) from None
            timeout = (
                self.config.deadline * 4
                if dl.unbounded
                else max(0.0, dl.remaining()) + self.config.deadline
            )
            try:
                payload = future.result(timeout=timeout)
            except FutureTimeoutError:
                with shard.lock:
                    shard.pending.pop(request_id, None)
                raise ServiceUnavailableError(
                    f"shard {shard.index} did not answer within the "
                    "deadline grace period"
                ) from None
            if payload is None:
                raise WorkerCrashedError(
                    shard.index, "worker died with this request in flight"
                )
            if payload.get("ok"):
                return payload["result"]
            raise decode_error(payload)

    def _request(
        self,
        session_id: str,
        op: str,
        args: Dict[str, Any],
        *,
        deadline=None,
        idempotent: bool = True,
    ) -> Any:
        if self._shutting_down.is_set():
            raise ServiceUnavailableError(
                "shard supervisor is shutting down; refusing new requests"
            )
        validate_session_id(session_id)
        dl = coerce_deadline(deadline, self.config.deadline)

        shard = self._shards[self.ring.shard_for(session_id)]

        def attempt():
            return self._call_shard(shard, op, args, dl)

        def run():
            if not idempotent:
                return attempt()
            return self.retry_policy.call(
                attempt,
                retry_on=(WorkerCrashedError,),
                deadline=dl,
                rng=self._rng,
                on_retry=lambda n, err: _LOG.warning(
                    "retrying %s for session %s (attempt %d): %s",
                    op, session_id, n + 1, err,
                ),
            )

        # ``child_span`` keeps direct (non-HTTP) calls traceless rather
        # than minting orphan single-request traces.
        with TRACER.child_span(f"service.{op}", session=session_id):
            return run()

    # ------------------------------------------------------------------
    # ForecastService-parity operations
    # ------------------------------------------------------------------
    def create_session(
        self, session_id: str, history, **session_kwargs
    ) -> Dict[str, Any]:
        """Admit a new tenant series on its hash-ring shard.

        Retried on worker crash; if the retry then reports the session
        as already existing, the first attempt's create committed before
        the crash and the session's description is returned instead of a
        conflict (create is made idempotent for the retry path only).
        """
        attempts = {"n": 0}
        history_arr = np.asarray(history, dtype=np.float64)

        def run():
            attempts["n"] += 1
            return self._request(
                session_id,
                "create",
                {
                    "session_id": session_id,
                    "history": history_arr,
                    "session_kwargs": session_kwargs,
                },
                idempotent=False,  # retried here, with conflict handling
            )

        try:
            return self.retry_policy.call(
                run,
                retry_on=(WorkerCrashedError,),
                deadline=coerce_deadline(None, self.config.deadline),
                rng=self._rng,
            )
        except SessionExistsError:
            if attempts["n"] > 1:
                return self.session_info(session_id)
            raise

    def observe(
        self,
        session_id: str,
        value: float,
        *,
        seq: Optional[int] = None,
        deadline=None,
    ) -> Dict[str, Any]:
        """Feed one realised value; crash-retried only when ``seq`` makes
        it idempotent (a retried duplicate returns the cached ack)."""
        return self._request(
            session_id,
            "observe",
            {"session_id": session_id, "value": float(value), "seq": seq},
            deadline=deadline,
            idempotent=seq is not None,
        )

    def predict(
        self, session_id: str, *, deadline=None
    ) -> Dict[str, Any]:
        return self._request(
            session_id,
            "predict",
            {"session_id": session_id},
            deadline=deadline,
        )

    def session_info(self, session_id: str) -> Dict[str, Any]:
        return self._request(
            session_id, "info", {"session_id": session_id}
        )

    def close_session(self, session_id: str) -> None:
        attempts = {"n": 0}

        def run():
            attempts["n"] += 1
            return self._request(
                session_id,
                "close",
                {"session_id": session_id},
                idempotent=False,
            )

        try:
            self.retry_policy.call(
                run,
                retry_on=(WorkerCrashedError,),
                rng=self._rng,
            )
        except SessionNotFoundError:
            if attempts["n"] > 1:
                return  # first attempt deleted it before the crash
            raise

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        shards = []
        up = 0
        now = time.monotonic()
        for shard in self._shards:
            with shard.lock:
                alive = shard.alive
                closing = shard.closing
                breaker_state = shard.breaker.state
                generation = shard.generation
                stable = shard.stable
                heartbeat = (
                    shard.heartbeat.value
                    if shard.heartbeat is not None else None
                )
            if alive:
                up += 1
                state = "alive"
            elif closing:
                state = "stopping"
            elif breaker_state is BreakerState.OPEN:
                state = "breaker_open"
            else:
                state = "restarting"
            shards.append(
                {
                    "shard": shard.index,
                    "alive": alive,
                    "state": state,
                    "stable": stable,
                    "generation": generation,
                    "breaker": breaker_state.value,
                    "heartbeat_age_seconds": (
                        round(max(0.0, now - heartbeat), 3)
                        if alive and heartbeat is not None
                        else None
                    ),
                }
            )
        if self._shutting_down.is_set():
            status = "unavailable"
        elif up == self.n_shards:
            status = "ok"
        elif up > 0:
            status = "degraded"
        else:
            status = "unavailable"
        return {
            "status": status,
            "shards": shards,
            "shards_up": up,
            "shards_total": self.n_shards,
            "restarts": self.restarts,
            "shutting_down": self._shutting_down.is_set(),
            "uptime_seconds": round(time.time() - self._started_at, 3),
        }

    def stats(self) -> Dict[str, Any]:
        per_shard = {}
        for shard in self._shards:
            with shard.lock:
                if shard.closing and not shard.alive:
                    continue  # drained by shutdown
            try:
                per_shard[str(shard.index)] = self._call_shard(
                    shard, "stats", {}, Deadline.from_budget(1.0)
                )
            except Exception as err:  # noqa: BLE001 - stats best-effort
                per_shard[str(shard.index)] = {"error": str(err)}
        # Shards partition tenants by the hash ring, so the fleet-wide
        # per-tenant view is a bounded merge of per-shard snapshots.
        tenants = TenantAccountant.merge(
            [
                shard_stats.get("tenants", {})
                for shard_stats in per_shard.values()
                if isinstance(shard_stats, dict)
            ]
        )
        return {
            "shards": per_shard,
            "tenants": tenants,
            "restarts": self.restarts,
            "n_shards": self.n_shards,
            "uptime_seconds": round(time.time() - self._started_at, 3),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Fleet-wide registry snapshot: supervisor + every live shard.

        Best-effort per shard — a dead or slow worker contributes
        nothing rather than failing the scrape.
        """
        snapshots = [OBS.registry.snapshot()]
        for shard in self._shards:
            with shard.lock:
                if shard.closing and not shard.alive:
                    continue  # drained by shutdown
            try:
                snapshot = self._call_shard(
                    shard, "metrics", {}, Deadline.from_budget(1.0)
                )
            except Exception:  # noqa: BLE001 - scrape best-effort
                continue
            if isinstance(snapshot, dict):
                snapshots.append(snapshot)
        return merge_snapshots(snapshots)

    def metrics_text(self) -> str:
        """Prometheus text of the merged cross-worker snapshot."""
        return render_prom_snapshot(self.metrics_snapshot())

    # ------------------------------------------------------------------
    def shutdown(self) -> Dict[str, Any]:
        """Drain every worker (they spill their sessions), then reap."""
        already = self._shutting_down.is_set()
        self._shutting_down.set()
        if already:
            return {"shards": 0, "repeat": True}
        drained = 0
        for shard in self._shards:
            with shard.lock:
                shard.closing = True
                alive = shard.alive
                conn = shard.conn
            if alive and conn is not None:
                try:
                    conn.send(
                        {"id": self._next_id(), "op": "__shutdown__"}
                    )
                    drained += 1
                except (OSError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + 10.0
        for shard in self._shards:
            process = shard.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                _LOG.warning(
                    "shard %d: worker did not drain in time; killing",
                    shard.index,
                )
                process.kill()
                process.join(timeout=2.0)
            with shard.lock:
                shard.alive = False
                if shard.conn is not None:
                    try:
                        shard.conn.close()
                    except OSError:
                        pass
        summary = {
            "shards": self.n_shards,
            "drained": drained,
            "restarts": self.restarts,
        }
        _LOG.info(
            "shard supervisor shut down: %d/%d worker(s) drained",
            drained, self.n_shards,
        )
        if OBS.enabled:
            OBS.emit("supervisor_shutdown", **summary)
            OBS.flush()
        if self._owns_tracer:
            TRACER.disable()
        return summary


def make_service(bundle, config: Optional[ServiceConfig] = None):
    """Build the serving core the config asks for.

    ``shards > 0`` selects the supervised shard runtime
    (:class:`ShardSupervisor`); ``shards == 0`` builds a plain
    in-process :class:`ForecastService`. Both expose the same
    operations and error taxonomy, so the HTTP frontend and the
    benchmarks accept either.
    """
    config = config if config is not None else ServiceConfig()
    config.validate()
    if config.agent is not None and config.agent != bundle.agent_name:
        # Reject the mismatch here — before any shard worker forks or
        # a session observes — so a bad deployment fails at startup.
        raise ConfigurationError(
            f"service configured for agent {config.agent!r} but the "
            f"bundle serves a {bundle.agent_name!r} policy"
        )
    if config.shards > 0:
        return ShardSupervisor(bundle, config)
    return ForecastService(bundle, config)
