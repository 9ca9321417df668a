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

The fleet is **elastic**: :meth:`ShardSupervisor.resize` grows or
shrinks the shard count live (``POST /admin/resize``), migrating only
the ~K/n sessions whose ring ownership changes — drained, renamed
atomically between spill subtrees, and adopted by their new worker
while requests for them park against their deadlines
(:mod:`repro.serving.rebalance`). The committed/pending ring is
journalled to ``ring.json`` under the spill root, so a crash at any
migration step recovers onto one well-defined ownership map. Operators
also shed load off a hot shard (``POST /admin/rebalance``) by lowering
its ring weight; a rebalance circuit breaker stops repeatedly failing
migrations unless the caller forces them.

Construct through :func:`make_service`, which picks this runtime when
``ServiceConfig.shards > 0``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceUnavailableError,
    SessionExistsError,
    SessionMigratingError,
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
from repro.persistence import atomic_write_bytes
from repro.runtime import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    coerce_deadline,
)
from repro.serving.rebalance import Rebalancer, ShardLoad
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

#: Hard cap on how long a request parks waiting for a mid-migration
#: session handoff, independent of its own (possibly unbounded)
#: deadline. A migration takes milliseconds; ten seconds means the
#: rebalancer wedged, and the request should fail retryably.
PARK_WAIT_CAP = 10.0

#: Consecutive failed rebalances tripping the rebalance breaker (resizes
#: are refused while it is open unless the caller forces them).
REBALANCE_BREAKER_THRESHOLD = 3

#: Hot-shard rebalancing never drops a shard's ring weight below this.
MIN_SHARD_WEIGHT = 0.25

#: Name of the ring journal inside the spill root.
RING_JOURNAL = "ring.json"


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
        # Elastic-runtime state: the live (committed) ring, the pending
        # ring during a transition, per-session routing overrides, and
        # the park events requests wait on while their session migrates.
        self._route_lock = threading.Lock()
        self._ring_next: Optional[HashRing] = None
        self._overrides: Dict[str, int] = {}
        self._migrating: Dict[str, threading.Event] = {}
        self._resize_lock = threading.Lock()
        self._rebalance_breaker = CircuitBreaker(
            failure_threshold=REBALANCE_BREAKER_THRESHOLD,
            cooldown_steps=CRASH_COOLDOWN_TICKS,
        )
        self.resizes = 0
        self.respawn_backoffs = 0
        # The ring journal (and the spill tree it describes) outranks
        # the configured shard count: placement must match where the
        # session directories actually are.
        self.ring = self._recover_ring()
        self.rebalancer = Rebalancer(self)
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
        self._ring_gauges()
        _LOG.info(
            "shard supervisor up: %d worker(s) (ring v%d), spill root %s",
            self.n_shards, self.ring.version, spill_root,
        )

    # ------------------------------------------------------------------
    # Ring journal: crash-safe persistence and startup reconciliation
    # ------------------------------------------------------------------
    def shard_spill_dir(self, index: int) -> str:
        """Spill subtree of one shard (directory location == ownership)."""
        return os.path.join(self.spill_root, f"shard-{index:02d}")

    def _persist_ring(
        self, committed: HashRing, pending: Optional[HashRing] = None
    ) -> None:
        """Journal the ring state (atomic + fsynced).

        During a transition the journal holds both rings; recovery
        adopts the *pending* one — every migration renames toward it,
        so finishing the move forward is always safe, while rolling
        back could orphan already-renamed sessions.
        """
        payload: Dict[str, Any] = {"committed": committed.to_dict()}
        if pending is not None:
            payload["pending"] = pending.to_dict()
        atomic_write_bytes(
            Path(self.spill_root) / RING_JOURNAL,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    def _recover_ring(self) -> HashRing:
        """Load the journalled ring and heal the spill tree to match it.

        Runs before any worker spawns, so renaming session directories
        is race-free. A crash at any point mid-migration leaves each
        session directory in exactly one shard subtree (``os.rename``
        is atomic); reconciliation moves every directory to the shard
        the recovered ring says owns it, restoring the invariant that
        routing and durable state agree.
        """
        path = Path(self.spill_root) / RING_JOURNAL
        ring: Optional[HashRing] = None
        if path.exists():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                pending = payload.get("pending")
                target = pending or payload.get("committed")
                if target:
                    ring = HashRing.from_dict(target)
                    if pending:
                        _LOG.warning(
                            "recovering interrupted resize: adopting "
                            "pending ring v%d", ring.version,
                        )
            except (OSError, ValueError, KeyError, TypeError) as err:
                _LOG.error(
                    "unreadable ring journal %s (%s); starting from the "
                    "configured shard count", path, err,
                )
        if ring is None:
            ring = HashRing(self.n_shards)
        elif ring.n_shards != self.n_shards:
            _LOG.warning(
                "ring journal says %d shard(s), config says %d; the "
                "journal wins (placement must match the spill tree)",
                ring.n_shards, self.n_shards,
            )
            self.n_shards = ring.n_shards
        self._reconcile_spill_tree(ring)
        self._persist_ring(ring)
        return ring

    def _reconcile_spill_tree(self, ring: HashRing) -> None:
        """Move every session directory under its ring owner's subtree."""
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
                    # Cannot happen if the rename protocol held; never
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
                "ring recovery moved %d session directorie(s) to their "
                "ring owners", moved,
            )

    def _ring_gauges(self) -> None:
        if OBS.enabled:
            OBS.registry.gauge("repro_serving_ring_version").set(
                float(self.ring.version)
            )
            OBS.registry.gauge("repro_serving_shards").set(
                float(self.n_shards)
            )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _worker_config(self, shard: _Shard) -> ServiceConfig:
        # Workers always run durable thread-executor services: the
        # ack-after-checkpoint write-through is what makes failover
        # lossless for acknowledged observations. ``trace_dir`` rides
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
            for shard in list(self._shards):
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
                    continue  # retired by a ring shrink (or shutdown)
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
                    raise WorkerCrashedError(
                        shard.index, "worker is down (restarting)"
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

    def _route_index(
        self, session_id: str, dl: Deadline, *, creating: bool = False
    ) -> int:
        """The shard index a request should go to, right now.

        Honours (in priority order) the per-session park event of an
        in-flight migration — the request waits, bounded by its own
        deadline and :data:`PARK_WAIT_CAP`, instead of being dropped —
        then the per-session routing override (sessions moved ahead of
        ring commit, or pinned after a failed migration), then the
        committed ring. Creates arriving mid-transition are placed by
        the *pending* ring (with an override so they are reachable
        immediately): they must not land on a shard about to lose that
        slice of the keyspace.
        """
        cap = time.monotonic() + PARK_WAIT_CAP
        while True:
            with self._route_lock:
                event = self._migrating.get(session_id)
                if event is None:
                    override = self._overrides.get(session_id)
                    if override is not None:
                        return override
                    if creating and self._ring_next is not None:
                        index = self._ring_next.shard_for(session_id)
                        self._overrides[session_id] = index
                        return index
                    return self.ring.shard_for(session_id)
            if dl.expired():
                raise DeadlineExceededError()
            now = time.monotonic()
            if now >= cap:
                raise ServiceUnavailableError(
                    f"session {session_id!r} is mid-migration and its "
                    f"handoff did not complete within {PARK_WAIT_CAP:.0f}s"
                )
            timeout = cap - now
            if not dl.unbounded:
                timeout = min(timeout, max(0.0, dl.remaining()))
            event.wait(timeout)

    def _request(
        self,
        session_id: str,
        op: str,
        args: Dict[str, Any],
        *,
        deadline=None,
        idempotent: bool = True,
        creating: bool = False,
    ) -> Any:
        if self._shutting_down.is_set():
            raise ServiceUnavailableError(
                "shard supervisor is shutting down; refusing new requests"
            )
        validate_session_id(session_id)
        dl = coerce_deadline(deadline, self.config.deadline)

        def attempt():
            # Re-resolve the route on every attempt: between retries
            # the session may have finished migrating to another shard
            # (or its shard may have been replaced by failover).
            index = self._route_index(session_id, dl, creating=creating)
            return self._call_shard(self._shards[index], op, args, dl)

        def run():
            if not idempotent:
                return attempt()
            return self.retry_policy.call(
                attempt,
                retry_on=(WorkerCrashedError, SessionMigratingError),
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
                creating=True,
            )

        try:
            return self.retry_policy.call(
                run,
                retry_on=(WorkerCrashedError, SessionMigratingError),
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
                retry_on=(WorkerCrashedError, SessionMigratingError),
                rng=self._rng,
            )
        except SessionNotFoundError:
            if attempts["n"] > 1:
                with self._route_lock:
                    self._overrides.pop(session_id, None)
                return  # first attempt deleted it before the crash
            raise
        with self._route_lock:
            # A closed session needs no pin/override any more.
            self._overrides.pop(session_id, None)

    # ------------------------------------------------------------------
    # Elastic runtime: migration primitives (driven by the Rebalancer)
    # ------------------------------------------------------------------
    def known_session_ids(self) -> List[str]:
        """Every session the fleet answers for, from both sources.

        Workers report what they hold (covers created-but-never-synced
        sessions with no directory yet); the spill-tree scan covers
        shards that are down or crash-looping. Union, so a dead worker
        cannot hide sessions from a resize plan.
        """
        ids = set()
        for shard in list(self._shards):
            sub = Path(shard.spill_dir)
            if sub.is_dir():
                for child in sub.iterdir():
                    if child.is_dir() and SESSION_ID_PATTERN.match(
                        child.name
                    ):
                        ids.add(child.name)
            with shard.lock:
                alive = shard.alive
            if alive:
                try:
                    ids.update(self._call_shard(
                        shard, "sessions", {}, Deadline.from_budget(2.0)
                    ))
                except Exception:  # noqa: BLE001 - scan covers dead ones
                    pass
        return sorted(ids)

    def pinned_overrides(self) -> Dict[str, int]:
        """Sessions routed off-ring (pinned after a failed migration)."""
        with self._route_lock:
            return dict(self._overrides)

    def park_session(self, session_id: str) -> None:
        """Start double-routing: new requests wait for the handoff."""
        with self._route_lock:
            self._migrating.setdefault(session_id, threading.Event())

    def unpark_session(
        self, session_id: str, owner: Optional[int]
    ) -> None:
        """End double-routing; ``owner`` pins the session's route (or
        clears it when the session turned out not to exist at all)."""
        with self._route_lock:
            event = self._migrating.pop(session_id, None)
            if owner is None:
                self._overrides.pop(session_id, None)
            else:
                self._overrides[session_id] = owner
        if event is not None:
            event.set()

    def release_on_shard(
        self, index: int, session_id: str, *, timeout: float = 5.0
    ) -> Dict[str, Any]:
        """Quiesce + final durable checkpoint on the old owner.

        Retried across worker crashes: the store's release is
        idempotent, and a replacement worker (which re-adopted the
        spill subtree on spawn) answers the retry correctly.
        """
        shard = self._shards[index]
        dl = Deadline.from_budget(timeout + 15.0)
        return self.retry_policy.call(
            lambda: self._call_shard(
                shard, "release",
                {"session_id": session_id, "timeout": timeout}, dl,
            ),
            retry_on=(WorkerCrashedError,),
            deadline=dl,
            rng=self._rng,
        )

    def adopt_on_shard(self, index: int, session_id: str) -> bool:
        """Register the renamed spill directory with its new owner."""
        shard = self._shards[index]
        dl = Deadline.from_budget(15.0)
        return bool(self.retry_policy.call(
            lambda: self._call_shard(
                shard, "adopt", {"session_id": session_id}, dl,
            ),
            retry_on=(WorkerCrashedError,),
            deadline=dl,
            rng=self._rng,
        ))

    def begin_transition(self, new_ring: HashRing) -> None:
        """Journal the pending ring; creates start routing by it."""
        with self._route_lock:
            self._ring_next = new_ring
        self._persist_ring(self.ring, pending=new_ring)

    def commit_transition(
        self, new_ring: HashRing, pinned: List[Any]
    ) -> None:
        """Swap in the new ring and drop overrides it agrees with.

        Overrides that still disagree (failed migrations) stay pinned —
        the session keeps serving from wherever its directory is, and
        the next resize replans it. Shards the new ring dropped are
        retired, unless a pinned session still lives there (then the
        worker keeps draining).
        """
        with self._route_lock:
            self.ring = new_ring
            self._ring_next = None
            self.n_shards = new_ring.n_shards
            for sid in [
                sid for sid, index in self._overrides.items()
                if index == new_ring.shard_for(sid)
            ]:
                del self._overrides[sid]
        self._persist_ring(new_ring)
        self._ring_gauges()
        if pinned:
            _LOG.warning(
                "ring v%d committed with %d session(s) pinned off-ring "
                "after failed migrations", new_ring.version, len(pinned),
            )
        self._retire_excess_shards()

    def _retire_excess_shards(self) -> None:
        with self._route_lock:
            pinned_shards = set(self._overrides.values())
        for shard in list(self._shards)[self.n_shards:]:
            if shard.index in pinned_shards:
                _LOG.warning(
                    "shard %d left the ring but session(s) are pinned "
                    "to it; leaving its worker draining", shard.index,
                )
                continue
            self._stop_shard(shard)

    def _stop_shard(self, shard: _Shard) -> None:
        """Drain and reap one worker (ring shrink retirement)."""
        with shard.lock:
            if shard.closing and not shard.alive:
                return  # already retired
            shard.closing = True
            alive = shard.alive
            conn = shard.conn
        if alive and conn is not None:
            try:
                conn.send({"id": self._next_id(), "op": "__shutdown__"})
            except (OSError, BrokenPipeError):
                pass
        process = shard.process
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        with shard.lock:
            shard.alive = False
            if shard.conn is not None:
                try:
                    shard.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        _LOG.info("shard %d retired (ring shrink)", shard.index)

    def _ensure_shards(self, n: int) -> None:
        """Spawn (or revive retired) workers for shard slots < ``n``."""
        while len(self._shards) < n:
            index = len(self._shards)
            self._shards.append(
                _Shard(index, self.shard_spill_dir(index))
            )
        for shard in list(self._shards)[:n]:
            with shard.lock:
                shard.closing = False
                if not shard.alive and not self._shutting_down.is_set():
                    shard.crashes_in_row = 0
                    shard.next_respawn_at = 0.0
                    self._spawn_locked(shard)

    # ------------------------------------------------------------------
    # Elastic runtime: operator entry points
    # ------------------------------------------------------------------
    def _count_resize(self, kind: str) -> None:
        self.resizes += 1
        if OBS.enabled:
            OBS.registry.counter(
                "repro_serving_resizes_total", {"kind": kind}
            ).inc()

    def _check_rebalance_allowed(self, force: bool) -> None:
        if self._shutting_down.is_set():
            raise ServiceUnavailableError(
                "shard supervisor is shutting down; refusing resize"
            )
        if not force and not self._rebalance_breaker.allow():
            raise ServiceUnavailableError(
                "rebalance circuit breaker is open after repeated "
                "failed migrations; retry later or force"
            )

    def _finish_rebalance(self, kind: str, report) -> None:
        self._count_resize(kind)
        if report.ok:
            self._rebalance_breaker.record_success()
        else:
            self._rebalance_breaker.record_failure()

    def resize(
        self, n_shards: int, *, force: bool = False,
        reason: str = "operator",
    ) -> Dict[str, Any]:
        """Grow or shrink the fleet to ``n_shards``, migrating live.

        One resize/rebalance runs at a time; a second caller gets a
        retryable :class:`ServiceUnavailableError` instead of queueing
        behind a potentially long migration.
        """
        n = int(n_shards)
        if n < 1:
            raise ConfigurationError(
                f"cannot resize to {n} shard(s); need >= 1"
            )
        if not self._resize_lock.acquire(blocking=False):
            raise ServiceUnavailableError(
                "another resize/rebalance is already in progress"
            )
        try:
            self._check_rebalance_allowed(force)
            old = self.ring
            if n == old.n_shards and not force:
                return {"changed": False, "ring": old.describe()}
            kind = (
                "grow" if n > old.n_shards
                else "shrink" if n < old.n_shards else "rebalance"
            )
            new_ring = old.resized(n)
            if n > old.n_shards:
                # New workers must be serving before any session is
                # renamed into their subtrees.
                self._ensure_shards(n)
            report = self.rebalancer.execute(new_ring, f"{reason}:{kind}")
            self._finish_rebalance(kind, report)
            return {
                "changed": True,
                "kind": kind,
                "ring": self.ring.describe(),
                "report": report.to_dict(),
            }
        finally:
            self._resize_lock.release()

    def rebalance_shard(
        self, shard: Optional[int] = None, *, factor: float = 0.5,
        force: bool = False, reason: str = "operator",
    ) -> Dict[str, Any]:
        """Shed load off a hot shard by lowering its ring weight.

        Lowering a weight removes only that shard's highest-index
        vnodes, so the only sessions that move are sessions moving
        *off* the hot shard. ``shard=None`` picks the heaviest live
        shard by current load score.
        """
        if not 0.0 < factor < 1.0:
            raise ConfigurationError(
                f"rebalance factor must be in (0, 1), got {factor}"
            )
        if not self._resize_lock.acquire(blocking=False):
            raise ServiceUnavailableError(
                "another resize/rebalance is already in progress"
            )
        try:
            self._check_rebalance_allowed(force)
            if shard is None:
                alive = [
                    load for load in self._gather_loads() if load.alive
                ]
                if not alive:
                    raise ServiceUnavailableError(
                        "no live shard to rebalance"
                    )
                shard = max(alive, key=lambda load: load.score()).shard
            index = int(shard)
            if not 0 <= index < self.ring.n_shards:
                raise ConfigurationError(
                    f"shard {index} outside ring of {self.ring.n_shards}"
                )
            weight = self.ring.weights[index]
            new_weight = max(MIN_SHARD_WEIGHT, weight * factor)
            if new_weight >= weight:
                return {
                    "changed": False,
                    "reason": f"shard {index} weight already at floor",
                    "ring": self.ring.describe(),
                }
            new_ring = self.ring.reweighted(index, new_weight)
            report = self.rebalancer.execute(
                new_ring, f"{reason}:hot-shard-{index}"
            )
            self._finish_rebalance("rebalance", report)
            return {
                "changed": True,
                "kind": "rebalance",
                "shard": index,
                "weight": new_weight,
                "ring": self.ring.describe(),
                "report": report.to_dict(),
            }
        finally:
            self._resize_lock.release()

    def ring_info(self) -> Dict[str, Any]:
        """Operator view of the ring (``GET /admin/ring``)."""
        with self._route_lock:
            info = self.ring.describe()
            info["transition"] = (
                self._ring_next.describe()
                if self._ring_next is not None else None
            )
            info["overrides"] = dict(self._overrides)
            info["migrating"] = sorted(self._migrating)
        info["draining"] = [
            shard.index for shard in list(self._shards)[self.n_shards:]
            if shard.alive
        ]
        info["resizes"] = self.resizes
        return info

    def _gather_loads(self) -> List[ShardLoad]:
        """One load sample per ring shard (hot-shard selection)."""
        loads = []
        for shard in list(self._shards)[: self.n_shards]:
            with shard.lock:
                alive = shard.alive
            load = ShardLoad(shard=shard.index, alive=alive)
            if alive:
                try:
                    payload = self._call_shard(
                        shard, "load", {}, Deadline.from_budget(1.0)
                    )
                    load.queue_depth = int(payload.get("queue_depth", 0))
                    load.sessions = int(payload.get("sessions", 0))
                except Exception:  # noqa: BLE001 - sample best-effort
                    load.alive = False
            loads.append(load)
        return loads

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        shards = []
        up = 0
        now = time.monotonic()
        for shard in list(self._shards):
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
            in_ring = shard.index < self.n_shards
            if not in_ring and not alive:
                continue  # retired by a ring shrink
            if alive:
                if in_ring:
                    up += 1
                state = "alive" if in_ring else "draining"
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
            "ring_version": self.ring.version,
            "restarts": self.restarts,
            "resizes": self.resizes,
            "shutting_down": self._shutting_down.is_set(),
            "uptime_seconds": round(time.time() - self._started_at, 3),
        }

    def stats(self) -> Dict[str, Any]:
        per_shard = {}
        for shard in list(self._shards):
            with shard.lock:
                if shard.closing and not shard.alive:
                    continue  # retired by a ring shrink
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
            "resizes": self.resizes,
            "n_shards": self.n_shards,
            "ring": self.ring.describe(),
            "uptime_seconds": round(time.time() - self._started_at, 3),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Fleet-wide registry snapshot: supervisor + every live shard.

        Best-effort per shard — a dead or slow worker contributes
        nothing rather than failing the scrape.
        """
        snapshots = [OBS.registry.snapshot()]
        for shard in list(self._shards):
            with shard.lock:
                if shard.closing and not shard.alive:
                    continue  # retired by a ring shrink
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
        for shard in list(self._shards):
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
        for shard in list(self._shards):
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
