"""Bounded LRU session store with checkpoint-backed spill/restore.

Holds at most ``capacity`` resident :class:`SeriesSession` objects; the
least-recently-used unpinned session is spilled to disk when a new one
needs the slot. Spill uses :class:`repro.runtime.CheckpointManager`
(atomic payload+manifest, SHA-256 verified, corrupt snapshots
quarantined), one subdirectory per session id, so an eviction survives a
process crash and a restored session is **bit-identical** to one that
never left memory (``tests/serving/test_store.py`` proves it against an
always-resident twin).

Concurrency model: one store-level mutex guards the LRU map, pin counts,
and the spilled-id set; each session additionally carries its own RLock
(taken by ``SeriesSession.observe``), so two requests for the *same*
session serialise while requests for different sessions proceed in
parallel. :meth:`acquire` pins the session for the duration of the
caller's work — pinned sessions are never spilled mid-request.

Durability and corruption:

- :meth:`sync` checkpoints a resident session **without** evicting it —
  the write-through used by durable (shard-mode) serving, where an
  ``observe`` is only acknowledged once its state has hit the spill
  tier;
- next to each session's snapshots lives a tiny *history sidecar*
  (``history.npz``, the recent tail of the raw series) written on every
  spill/sync. When restore finds only corrupt snapshots (all
  quarantined by :class:`~repro.runtime.CheckpointManager`), the store
  raises :class:`~repro.exceptions.SessionCorruptError` and parks a
  :class:`DegradedSession` built from the sidecar, from which the
  service serves ensemble-average forecasts instead of erroring. A
  corrupt session can always be deleted and recreated — or recreated
  directly, which purges the quarantined remnants.
"""

from __future__ import annotations

import re
import shutil
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.exceptions import (
    CheckpointCorruptError,
    CheckpointError,
    ServingError,
    SessionCorruptError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.obs import OBS, get_logger
from repro.obs.registry import FAST_BUCKETS
from repro.obs.trace import TRACER
from repro.persistence import (
    atomic_write_bytes,
    load_npz_bytes,
    npz_bytes,
    write_bytes_unsynced,
)
from repro.runtime import CheckpointManager
from repro.serving.session import SeriesSession

_LOG = get_logger("serving.store")

#: Session ids double as spill subdirectory names; keep them filesystem-
#: and URL-safe.
SESSION_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Snapshot kind used for spilled sessions ('-' and '/' are reserved).
SPILL_KIND = "session"

#: Sidecar filename inside a session's spill directory. Safe from the
#: CheckpointManager sweep, which only touches ``<kind>-<step>.*``.
SIDECAR_NAME = "history.npz"

#: Minimum raw-history tail length kept in the sidecar.
SIDECAR_MIN_TAIL = 128


class DegradedSession:
    """Leftover serving state of a session whose snapshots are corrupt.

    Holds the raw-history tail recovered from the sidecar plus its own
    idempotency ledger, so retried observes against a degraded session
    are exactly-once too. Created lazily the first time a restore fails
    with every snapshot quarantined.
    """

    __slots__ = ("session_id", "history", "ack_seq", "ack_response", "lock")

    def __init__(self, session_id: str, history: Optional[np.ndarray]):
        self.session_id = session_id
        self.history = (
            np.asarray(history, dtype=np.float64).copy()
            if history is not None else None
        )
        self.ack_seq: Optional[int] = None
        self.ack_response: Optional[Dict[str, Any]] = None
        self.lock = threading.RLock()


def validate_session_id(session_id: str) -> str:
    if not isinstance(session_id, str) or not SESSION_ID_PATTERN.match(
        session_id
    ):
        raise ServingError(
            f"invalid session id {session_id!r}: must match "
            f"{SESSION_ID_PATTERN.pattern}"
        )
    return session_id


class SessionStore:
    """LRU-bounded map of live sessions with transparent disk spill."""

    def __init__(
        self,
        bundle,
        *,
        capacity: int = 128,
        spill_dir: Optional[str] = None,
        keep_snapshots: int = 2,
        durable: bool = False,
    ):
        if capacity < 1:
            raise ServingError(f"capacity must be >= 1, got {capacity}")
        self.bundle = bundle
        self.capacity = int(capacity)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.keep_snapshots = int(keep_snapshots)
        #: Durable spill writes fsync payload+manifest (the write-through
        #: commit point of durable serving); non-durable treats the spill
        #: directory as a cache of live sessions — atomic but unsynced
        #: writes, several times cheaper on the LRU-churn hot path.
        self.durable = bool(durable)
        self._sessions: "OrderedDict[str, SeriesSession]" = OrderedDict()
        self._managers: Dict[str, CheckpointManager] = {}
        #: Manifest path of each session's newest spill snapshot — lets
        #: the restore path load it directly instead of re-scanning the
        #: session's directory on every acquire-miss.
        self._last_manifest: Dict[str, Path] = {}
        #: Sessions whose spill directory is known to exist (mkdir-once
        #: guard for the per-eviction sidecar write).
        self._sidecar_dirs: set = set()
        self._pins: Dict[str, int] = {}
        self._spilled: set = set()
        self._degraded: Dict[str, DegradedSession] = {}
        self._lock = threading.Lock()
        #: Optional callable ``(session_id) -> None`` invoked after each
        #: successful spill restore — the service points it at the
        #: tenant accountant so restores are attributed per tenant.
        self.restore_listener = None
        self.evictions = 0
        self.restores = 0
        self.corruptions = 0
        self.acquires = 0
        # Recent restore wall-times (seconds) for the thrash baseline
        # surfaced by stats(); bounded so a long-lived store stays O(1).
        self._restore_times: List[float] = []
        self._restore_times_cap = 1024
        min_history = getattr(bundle, "min_history", None)
        self._sidecar_tail = max(
            SIDECAR_MIN_TAIL,
            int(min_history()) if callable(min_history) else 0,
        )
        if self.spill_dir is not None and self.spill_dir.is_dir():
            # Re-adopt sessions a previous process spilled (crash or
            # graceful shutdown); they restore lazily on first access.
            for child in self.spill_dir.iterdir():
                if child.is_dir() and SESSION_ID_PATTERN.match(child.name):
                    self._spilled.add(child.name)
            if self._spilled:
                _LOG.info(
                    "adopted %d spilled session(s) from %s",
                    len(self._spilled), self.spill_dir,
                )

    # ------------------------------------------------------------------
    def _manager(self, session_id: str) -> CheckpointManager:
        if self.spill_dir is None:
            raise ServingError(
                "session store has no spill directory configured"
            )
        # Cached per session: manager construction is cheap but the
        # spill hot path runs once per evicted request at capacity.
        manager = self._managers.get(session_id)
        if manager is None:
            manager = CheckpointManager(
                self.spill_dir / session_id,
                keep=self.keep_snapshots,
                durable=self.durable,
            )
            self._managers[session_id] = manager
        return manager

    def _gauges(self) -> None:
        if OBS.enabled:
            registry = OBS.registry
            registry.gauge("repro_serving_sessions_resident").set(
                float(len(self._sessions))
            )
            registry.gauge("repro_serving_sessions_spilled").set(
                float(len(self._spilled))
            )

    # ------------------------------------------------------------------
    # Sidecar: raw-history tail for degraded-mode forecasting
    # ------------------------------------------------------------------
    def _sidecar_path(self, session_id: str) -> Path:
        return self.spill_dir / session_id / SIDECAR_NAME

    def _write_sidecar(self, session_id: str, history) -> None:
        if history is None or self.spill_dir is None:
            return
        tail = np.asarray(history, dtype=np.float64)[-self._sidecar_tail:]
        path = self._sidecar_path(session_id)
        if session_id not in self._sidecar_dirs:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._sidecar_dirs.add(session_id)
        writer = atomic_write_bytes if self.durable else write_bytes_unsynced
        writer(path, npz_bytes({"history": tail}))

    def _load_sidecar(self, session_id: str) -> Optional[np.ndarray]:
        path = self._sidecar_path(session_id)
        try:
            return load_npz_bytes(path.read_bytes())["history"]
        except Exception:  # noqa: BLE001 - a torn sidecar is best-effort
            return None

    # ------------------------------------------------------------------
    def _save_snapshot(self, session_id: str, session: SeriesSession) -> None:
        # pristine_light: a session whose agent never ran a policy update
        # spills without its network/optimizer arrays — the restorer
        # re-copies them from the bundle template, guarded by the digest
        # stamped here (a redeploy with different template weights must
        # not silently restore against them).
        arrays, meta = session.checkpoint_state(pristine_light=True)
        if meta.get("agent", {}).get("pristine"):
            digest = getattr(self.bundle, "template_digest", None)
            if callable(digest):
                meta["template_digest"] = digest()
        self._last_manifest[session_id] = self._manager(session_id).save(
            SPILL_KIND,
            session.step,
            arrays,
            meta,
            context={"session_id": session_id},
        )
        self._write_sidecar(session_id, session.history)

    def _evict_one_locked(self) -> bool:
        """Spill the LRU unpinned session; False when all are pinned."""
        victim_id = None
        for sid in self._sessions:  # insertion order == LRU order
            if self._pins.get(sid, 0) == 0:
                victim_id = sid
                break
        if victim_id is None:
            return False
        session = self._sessions.pop(victim_id)
        with TRACER.child_span("store.spill", session=victim_id):
            self._save_snapshot(victim_id, session)
        self._spilled.add(victim_id)
        self.evictions += 1
        if OBS.enabled:
            OBS.registry.counter("repro_serving_evictions_total").inc()
        _LOG.debug(
            "spilled session %s at step %d", victim_id, session.step
        )
        return True

    def _restore_locked(self, session_id: str) -> SeriesSession:
        with TRACER.child_span("store.restore", session=session_id):
            return self._restore_inner_locked(session_id)

    def _restore_inner_locked(self, session_id: str) -> SeriesSession:
        t0 = time.perf_counter()
        try:
            snapshot = None
            last = self._last_manifest.get(session_id)
            if last is not None:
                # Fast path: this process wrote the snapshot, so load
                # it directly. Any problem — moved, torn, rewritten by
                # a redeploy — falls back to the scanning path below,
                # which owns quarantine/degraded semantics.
                try:
                    candidate = self._manager(session_id).load(last)
                    if (
                        candidate.manifest.get("context", {}).get(
                            "session_id"
                        ) == session_id
                    ):
                        snapshot = candidate
                except (CheckpointError, CheckpointCorruptError, OSError):
                    self._last_manifest.pop(session_id, None)
            if snapshot is None:
                snapshot = self._manager(session_id).restore_latest(
                    SPILL_KIND, context={"session_id": session_id},
                    strict=True,
                )
        except CheckpointCorruptError as err:
            # Snapshots existed but every one was quarantined: the
            # learned state is unrecoverable. Park a DegradedSession
            # built from the sidecar so the service can keep answering.
            self._spilled.discard(session_id)
            self._degraded[session_id] = DegradedSession(
                session_id, self._load_sidecar(session_id)
            )
            self.corruptions += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "repro_serving_corrupt_sessions_total"
                ).inc()
            _LOG.error(
                "session %s is corrupt on disk; degraded mode engaged: %s",
                session_id, err,
            )
            raise SessionCorruptError(session_id) from err
        if snapshot is None:
            # No snapshot ever landed: the session is simply gone.
            self._spilled.discard(session_id)
            raise SessionNotFoundError(session_id)
        session = self.bundle.restore_session(
            session_id, snapshot.arrays, snapshot.meta
        )
        self.restores += 1
        elapsed = time.perf_counter() - t0
        if len(self._restore_times) >= self._restore_times_cap:
            del self._restore_times[: self._restore_times_cap // 2]
        self._restore_times.append(elapsed)
        if OBS.enabled:
            OBS.registry.counter("repro_serving_restores_total").inc()
            # Sub-ms ladder: post-PR 7 restores cluster around 0.85 ms,
            # one bucket wide on the default grid.
            OBS.registry.histogram(
                "repro_serving_restore_seconds", buckets=FAST_BUCKETS
            ).observe(elapsed)
        if self.restore_listener is not None:
            # Accountant hook — takes only its own lock, never ours.
            self.restore_listener(session_id)
        _LOG.debug(
            "restored session %s at step %d", session_id, snapshot.step
        )
        return session

    def _admit_locked(self, session_id: str, session: SeriesSession) -> None:
        while len(self._sessions) >= self.capacity:
            if not self._evict_one_locked():
                # Every resident session mid-request: allow a temporary
                # soft overshoot rather than failing the caller.
                break
        self._sessions[session_id] = session
        self._sessions.move_to_end(session_id)
        self._gauges()

    # ------------------------------------------------------------------
    def create(
        self, session_id: str, history: np.ndarray, **session_kwargs
    ) -> SeriesSession:
        """Create and admit a new session (LRU-evicting if full).

        Recreating a session whose snapshots were quarantined as corrupt
        is allowed: the degraded remnants (quarantine directory and
        sidecar included) are purged and the id starts fresh.
        """
        validate_session_id(session_id)
        with self._lock:
            self._check_creatable_locked(session_id)
        # Build outside the lock: bootstrap prediction matrices are the
        # expensive part and need no shared state.
        session = self.bundle.create_session(
            session_id, history, **session_kwargs
        )
        with self._lock:
            self._check_creatable_locked(session_id)
            self._admit_locked(session_id, session)
        return session

    def _check_creatable_locked(self, session_id: str) -> None:
        if session_id in self._sessions or session_id in self._spilled:
            raise SessionExistsError(session_id)
        if self._degraded.pop(session_id, None) is not None:
            if self.spill_dir is not None:
                shutil.rmtree(
                    self.spill_dir / session_id, ignore_errors=True
                )
            _LOG.info(
                "recreating corrupt session %s: quarantined remnants "
                "purged", session_id,
            )

    @contextmanager
    def acquire(self, session_id: str) -> Iterator[SeriesSession]:
        """Yield the (restored-if-spilled) session, pinned against spill."""
        with self._lock:
            self.acquires += 1
            if session_id in self._degraded:
                raise SessionCorruptError(session_id)
            session = self._sessions.get(session_id)
            if session is None:
                if session_id not in self._spilled:
                    raise SessionNotFoundError(session_id)
                session = self._restore_locked(session_id)
                self._admit_locked(session_id, session)
            else:
                self._sessions.move_to_end(session_id)
            self._pins[session_id] = self._pins.get(session_id, 0) + 1
        try:
            yield session
        finally:
            with self._lock:
                remaining = self._pins.get(session_id, 1) - 1
                if remaining:
                    self._pins[session_id] = remaining
                else:
                    self._pins.pop(session_id, None)

    def sync(self, session_id: str) -> bool:
        """Checkpoint a resident session in place (durable write-through).

        The commit point of durable serving: an ``observe`` is only
        acknowledged after ``sync`` returns, so an acknowledged
        observation survives any subsequent crash. Spilled sessions are
        already durable; returns False for those (and for unknown ids —
        the caller holds the session via :meth:`acquire` anyway).
        """
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            return False
        with TRACER.child_span("store.checkpoint", session=session_id):
            self._save_snapshot(session_id, session)
        return True

    # ------------------------------------------------------------------
    # Degraded sessions (corrupt spill state)
    # ------------------------------------------------------------------
    def degraded_session(self, session_id: str) -> Optional[DegradedSession]:
        """The parked degraded state of a corrupt session, if any."""
        with self._lock:
            return self._degraded.get(session_id)

    def degraded_ids(self) -> List[str]:
        with self._lock:
            return list(self._degraded)

    def persist_degraded(self, session_id: str) -> None:
        """Rewrite the sidecar so degraded observations survive restarts."""
        degraded = self.degraded_session(session_id)
        if degraded is not None and degraded.history is not None:
            self._write_sidecar(session_id, degraded.history)

    def close(self, session_id: str) -> None:
        """Forget a session and delete its spill snapshots."""
        with self._lock:
            known = (
                self._sessions.pop(session_id, None) is not None
                or session_id in self._spilled
                or session_id in self._degraded
            )
            self._spilled.discard(session_id)
            self._degraded.pop(session_id, None)
            self._managers.pop(session_id, None)
            self._last_manifest.pop(session_id, None)
            self._sidecar_dirs.discard(session_id)
            self._gauges()
        if not known:
            raise SessionNotFoundError(session_id)
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir / session_id, ignore_errors=True)

    # ------------------------------------------------------------------
    def spill_all(self) -> int:
        """Checkpoint every resident session to disk (shutdown path)."""
        spilled = 0
        with self._lock:
            for sid in list(self._sessions):
                if self._evict_one_locked():
                    spilled += 1
            self._gauges()
        return spilled

    def resident_ids(self) -> list:
        with self._lock:
            return list(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return (
                session_id in self._sessions
                or session_id in self._spilled
                or session_id in self._degraded
            )

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._sessions)
                + len(self._spilled)
                + len(self._degraded)
            )

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            times = np.asarray(self._restore_times)
            return {
                "resident": len(self._sessions),
                "spilled": len(self._spilled),
                "degraded": len(self._degraded),
                "capacity": self.capacity,
                "pinned": sum(1 for n in self._pins.values() if n > 0),
                "evictions": self.evictions,
                "restores": self.restores,
                "corruptions": self.corruptions,
                "acquires": self.acquires,
                # Thrash baseline for eviction-policy work: how often an
                # acquire paid a disk restore, and what one cost.
                "restores_per_acquire": (
                    self.restores / self.acquires if self.acquires else 0.0
                ),
                "restore_latency_ms": {
                    "p50": float(np.percentile(times, 50) * 1e3),
                    "p95": float(np.percentile(times, 95) * 1e3),
                } if times.size else None,
            }
