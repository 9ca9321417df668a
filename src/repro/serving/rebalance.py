"""Live ring resize: the session migration protocol.

The elastic half of the shard runtime. :class:`Rebalancer` executes the
supervisor-driven migration protocol that moves sessions between shard
workers while they keep serving, whenever an operator resizes the ring
or sheds load off a hot shard.

Migration protocol (per session, driven from the supervisor process)::

        ┌─────────┐  park   ┌──────────┐ release ┌──────────┐
        │ SERVING ├────────>│ DRAINING ├────────>│ RELEASED │
        └─────────┘         └──────────┘         └────┬─────┘
             ^    old owner serves; new                │ rename
             │    arrivals park on a                   v (atomic)
             │    per-session event              ┌──────────┐
        ┌────┴────┐  unpark + route   adopt      │  MOVED   │
        │ SERVING │<────────────────────────────┤└──────────┘
        └─────────┘  override → new owner


- **park** — the supervisor parks new requests for the migrating
  session against their :class:`~repro.runtime.Deadline` (they wait for
  the handoff, they are not dropped); requests already inside the old
  owner finish normally (the store waits out their pins);
- **release** — the old owner quiesces the session and writes one final
  durable checkpoint, idempotency ledger included
  (:meth:`SessionStore.release`); from here the session's entire state
  lives in its spill directory;
- **rename** — the supervisor atomically renames the session's spill
  directory from the old shard's subtree into the new shard's. This is
  the *commit point of ownership*: directory location decides which
  worker re-adopts the session after any crash, and ``os.rename`` on
  one filesystem cannot leave it in both;
- **adopt** — the new owner registers the directory
  (:meth:`SessionStore.adopt`); the session restores lazily through the
  exact spill/restore path that crash failover already proves
  bit-identical;
- **unpark** — a routing override points the session at its new owner
  until the new ring commits.

Crash safety: every step is idempotent or atomic. A worker SIGKILLed
mid-``release`` leaves the directory under the old owner (its
replacement re-adopts it; the retried release finds it already
durable); SIGKILLed around ``rename``/``adopt``, the directory is in
exactly one subtree and the retried adopt is a no-op. A migration whose
retries exhaust is *pinned*: the supervisor routes the session at
whichever shard's subtree holds its directory, and the session stays
serveable while the resize reports the failure.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.exceptions import ServingError
from repro.obs import OBS, get_logger
from repro.obs.trace import NEW_TRACE, TRACER
from repro.serving.ring import HashRing

_LOG = get_logger("serving.rebalance")

__all__ = [
    "Migration",
    "MigrationReport",
    "Rebalancer",
    "ShardLoad",
    "plan_migrations",
]


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Migration:
    """One session's ownership change between two ring versions."""

    session_id: str
    src: int
    dst: int


def plan_migrations(
    old: HashRing, new: HashRing, keys: Iterable[str]
) -> List[Migration]:
    """The ownership diff between two rings as an ordered work list.

    Deterministic (sorted by session id) so chaos runs and retries
    replay the same order.
    """
    moves = HashRing.ownership_diff(old, new, keys)
    return [
        Migration(sid, src, dst)
        for sid, (src, dst) in sorted(moves.items())
    ]


@dataclass
class MigrationReport:
    """Outcome of one resize/rebalance execution."""

    reason: str
    from_version: int
    to_version: int
    planned: int = 0
    moved: int = 0
    failed: int = 0
    skipped: int = 0
    duration_seconds: float = 0.0
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reason": self.reason,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "planned": self.planned,
            "moved": self.moved,
            "failed": self.failed,
            "skipped": self.skipped,
            "duration_seconds": round(self.duration_seconds, 4),
            "failures": self.failures[:8],
            "ok": self.ok,
        }


# ----------------------------------------------------------------------
# Migration executor
# ----------------------------------------------------------------------
class Rebalancer:
    """Executes a migration plan against a :class:`ShardSupervisor`.

    The supervisor exposes the primitives (park/unpark routing, shard
    RPC, spill-subtree paths, transition begin/commit); the rebalancer
    owns ordering, retries, crash recovery, and accounting. One
    execution runs at a time (the supervisor serialises callers).

    ``step_hook`` is a test/chaos injection point: when set, it is
    called as ``step_hook(step, migration)`` at every protocol step
    (``"park"``, ``"release"``, ``"rename"``, ``"adopt"``,
    ``"unpark"``) *before* that step runs — the chaos harness uses it
    to SIGKILL workers at exact protocol positions.
    """

    def __init__(self, supervisor, *, drain_timeout: float = 5.0):
        self.supervisor = supervisor
        self.drain_timeout = float(drain_timeout)
        self.step_hook: Optional[Callable[[str, Migration], None]] = None

    # -- internals -----------------------------------------------------
    def _hook(self, step: str, migration: Migration) -> None:
        if self.step_hook is not None:
            self.step_hook(step, migration)

    def _count(self, outcome: str) -> None:
        if OBS.enabled:
            OBS.registry.counter(
                "repro_serving_migrations_total", {"outcome": outcome}
            ).inc()

    def _session_dir(self, shard: int, session_id: str) -> Path:
        return Path(self.supervisor.shard_spill_dir(shard)) / session_id

    def _locate(self, migration: Migration) -> Optional[int]:
        """Which side's subtree currently holds the session directory."""
        if self._session_dir(migration.dst, migration.session_id).is_dir():
            return migration.dst
        if self._session_dir(migration.src, migration.session_id).is_dir():
            return migration.src
        return None

    def _rename(self, migration: Migration) -> None:
        """Atomically move the spill directory src → dst subtree.

        Idempotent: already-moved directories (a retry after a crash
        between rename and adopt) are left alone.
        """
        src = self._session_dir(migration.src, migration.session_id)
        dst = self._session_dir(migration.dst, migration.session_id)
        if dst.is_dir():
            return
        dst.parent.mkdir(parents=True, exist_ok=True)
        os.rename(src, dst)

    def _migrate_one(self, migration: Migration) -> str:
        """Run the full per-session protocol; returns the outcome."""
        sup = self.supervisor
        sid = migration.session_id
        self._hook("park", migration)
        sup.park_session(sid)
        owner: Optional[int] = migration.src
        try:
            self._hook("release", migration)
            released = sup.release_on_shard(
                migration.src, sid, timeout=self.drain_timeout
            )
            if not released.get("known") and self._locate(migration) is None:
                # Session vanished between planning and now (closed by
                # a client, or it never existed on disk): nothing to
                # do, and no override to keep (unpark clears it).
                owner = None
                return "skipped"
            self._hook("rename", migration)
            self._rename(migration)
            self._hook("adopt", migration)
            if not sup.adopt_on_shard(migration.dst, sid):
                raise ServingError(
                    f"shard {migration.dst} could not adopt session "
                    f"{sid!r}: no spill directory after rename"
                )
            owner = migration.dst
            return "moved"
        except BaseException as err:
            # Pin the session at whichever shard's subtree actually
            # holds its directory, and make sure that side knows about
            # it — the session stays serveable, the resize reports the
            # failure, and a later retry can finish the move.
            located = self._locate(migration)
            owner = located if located is not None else migration.src
            try:
                sup.adopt_on_shard(owner, sid)
            except Exception:  # noqa: BLE001 - owner may be crash-looping
                pass
            _LOG.error(
                "migration of %s (%d -> %d) failed, pinned to shard %d: %s",
                sid, migration.src, migration.dst, owner, err,
            )
            raise
        finally:
            self._hook("unpark", migration)
            sup.unpark_session(sid, owner)

    # -- entry point ---------------------------------------------------
    def execute(self, new_ring: HashRing, reason: str) -> MigrationReport:
        """Migrate every session the ring change moves, then commit.

        Returns a report; raises nothing for per-session failures (they
        are pinned and counted), only for protocol-level impossibility
        (e.g. no spill root).
        """
        sup = self.supervisor
        old_ring = sup.ring
        report = MigrationReport(
            reason=reason,
            from_version=old_ring.version,
            to_version=new_ring.version,
        )
        t0 = time.perf_counter()
        with TRACER.span(
            "rebalance.execute", parent=NEW_TRACE, reason=reason,
            from_version=old_ring.version, to_version=new_ring.version,
        ):
            keys = sup.known_session_ids()
            plan_map = {
                m.session_id: m
                for m in plan_migrations(old_ring, new_ring, keys)
            }
            # Sessions pinned off-ring by an earlier failed migration
            # move from where they *actually* are, not from where the
            # old ring thinks they are — this is how a pin heals.
            for sid, pin in sup.pinned_overrides().items():
                dst = new_ring.shard_for(sid)
                if pin == dst:
                    plan_map.pop(sid, None)
                else:
                    plan_map[sid] = Migration(sid, pin, dst)
            plan = [plan_map[sid] for sid in sorted(plan_map)]
            report.planned = len(plan)
            sup.begin_transition(new_ring)
            _LOG.info(
                "rebalance (%s): ring v%d -> v%d, %d of %d session(s) move",
                reason, old_ring.version, new_ring.version,
                len(plan), len(keys),
            )
            pinned: List[Migration] = []
            for migration in plan:
                with TRACER.child_span(
                    "migration.session", session=migration.session_id,
                    src=migration.src, dst=migration.dst,
                ):
                    try:
                        outcome = self._migrate_one(migration)
                    except BaseException as err:  # noqa: BLE001 - pinned
                        outcome = "failed"
                        pinned.append(migration)
                        report.failures.append({
                            "session": migration.session_id,
                            "src": migration.src,
                            "dst": migration.dst,
                            "error": repr(err),
                        })
                self._count(outcome)
                if outcome == "moved":
                    report.moved += 1
                elif outcome == "skipped":
                    report.skipped += 1
                else:
                    report.failed += 1
            sup.commit_transition(new_ring, pinned)
        report.duration_seconds = time.perf_counter() - t0
        if OBS.enabled:
            OBS.emit(
                "ring_rebalance", reason=reason, **{
                    k: v for k, v in report.to_dict().items()
                    if k not in ("reason", "failures")
                },
            )
        _LOG.info(
            "rebalance (%s) done in %.3fs: %d moved, %d failed, %d skipped",
            reason, report.duration_seconds, report.moved, report.failed,
            report.skipped,
        )
        return report


# ----------------------------------------------------------------------
# Load samples
# ----------------------------------------------------------------------
@dataclass
class ShardLoad:
    """One shard's load sample, as gathered from its worker."""

    shard: int
    alive: bool = True
    queue_depth: int = 0
    sessions: int = 0

    def score(self) -> float:
        """Scalar pressure: queue backlog dominates, residency tiebreaks."""
        return 4.0 * float(self.queue_depth) + float(self.sessions)
