"""Chaos SERVING — shard failover, torn spills, degraded mode, storms.

Drives the supervised shard runtime (:class:`repro.serving.ShardSupervisor`,
4 worker processes) through the failure modes the robustness PR promises
to survive, and gates on the promises themselves:

1. **SIGKILL failover under load** — client threads feed sequence-
   numbered observations into their own sessions while a killer thread
   SIGKILLs shard workers mid-request. Gates: every request eventually
   acknowledged, *zero lost acknowledged observations* (final session
   step == acks issued), failed-over sessions *bit-identical* to local
   never-crashed twin sessions, and a bounded observe p99 across the
   whole run including the failover windows.
2. **Torn spill write** — the newest spill snapshot of a session is
   truncated mid-file (as a crash mid-``write`` would leave it), the
   owning worker is SIGKILLed, and the last acknowledged sequence number
   is replayed. The restore must quarantine the torn snapshot, fall back
   to the previous durable state, and re-apply the replayed observation
   deterministically — same forecast as the original ack.
3. **Corrupt spill → degraded mode** — every snapshot of a session is
   bit-flipped, the owner SIGKILLed. The next observe must answer 200-
   style with ``degraded: true`` and a finite healthy-member ensemble-
   average forecast instead of failing, while ``health()`` stays ok.
4. **Overload storm** — a burst of requests with millisecond deadlines.
   Every rejection must be a *typed* error (overload / deadline /
   unavailable), never an internal one, and the runtime must report
   healthy once the storm passes.
5. **Restart at a new shard count** (``restart_reshard``) — sequenced
   clients load a 2-shard fleet on a fresh spill root; the fleet is
   stopped and restarted at 4, every client replays its last acked
   ``seq`` and continues; then a restart at 3 crashes part-way through
   spill-tree reconciliation (``os.rename`` raises after k moves inside
   the constructor), and a clean start at 3 finishes the moves. Gates:
   zero lost acks, every forecast bitwise equal to a never-restarted
   local twin (replays return the original ack), each session
   directory in exactly one shard subtree after every start (the ring
   owner's, once a start completes), the final on-disk checkpoints
   equal to the twins' state array for array, and observe p99 under
   ``P99_BOUND_MS``.

Results land in ``CHAOS_serving.json`` for CI artifact upload. The
``--quick`` flag shrinks the fleet for CI smoke while keeping every gate
enforced.

Run directly::

    PYTHONPATH=src python benchmarks/chaos_serving.py
    PYTHONPATH=src python benchmarks/chaos_serving.py --quick
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import EADRL, EADRLConfig
from repro.exceptions import (
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.models.base import (
    MeanForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
)
from repro.models.ets import SimpleExpSmoothing
from repro.rl.ddpg import DDPGConfig
from repro.runtime import CheckpointManager
from repro.serving import HashRing, ModelBundle, ServiceConfig, ShardSupervisor
from repro.testing import corrupt_all_snapshots, truncate_file

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "CHAOS_serving.json"
N_SHARDS = 4
HISTORY = 200
#: Failover latency bound: covers a worker respawn plus one jittered
#: retry backoff, with slack for loaded CI runners.
P99_BOUND_MS = 5000.0


def make_bundle(seed: int = 7) -> tuple:
    """Fit a small EADRL on synthetic data; returns (bundle, series)."""
    rng = np.random.default_rng(seed)
    t = np.arange(320)
    series = (
        12.0 + 0.02 * t + 2.5 * np.sin(2 * np.pi * t / 12)
        + rng.normal(0, 0.4, t.size)
    )
    model = EADRL(
        models=[
            NaiveForecaster(),
            MeanForecaster(),
            SeasonalNaiveForecaster(12),
            SimpleExpSmoothing(),
        ],
        config=EADRLConfig(
            window=8, episodes=3, max_iterations=20,
            ddpg=DDPGConfig(seed=0, warmup_steps=16, batch_size=8),
        ),
    )
    model.fit(series[:HISTORY])
    return ModelBundle.from_estimator(model, mode="drift"), series


def make_supervisor(
    bundle, spill_root: str, shards: int = N_SHARDS
) -> ShardSupervisor:
    return ShardSupervisor(
        bundle,
        ServiceConfig(
            shards=shards,
            spill_dir=spill_root,
            deadline=30.0,
            max_sessions=64,
            queue_limit=256,
        ),
    )


def _sigkill_shard(supervisor, shard_index: int) -> None:
    process = supervisor._shards[shard_index].process
    if process is not None and process.is_alive():
        os.kill(process.pid, signal.SIGKILL)


def _owner(supervisor, session_id: str) -> int:
    return supervisor.ring.shard_for(session_id)


def _session_spill_dir(supervisor, session_id: str) -> Path:
    shard = supervisor._shards[_owner(supervisor, session_id)]
    return Path(shard.spill_dir) / session_id


# ----------------------------------------------------------------------
# Phase 1: SIGKILL failover under load
# ----------------------------------------------------------------------
def failover_under_load(
    supervisor, bundle, series, *, sessions: int, steps: int, kills: int
) -> dict:
    """Concurrent sequenced observes vs. local twins while shards die."""
    twins = {}
    for i in range(sessions):
        sid = f"tenant-{i:04d}"
        supervisor.create_session(sid, series[:HISTORY])
        twins[sid] = bundle.create_session(sid, series[:HISTORY])

    total = sessions * steps
    acked = threading.Semaphore(0)
    progress = {"n": 0}
    progress_lock = threading.Lock()
    latencies = [[] for _ in range(sessions)]
    mismatches = []
    failures = []

    def client(worker: int) -> None:
        sid = f"tenant-{worker:04d}"
        twin = twins[sid]
        rng = np.random.default_rng(worker)
        for step in range(steps):
            value = float(series[HISTORY + step] + rng.normal(0, 0.05))
            t0 = time.perf_counter()
            try:
                out = supervisor.observe(sid, value, seq=step + 1)
            except Exception as err:  # noqa: BLE001 - recorded, gated
                failures.append((sid, step + 1, repr(err)))
                return
            latencies[worker].append(time.perf_counter() - t0)
            expected = twin.observe(value)
            if out["forecast"] != expected:
                mismatches.append((sid, step + 1))
            with progress_lock:
                progress["n"] += 1
            acked.release()

    def killer() -> None:
        # Fire each SIGKILL after another slice of the run has been
        # acknowledged, so every kill lands with requests in flight.
        slice_size = max(1, total // (kills + 1))
        victims = [_owner(supervisor, "tenant-0000")] + [
            k % N_SHARDS for k in range(1, kills)
        ]
        for kill, victim in enumerate(victims):
            needed = slice_size * (kill + 1)
            while progress["n"] < needed:
                if not acked.acquire(timeout=30.0):
                    return  # load finished or stalled; stop killing
            _sigkill_shard(supervisor, victim)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"chaos-client-{i}")
        for i in range(sessions)
    ]
    chaos = threading.Thread(target=killer, name="chaos-killer")
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    chaos.start()
    for thread in threads:
        thread.join()
    chaos.join(timeout=5.0)
    elapsed = time.perf_counter() - t0

    # Zero-lost-acks accounting: every acknowledged observation must be
    # reflected in the (possibly failed-over) session's step counter.
    lost_acks = 0
    for i in range(sessions):
        sid = f"tenant-{i:04d}"
        acked_steps = len(latencies[i])
        final_step = supervisor.session_info(sid)["step"]
        if final_step < acked_steps:
            lost_acks += acked_steps - final_step

    flat = np.array([s for per in latencies for s in per])
    p99_ms = float(np.percentile(flat, 99) * 1e3) if flat.size else None
    return {
        "sessions": sessions,
        "steps_per_session": steps,
        "kills": kills,
        "elapsed_seconds": elapsed,
        "requests_acked": int(flat.size),
        "requests_failed": len(failures),
        "failures_sample": failures[:5],
        "lost_acks": lost_acks,
        "bit_identity_mismatches": len(mismatches),
        "worker_restarts": supervisor.health()["restarts"],
        "latency_ms": {
            "p50": float(np.percentile(flat, 50) * 1e3),
            "p99": p99_ms,
            "max": float(flat.max() * 1e3),
        } if flat.size else None,
        "p99_bound_ms": P99_BOUND_MS,
        "ok": (
            not failures
            and lost_acks == 0
            and not mismatches
            and int(flat.size) == total
            and supervisor.health()["restarts"] >= kills
            and p99_ms is not None
            and p99_ms <= P99_BOUND_MS
        ),
    }


# ----------------------------------------------------------------------
# Phase 2: torn spill write + replay
# ----------------------------------------------------------------------
def torn_spill_replay(supervisor, series) -> dict:
    """A half-written snapshot must quarantine, not lose the replay."""
    sid = "torn-victim"
    supervisor.create_session(sid, series[:HISTORY])
    last_ack = None
    for seq in range(1, 6):
        last_ack = supervisor.observe(
            sid, float(series[HISTORY + seq - 1]), seq=seq
        )
    # Tear the newest durable snapshot the way a crash mid-write would.
    snapshots = sorted(
        glob.glob(str(_session_spill_dir(supervisor, sid) / "session-*.npz"))
    )
    truncate_file(Path(snapshots[-1]), keep_fraction=0.4)
    _sigkill_shard(supervisor, _owner(supervisor, sid))

    # The restore falls back to the previous durable state (seq 4), so
    # replaying seq 5 re-applies it — deterministically, same forecast.
    replay = supervisor.observe(sid, float(series[HISTORY + 4]), seq=5)
    follow = supervisor.observe(sid, float(series[HISTORY + 5]), seq=6)
    return {
        "snapshots_on_disk": len(snapshots),
        "replay_forecast_matches_ack": (
            replay["forecast"] == last_ack["forecast"]
        ),
        "replay_step": replay["step"],
        "follow_up_step": follow["step"],
        "ok": (
            replay["forecast"] == last_ack["forecast"]
            and replay["step"] == 5
            and follow["step"] == 6
        ),
    }


# ----------------------------------------------------------------------
# Phase 3: corrupt spill -> degraded ensemble-average serving
# ----------------------------------------------------------------------
def corrupt_spill_degraded(supervisor, series) -> dict:
    """All snapshots rotten: the session answers flagged, not failing."""
    sid = "rot-victim"
    supervisor.create_session(sid, series[:HISTORY])
    for seq in range(1, 5):
        supervisor.observe(sid, float(series[HISTORY + seq - 1]), seq=seq)
    flipped = corrupt_all_snapshots(
        _session_spill_dir(supervisor, sid), kind="session"
    )
    _sigkill_shard(supervisor, _owner(supervisor, sid))

    out = supervisor.observe(sid, float(series[HISTORY + 4]), seq=5)
    peek = supervisor.predict(sid)
    health = supervisor.health()
    return {
        "snapshots_corrupted": flipped,
        "observe_degraded": out.get("degraded"),
        "observe_forecast_finite": bool(np.isfinite(out["forecast"])),
        "observe_step": out["step"],
        "predict_degraded": peek.get("degraded"),
        "health_after": health["status"],
        "ok": (
            out.get("degraded") is True
            and out["step"] is None
            and bool(np.isfinite(out["forecast"]))
            and peek.get("degraded") is True
            and health["status"] == "ok"
        ),
    }


# ----------------------------------------------------------------------
# Phase 4: overload storm with millisecond deadlines
# ----------------------------------------------------------------------
def overload_storm(supervisor, series, *, requests: int) -> dict:
    """Burst past capacity; every rejection must stay typed."""
    sid = "storm-target"
    supervisor.create_session(sid, series[:HISTORY])
    counts = {
        "served": 0, "overloaded": 0, "deadline": 0,
        "unavailable": 0, "unexpected": 0,
    }
    lock = threading.Lock()
    unexpected = []

    def blast(i: int) -> None:
        try:
            # Alternate hopeless and generous budgets so the storm
            # exercises both the shedding and the serving path.
            budget = 0.002 if i % 2 else 5.0
            supervisor.predict(sid, deadline=budget)
            key = "served"
        except ServiceOverloadedError:
            key = "overloaded"
        except DeadlineExceededError:
            key = "deadline"
        except ServiceUnavailableError:
            key = "unavailable"
        except Exception as err:  # noqa: BLE001 - the failure being gated
            key = "unexpected"
            unexpected.append(repr(err))
        with lock:
            counts[key] += 1

    threads = [
        threading.Thread(target=blast, args=(i,), name=f"storm-{i}")
        for i in range(requests)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    time.sleep(0.2)  # let in-flight shedding settle
    health = supervisor.health()
    typed_rejections = (
        counts["overloaded"] + counts["deadline"] + counts["unavailable"]
    )
    return {
        "requests": requests,
        **counts,
        "unexpected_sample": unexpected[:5],
        "health_after": health["status"],
        "ok": (
            counts["unexpected"] == 0
            and typed_rejections > 0
            and counts["served"] > 0
            and health["status"] == "ok"
        ),
    }


# ----------------------------------------------------------------------
# Phase 5: restart at a new shard count, with a crash mid-reconciliation
# ----------------------------------------------------------------------
def ownership_scan(spill_root: Path, sids, ring=None) -> dict:
    """Each session directory must live in exactly one shard subtree —
    the one ``ring`` routes it to, when a ring is given."""
    multi, missing, misplaced = [], [], []
    for sid in sids:
        owners = [
            d.name for d in sorted(spill_root.glob("shard-*"))
            if (d / sid).is_dir()
        ]
        if len(owners) > 1:
            multi.append((sid, owners))
        elif not owners:
            missing.append(sid)
        elif ring is not None and owners != [
            f"shard-{ring.shard_for(sid):02d}"
        ]:
            misplaced.append((sid, owners[0]))
    strays = sorted(p.name for p in spill_root.glob("shard-*/*~stray"))
    return {
        "sessions": len(sids),
        "multi_owned": multi[:5],
        "unowned": missing[:5],
        "misplaced": misplaced[:5],
        "strays": strays[:5],
        "ok": not (multi or missing or misplaced or strays),
    }


class RenameCrash:
    """Patch ``os.rename`` to raise after ``k`` successful calls."""

    def __init__(self, k: int):
        self.k = k
        self.calls = 0
        self._rename = os.rename

    def __call__(self, src, dst):
        if self.calls >= self.k:
            raise OSError(f"injected crash after {self.k} rename(s)")
        self._rename(src, dst)
        self.calls += 1

    def __enter__(self):
        os.rename = self
        return self

    def __exit__(self, *exc):
        os.rename = self._rename


def sequenced_load(supervisor, twins, series, acks, latencies, *, steps):
    """Each session's client sends ``steps`` more sequenced observes."""
    mismatches, failures = [], []

    def client(index: int, sid: str) -> None:
        rng = np.random.default_rng([index, len(acks[sid])])
        for _ in range(steps):
            seq = len(acks[sid]) + 1
            value = float(series[HISTORY + seq - 1] + rng.normal(0, 0.05))
            t0 = time.perf_counter()
            try:
                out = supervisor.observe(sid, value, seq=seq)
            except Exception as err:  # noqa: BLE001 - recorded, gated
                failures.append((sid, seq, repr(err)))
                return
            latencies.append(time.perf_counter() - t0)
            if out["forecast"] != twins[sid].observe(value):
                mismatches.append((sid, seq))
            acks[sid].append((value, out["forecast"]))

    threads = [
        threading.Thread(target=client, args=(i, sid), name=f"rs-{sid}")
        for i, sid in enumerate(twins)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    lost = sum(
        max(0, len(acks[sid]) - supervisor.session_info(sid)["step"])
        for sid in twins
    )
    return {
        "failures": failures[:5],
        "requests_failed": len(failures),
        "mismatches": len(mismatches),
        "lost_acks": lost,
        "ok": not failures and not mismatches and lost == 0,
    }


def replay_last_acks(supervisor, acks) -> dict:
    """Resend every session's last acked seq: it must come back as a
    duplicate carrying the original forecast."""
    diverged = []
    for sid, history in acks.items():
        value, forecast = history[-1]
        out = supervisor.observe(sid, value, seq=len(history))
        if not out.get("duplicate") or out["forecast"] != forecast:
            diverged.append(sid)
    return {"replayed": len(acks), "diverged": diverged[:5],
            "ok": not diverged}


def checkpoint_audit(spill_root: Path, twins, ring) -> dict:
    """Newest durable snapshot of each session vs. its twin, bitwise."""
    audited, diverged = [], []
    for sid, twin in twins.items():
        manager = CheckpointManager(
            spill_root / f"shard-{ring.shard_for(sid):02d}" / sid
        )
        snapshot = manager.restore_latest(
            "session", context={"session_id": sid}
        )
        twin_arrays, _ = twin.checkpoint_state(pristine_light=True)
        if snapshot is None:
            diverged.append((sid, "no durable snapshot"))
        elif set(snapshot.arrays) != set(twin_arrays):
            diverged.append((sid, "array key sets differ"))
        elif not all(
            np.array_equal(snapshot.arrays[key], np.asarray(value))
            for key, value in twin_arrays.items()
        ):
            diverged.append((sid, "arrays differ"))
        else:
            audited.append(sid)
    return {"audited": len(audited), "diverged": diverged[:5],
            "ok": bool(audited) and not diverged}


def restart_reshard(bundle, series, *, sessions: int, steps: int) -> dict:
    """2 shards -> restart at 4 -> crashed restart at 3 -> clean start."""
    spill_root = Path(tempfile.mkdtemp(prefix="chaos-reshard-"))
    sids = [f"reshard-{i:04d}" for i in range(sessions)]
    twins = {sid: bundle.create_session(sid, series[:HISTORY]) for sid in sids}
    acks = {sid: [] for sid in sids}
    latencies = []
    steps_out = {}

    supervisor = make_supervisor(bundle, str(spill_root), shards=2)
    try:
        for sid in sids:
            supervisor.create_session(sid, series[:HISTORY])
        steps_out["load_at_2"] = sequenced_load(
            supervisor, twins, series, acks, latencies, steps=steps
        )
    finally:
        supervisor.shutdown()

    supervisor = make_supervisor(bundle, str(spill_root), shards=4)
    try:
        steps_out["ownership_at_4"] = ownership_scan(
            spill_root, sids, HashRing(4)
        )
        steps_out["replay_at_4"] = replay_last_acks(supervisor, acks)
        steps_out["load_at_4"] = sequenced_load(
            supervisor, twins, series, acks, latencies, steps=steps
        )
    finally:
        supervisor.shutdown()

    # Crash the start at 3 part-way through reconciliation: no worker
    # has spawned yet, so the constructor's error is the whole crash.
    old, new = HashRing(4), HashRing(3)
    planned = sum(old.shard_for(s) != new.shard_for(s) for s in sids)
    k = max(1, planned // 2)
    crash = {"planned_moves": planned, "crash_after": k, "raised": None}
    with RenameCrash(k) as rename:
        try:
            make_supervisor(bundle, str(spill_root), shards=3).shutdown()
        except OSError as err:
            crash["raised"] = str(err)
    crash["moves_before_crash"] = rename.calls
    crash["ownership"] = ownership_scan(spill_root, sids)
    crash["ok"] = (
        crash["raised"] is not None
        and rename.calls == k < planned
        and crash["ownership"]["ok"]
    )
    steps_out["crashed_start_at_3"] = crash

    supervisor = make_supervisor(bundle, str(spill_root), shards=3)
    try:
        steps_out["ownership_at_3"] = ownership_scan(spill_root, sids, new)
        steps_out["load_at_3"] = sequenced_load(
            supervisor, twins, series, acks, latencies, steps=steps
        )
    finally:
        supervisor.shutdown()
    steps_out["checkpoint_audit"] = checkpoint_audit(spill_root, twins, new)

    flat = np.asarray(latencies)
    p99_ms = float(np.percentile(flat, 99) * 1e3) if flat.size else None
    acked = sum(len(history) for history in acks.values())
    return {
        "sessions": sessions,
        "steps_per_start": steps,
        "requests_acked": acked,
        "lost_acks": sum(
            steps_out[key]["lost_acks"]
            for key in ("load_at_2", "load_at_4", "load_at_3")
        ),
        "bit_identity_mismatches": sum(
            steps_out[key]["mismatches"]
            for key in ("load_at_2", "load_at_4", "load_at_3")
        ),
        **steps_out,
        "latency_ms": {
            "p50": float(np.percentile(flat, 50) * 1e3),
            "p99": p99_ms,
            "max": float(flat.max() * 1e3),
        } if flat.size else None,
        "p99_bound_ms": P99_BOUND_MS,
        "ok": (
            all(step["ok"] for step in steps_out.values())
            and acked == 3 * steps * sessions
            and p99_ms is not None
            and p99_ms <= P99_BOUND_MS
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=16,
                        help="tenant sessions in the failover phase")
    parser.add_argument("--steps", type=int, default=24,
                        help="sequenced observations per session")
    parser.add_argument("--kills", type=int, default=3,
                        help="SIGKILLs fired during the load phase")
    parser.add_argument("--storm", type=int, default=200,
                        help="burst size of the overload phase")
    parser.add_argument("--reshard-sessions", type=int, default=16,
                        help="tenant sessions in the restart phase")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller fleet, same gates")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    if args.quick:
        args.sessions = min(args.sessions, 6)
        args.steps = min(args.steps, 10)
        args.kills = min(args.kills, 2)
        args.storm = min(args.storm, 80)
        args.reshard_sessions = min(args.reshard_sessions, 8)

    print(f"shards={N_SHARDS} sessions={args.sessions} "
          f"steps={args.steps} kills={args.kills} storm={args.storm}")

    t0 = time.perf_counter()
    bundle, series = make_bundle()
    print(f"model fitted in {time.perf_counter() - t0:.2f}s")

    spill_root = tempfile.mkdtemp(prefix="chaos-serving-")
    supervisor = make_supervisor(bundle, spill_root)
    try:
        failover = failover_under_load(
            supervisor, bundle, series,
            sessions=args.sessions, steps=args.steps, kills=args.kills,
        )
        print(f"failover: acked={failover['requests_acked']} "
              f"lost_acks={failover['lost_acks']} "
              f"mismatches={failover['bit_identity_mismatches']} "
              f"restarts={failover['worker_restarts']} "
              f"p99={failover['latency_ms']['p99']:.1f}ms "
              f"({'ok' if failover['ok'] else 'FAILED'})")

        torn = torn_spill_replay(supervisor, series)
        print(f"torn spill: replay_match="
              f"{torn['replay_forecast_matches_ack']} "
              f"steps {torn['replay_step']}->{torn['follow_up_step']} "
              f"({'ok' if torn['ok'] else 'FAILED'})")

        degraded = corrupt_spill_degraded(supervisor, series)
        print(f"degraded: flag={degraded['observe_degraded']} "
              f"health={degraded['health_after']} "
              f"({'ok' if degraded['ok'] else 'FAILED'})")

        storm = overload_storm(supervisor, series, requests=args.storm)
        print(f"storm: served={storm['served']} "
              f"overloaded={storm['overloaded']} "
              f"deadline={storm['deadline']} "
              f"unavailable={storm['unavailable']} "
              f"unexpected={storm['unexpected']} "
              f"({'ok' if storm['ok'] else 'FAILED'})")
    finally:
        shutdown = supervisor.shutdown()

    reshard = restart_reshard(
        bundle, series, sessions=args.reshard_sessions, steps=args.steps,
    )
    crash = reshard["crashed_start_at_3"]
    print(f"restart reshard 2->4->3: acked={reshard['requests_acked']} "
          f"lost_acks={reshard['lost_acks']} "
          f"mismatches={reshard['bit_identity_mismatches']} "
          f"crash after {crash['moves_before_crash']}/"
          f"{crash['planned_moves']} move(s) "
          f"audit={reshard['checkpoint_audit']['audited']} "
          f"p99={reshard['latency_ms']['p99']:.1f}ms "
          f"({'ok' if reshard['ok'] else 'FAILED'})")

    result = {
        "chaos": "serving",
        "quick": args.quick,
        "shards": N_SHARDS,
        "python": platform.python_version(),
        "failover": failover,
        "torn_spill": torn,
        "degraded_mode": degraded,
        "overload_storm": storm,
        "restart_reshard": reshard,
        "shutdown": shutdown,
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = []
    if not failover["ok"]:
        failed.append(
            "failover phase: lost acks, bit-identity drift, failed "
            "requests, or p99 over bound"
        )
    if not torn["ok"]:
        failed.append("torn-spill replay diverged or was rejected")
    if not degraded["ok"]:
        failed.append("corrupt-spill session did not serve degraded mode")
    if not storm["ok"]:
        failed.append("overload storm produced untyped errors or bad health")
    if not reshard["ok"]:
        failed.append(
            "restart_reshard phase: lost acks, bit-identity drift, a "
            "session not in exactly one (its ring owner's) subtree, a "
            "checkpoint diverging from its twin, or p99 over bound"
        )
    if failed:
        for message in failed:
            print(f"ERROR: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
