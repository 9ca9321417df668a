"""Chaos REBALANCE — live ring resize under load with SIGKILLs mid-migration.

Drives the elastic shard runtime through the resize protocol while
client threads feed sequence-numbered observations, and SIGKILLs shard
workers at exact migration steps (injected through
``Rebalancer.step_hook``, which fires *before* each protocol step):

1. **Grow 2 -> 4 under load** — the old owner is SIGKILLed right before
   a session's drain/``release`` and again before the spill-directory
   ``rename``; the migration must retry against the respawned worker
   and land every session on the committed ring.
2. **Shrink 4 -> 3 under load** — the *new* owner is SIGKILLed right
   before ``adopt``; the supervisor must respawn it and hand the
   session over anyway.
3. **Hot-shard rebalance** — the heaviest shard's ring weight is
   halved; only sessions moving *off* it may move.
4. **Durable-state audit** — a sample of migrated sessions is quiesced
   (``release``), their newest on-disk checkpoint loaded and compared
   array-for-array against a local never-migrated twin, then adopted
   back.

Gates (enforced in ``--quick`` mode too):

- **zero lost acks** — every acknowledged observation is reflected in
  the final session step counter;
- **bit identity** — every forecast equals the local twin's, before,
  during, and after migration, and the audited checkpoint arrays match
  bitwise;
- **single ownership** — after every phase each session's directory
  exists in exactly one shard subtree and the session keeps serving;
- **bounded latency** — observe p99 across the whole run, migration
  windows included, stays under ``P99_BOUND_MS``.

Results land in ``CHAOS_rebalance.json`` for CI artifact upload.

Run directly::

    PYTHONPATH=src python benchmarks/chaos_rebalance.py
    PYTHONPATH=src python benchmarks/chaos_rebalance.py --quick
"""

from __future__ import annotations

import argparse
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
from repro.models.base import (
    MeanForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
)
from repro.models.ets import SimpleExpSmoothing
from repro.rl.ddpg import DDPGConfig
from repro.runtime import CheckpointManager, RetryPolicy
from repro.serving import ModelBundle, ServiceConfig, ShardSupervisor

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "CHAOS_rebalance.json"
HISTORY = 200
#: Observe p99 bound across the whole run, migration windows and
#: failover respawns included (documented in docs/serving.md).
P99_BOUND_MS = 5000.0


def make_bundle(seed: int = 7) -> tuple:
    """Fit a small EADRL on synthetic data; returns (bundle, series)."""
    rng = np.random.default_rng(seed)
    t = np.arange(400)
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


def make_supervisor(bundle, spill_root: str, shards: int) -> ShardSupervisor:
    return ShardSupervisor(
        bundle,
        ServiceConfig(
            shards=shards,
            spill_dir=spill_root,
            deadline=30.0,
            max_sessions=64,
            queue_limit=512,
        ),
        # Patient client-side policy: a request racing a migration or a
        # SIGKILLed worker retries through the handoff instead of
        # surfacing a transient error to the harness.
        retry_policy=RetryPolicy(
            max_attempts=6, base=0.2, max_backoff=2.0
        ),
    )


def _sigkill_shard(supervisor, shard_index: int) -> None:
    process = supervisor._shards[shard_index].process
    if process is not None and process.is_alive():
        os.kill(process.pid, signal.SIGKILL)


class StepKiller:
    """SIGKILL injection at exact migration-protocol steps.

    ``plan`` is a list of ``(step_name, role)`` pairs; each fires once,
    on the first migration that reaches ``step_name``, killing the
    migration's ``src`` or ``dst`` worker *before* the step executes.
    """

    def __init__(self, supervisor, plan):
        self.supervisor = supervisor
        self.pending = list(plan)
        self.fired = []

    def __call__(self, step: str, migration) -> None:
        for i, (when, role) in enumerate(self.pending):
            if step == when:
                victim = (
                    migration.src if role == "src" else migration.dst
                )
                _sigkill_shard(self.supervisor, victim)
                self.fired.append({
                    "step": when,
                    "role": role,
                    "victim": victim,
                    "session": migration.session_id,
                })
                del self.pending[i]
                return


def ownership_scan(spill_root: Path, sids) -> dict:
    """Each session directory must live in exactly one shard subtree."""
    multi, missing = [], []
    for sid in sids:
        owners = [
            d.name for d in sorted(spill_root.glob("shard-*"))
            if (d / sid).is_dir()
        ]
        if len(owners) > 1:
            multi.append((sid, owners))
        elif not owners:
            missing.append(sid)
    return {
        "sessions": len(list(sids)),
        "multi_owned": multi[:5],
        "unowned": missing[:5],
        "ok": not multi and not missing,
    }


def resize_under_load(
    supervisor, twins, series, *, sids, seq0: int, steps: int,
    action, kill_plan, label: str,
) -> dict:
    """Observe ``steps`` values per session while ``action`` runs.

    ``action`` (a resize/rebalance closure) fires from a side thread
    once ~30% of this phase's observations have been acknowledged, so
    every migration races live traffic. ``kill_plan`` is handed to a
    :class:`StepKiller` installed as the rebalancer's step hook.
    """
    total = len(sids) * steps
    progress = {"n": 0}
    lock = threading.Lock()
    latencies = {sid: [] for sid in sids}
    mismatches, failures = [], []
    killer = StepKiller(supervisor, kill_plan)
    supervisor.rebalancer.step_hook = killer
    action_result = {}

    def client(sid: str) -> None:
        twin = twins[sid]
        rng = np.random.default_rng(hash(sid) % 2**32)
        for k in range(steps):
            seq = seq0 + k + 1
            value = float(
                series[HISTORY + seq - 1] + rng.normal(0, 0.05)
            )
            t0 = time.perf_counter()
            try:
                out = supervisor.observe(sid, value, seq=seq)
            except Exception as err:  # noqa: BLE001 - recorded, gated
                failures.append((sid, seq, repr(err)))
                return
            latencies[sid].append(time.perf_counter() - t0)
            expected = twin.observe(value)
            if out["forecast"] != expected:
                mismatches.append((sid, seq))
            with lock:
                progress["n"] += 1

    def trigger() -> None:
        deadline = time.monotonic() + 120.0
        while progress["n"] < max(1, total // 3):
            if time.monotonic() > deadline:
                return
            time.sleep(0.01)
        try:
            action_result["result"] = action()
        except Exception as err:  # noqa: BLE001 - recorded, gated
            action_result["error"] = repr(err)

    threads = [
        threading.Thread(target=client, args=(sid,), name=f"cl-{sid}")
        for sid in sids
    ]
    resizer = threading.Thread(target=trigger, name=f"resize-{label}")
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    resizer.start()
    for thread in threads:
        thread.join()
    resizer.join()
    elapsed = time.perf_counter() - t0
    supervisor.rebalancer.step_hook = None

    # Zero-lost-acks accounting against the per-session step counter.
    lost_acks = 0
    for sid in sids:
        final_step = supervisor.session_info(sid)["step"]
        expected_step = seq0 + len(latencies[sid])
        if final_step < expected_step:
            lost_acks += expected_step - final_step

    flat = np.array([s for per in latencies.values() for s in per])
    p99_ms = float(np.percentile(flat, 99) * 1e3) if flat.size else None
    report = (
        action_result.get("result", {}).get("report")
        if isinstance(action_result.get("result"), dict) else None
    )
    return {
        "label": label,
        "sessions": len(sids),
        "steps_per_session": steps,
        "elapsed_seconds": elapsed,
        "requests_acked": int(flat.size),
        "requests_failed": len(failures),
        "failures_sample": failures[:5],
        "lost_acks": lost_acks,
        "bit_identity_mismatches": len(mismatches),
        "kills_fired": killer.fired,
        "kills_unfired": killer.pending,
        "action_error": action_result.get("error"),
        "migration_report": report,
        "ring_after": supervisor.ring.describe(),
        "latency_ms": {
            "p50": float(np.percentile(flat, 50) * 1e3),
            "p99": p99_ms,
            "max": float(flat.max() * 1e3),
        } if flat.size else None,
        "ok": (
            not failures
            and lost_acks == 0
            and not mismatches
            and "error" not in action_result
            and int(flat.size) == total
            and p99_ms is not None
            and p99_ms <= P99_BOUND_MS
        ),
    }


def checkpoint_audit(
    supervisor, twins, spill_root: Path, sids, sample: int = 4
) -> dict:
    """Quiesce a sample of sessions; their durable arrays must equal
    the never-migrated twins' bitwise."""
    audited, diverged = [], []
    overrides = supervisor.ring_info()["overrides"]
    for sid in list(sids)[:sample]:
        owner = overrides.get(sid, supervisor.ring.shard_for(sid))
        supervisor.release_on_shard(owner, sid)
        try:
            manager = CheckpointManager(spill_root / f"shard-{owner:02d}" / sid)
            snapshot = manager.restore_latest(
                "session", context={"session_id": sid}
            )
            twin_arrays, _ = twins[sid].checkpoint_state(
                pristine_light=True
            )
            if snapshot is None:
                diverged.append((sid, "no durable snapshot"))
                continue
            if set(snapshot.arrays) != set(twin_arrays):
                diverged.append((sid, "array key sets differ"))
                continue
            for key, twin_value in twin_arrays.items():
                if not np.array_equal(
                    snapshot.arrays[key], np.asarray(twin_value)
                ):
                    diverged.append((sid, f"array {key!r} differs"))
                    break
            else:
                audited.append(sid)
        finally:
            supervisor.adopt_on_shard(owner, sid)
    return {
        "audited": audited,
        "diverged": diverged,
        "ok": bool(audited) and not diverged,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=12,
                        help="tenant sessions driven through every phase")
    parser.add_argument("--steps", type=int, default=14,
                        help="observations per session per phase")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller fleet, same gates")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    if args.quick:
        args.sessions = min(args.sessions, 8)
        args.steps = min(args.steps, 8)

    print(f"sessions={args.sessions} steps/phase={args.steps}")
    t0 = time.perf_counter()
    bundle, series = make_bundle()
    print(f"model fitted in {time.perf_counter() - t0:.2f}s")

    spill_root = Path(tempfile.mkdtemp(prefix="chaos-rebalance-"))
    supervisor = make_supervisor(bundle, str(spill_root), shards=2)
    sids = [f"tenant-{i:04d}" for i in range(args.sessions)]
    twins = {}
    phases = {}
    try:
        for sid in sids:
            supervisor.create_session(sid, series[:HISTORY])
            twins[sid] = bundle.create_session(sid, series[:HISTORY])

        grow = resize_under_load(
            supervisor, twins, series, sids=sids, seq0=0,
            steps=args.steps,
            action=lambda: supervisor.resize(4, reason="chaos"),
            kill_plan=[("release", "src"), ("rename", "src")],
            label="grow-2-to-4",
        )
        phases["grow"] = grow
        scan = ownership_scan(spill_root, sids)
        phases["ownership_after_grow"] = scan
        print(f"grow 2->4: acked={grow['requests_acked']} "
              f"lost={grow['lost_acks']} "
              f"mismatches={grow['bit_identity_mismatches']} "
              f"kills={len(grow['kills_fired'])} "
              f"p99={grow['latency_ms']['p99']:.1f}ms "
              f"ownership={'ok' if scan['ok'] else 'FAILED'} "
              f"({'ok' if grow['ok'] else 'FAILED'})")

        shrink = resize_under_load(
            supervisor, twins, series, sids=sids, seq0=args.steps,
            steps=args.steps,
            action=lambda: supervisor.resize(3, reason="chaos"),
            kill_plan=[("adopt", "dst")],
            label="shrink-4-to-3",
        )
        phases["shrink"] = shrink
        scan = ownership_scan(spill_root, sids)
        phases["ownership_after_shrink"] = scan
        print(f"shrink 4->3: acked={shrink['requests_acked']} "
              f"lost={shrink['lost_acks']} "
              f"mismatches={shrink['bit_identity_mismatches']} "
              f"kills={len(shrink['kills_fired'])} "
              f"p99={shrink['latency_ms']['p99']:.1f}ms "
              f"ownership={'ok' if scan['ok'] else 'FAILED'} "
              f"({'ok' if shrink['ok'] else 'FAILED'})")

        hot = resize_under_load(
            supervisor, twins, series, sids=sids, seq0=2 * args.steps,
            steps=args.steps,
            action=lambda: supervisor.rebalance_shard(
                factor=0.5, reason="chaos"
            ),
            kill_plan=[],
            label="hot-shard-rebalance",
        )
        phases["hot_shard"] = hot
        scan = ownership_scan(spill_root, sids)
        phases["ownership_after_hot"] = scan
        print(f"hot shard: acked={hot['requests_acked']} "
              f"lost={hot['lost_acks']} "
              f"mismatches={hot['bit_identity_mismatches']} "
              f"p99={hot['latency_ms']['p99']:.1f}ms "
              f"ownership={'ok' if scan['ok'] else 'FAILED'} "
              f"({'ok' if hot['ok'] else 'FAILED'})")

        audit = checkpoint_audit(supervisor, twins, spill_root, sids)
        phases["checkpoint_audit"] = audit
        print(f"checkpoint audit: audited={len(audit['audited'])} "
              f"diverged={audit['diverged']} "
              f"({'ok' if audit['ok'] else 'FAILED'})")
    finally:
        shutdown = supervisor.shutdown()

    result = {
        "chaos": "rebalance",
        "quick": args.quick,
        "python": platform.python_version(),
        "p99_bound_ms": P99_BOUND_MS,
        **phases,
        "shutdown": shutdown,
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = []
    for name in ("grow", "shrink", "hot_shard"):
        if not phases[name]["ok"]:
            failed.append(
                f"{name} phase: lost acks, bit-identity drift, failed "
                f"requests, or p99 over bound"
            )
    for name in (
        "ownership_after_grow", "ownership_after_shrink",
        "ownership_after_hot",
    ):
        if not phases[name]["ok"]:
            failed.append(
                f"{name}: a session is owned by != 1 shard subtree"
            )
    if not phases["checkpoint_audit"]["ok"]:
        failed.append(
            "checkpoint audit: migrated durable state diverged from "
            "never-migrated twin"
        )
    if failed:
        for message in failed:
            print(f"ERROR: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
