"""Chaos smoke — real SIGKILL mid-checkpoint, then exact resume.

The integration suite proves interrupted-vs-uninterrupted determinism
with an in-process :class:`SimulatedCrash`. This harness closes the
remaining gap to production reality: it spawns the training run in a
**child process**, lets :class:`repro.testing.TornWriter` half-write a
snapshot file and deliver ``SIGKILL`` to itself — nothing below the OS
can intercept it, no ``finally`` blocks run — and then resumes in the
parent from whatever actually reached the disk.

Two kill points are exercised per run:

- ``--cut 1``: episode 0's *manifest* is torn. No valid snapshot exists,
  so resume must quarantine the torn manifest and restart from scratch.
- ``--cut 3``: episode 1's manifest is torn after episode 0 committed.
  Resume must quarantine it and fall back to episode 0's snapshot.

In both cases the resumed pipeline must reproduce the uninterrupted
reference bit-for-bit, and the torn manifest must end up in
``quarantine/`` — the "never load torn data" invariant under a real
kill. A summary (including the newest surviving manifest, for CI
artifact upload) is written to ``CHAOS_crash_resume.json``.

Run directly::

    PYTHONPATH=src python benchmarks/chaos_crash_resume.py
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core import EADRL, CheckpointConfig, EADRLConfig
from repro.evaluation import ProtocolConfig
from repro.evaluation.protocol import prepare_dataset
from repro.rl.ddpg import DDPGConfig
from repro.runtime.checkpoint import CheckpointManager
from repro.testing import FailureSchedule, TornWriter

import tempdirs

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "CHAOS_crash_resume.json"

# Small but real: enough episodes that the kill points below land
# between committed snapshots, a few seconds end to end.
PROTOCOL = ProtocolConfig(
    series_length=400, pool_size="small", episodes=5, max_iterations=25
)

# Writer-call indices: episode k's snapshot is payload call 2k and
# manifest call 2k+1 (train_every=1).
DEFAULT_CUTS = (1, 3)


def _checkpoint(workdir: Path, resume: bool = False) -> CheckpointConfig:
    return CheckpointConfig(
        directory=str(workdir), every=50, train_every=1, resume=resume
    )


def _pipeline(run, checkpoint=None, torn_cut=None):
    """Train + rolling forecast exactly as the CLI wires it."""
    config = EADRLConfig(
        window=PROTOCOL.window,
        episodes=PROTOCOL.episodes,
        max_iterations=PROTOCOL.max_iterations,
        ddpg=DDPGConfig(seed=PROTOCOL.seed),
        checkpoint=checkpoint,
    )
    model = EADRL(models=run.pool.models, config=config)
    if torn_cut is not None:
        model.checkpoint_manager().writer = TornWriter(
            FailureSchedule.at(torn_cut), fraction=0.5, crash="sigkill"
        )
    model.fit_policy_from_matrix(run.meta_predictions, run.meta_truth)
    return model.rolling_forecast_from_matrix(run.test_predictions)


def child_main(dataset: int, workdir: Path, cut: int) -> int:
    """Run the checkpointed pipeline and SIGKILL ourselves at ``cut``."""
    run = prepare_dataset(dataset, PROTOCOL)
    _pipeline(run, _checkpoint(workdir), torn_cut=cut)
    # Reaching this line means the scheduled kill never fired.
    print(f"ERROR: child survived scheduled kill at call {cut}",
          file=sys.stderr)
    return 1


def run_one_crash(run, dataset: int, cut: int, reference) -> dict:
    workdir = Path(tempdirs.mkdtemp(f"chaos-crash-cut{cut}-"))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    child = subprocess.run(
        [sys.executable, __file__, "--child", "--dataset", str(dataset),
         "--workdir", str(workdir), "--cut", str(cut)],
        env=env, capture_output=True, text=True,
    )
    killed = child.returncode == -signal.SIGKILL
    print(f"cut={cut}: child exit {child.returncode} "
          f"({'SIGKILL' if killed else 'UNEXPECTED'})")
    if not killed:
        sys.stderr.write(child.stderr)
        return {"cut": cut, "child_killed": False, "passed": False}

    snapshots_before = sorted(
        p.name for p in workdir.glob("*.json")
    )
    resumed = _pipeline(run, _checkpoint(workdir, resume=True))
    identical = bool(np.array_equal(resumed, reference))

    quarantined = sorted(
        p.name for p in (workdir / "quarantine").glob("*")
    ) if (workdir / "quarantine").is_dir() else []
    manager = CheckpointManager(workdir)
    manifests = manager.manifest_paths("train")
    newest_manifest = (
        json.loads(manifests[0].read_text()) if manifests else None
    )

    print(f"cut={cut}: resumed bit-identical={identical} "
          f"quarantined={quarantined or 'none'}")
    result = {
        "cut": cut,
        "child_killed": True,
        "snapshots_on_disk_after_kill": snapshots_before,
        "resumed_bit_identical": identical,
        "quarantined": quarantined,
        "newest_valid_manifest": newest_manifest,
        "passed": identical and bool(quarantined),
    }
    if not quarantined:
        print(f"ERROR: cut={cut} left no quarantined files — the torn "
              "manifest was not detected", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", type=int, default=15)
    parser.add_argument("--cuts", type=int, nargs="+",
                        default=list(DEFAULT_CUTS))
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--cut", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args.dataset, args.workdir, args.cut)

    run = prepare_dataset(args.dataset, PROTOCOL)
    print(f"dataset={args.dataset} episodes={PROTOCOL.episodes} "
          f"iterations={PROTOCOL.max_iterations} cuts={args.cuts}")
    reference = _pipeline(run)

    results = [run_one_crash(run, args.dataset, cut, reference)
               for cut in args.cuts]
    passed = all(r["passed"] for r in results)
    args.output.write_text(json.dumps({
        "chaos": "crash_resume",
        "dataset": args.dataset,
        "episodes": PROTOCOL.episodes,
        "max_iterations": PROTOCOL.max_iterations,
        "crashes": results,
        "passed": passed,
    }, indent=2) + "\n")
    print(f"wrote {args.output}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(tempdirs.run(main))
