"""Bench CKPT — crash-safe checkpointing overhead on the forecast pipeline.

Measures what a user pays for ``--checkpoint-dir`` on the CLI-equivalent
forecast pipeline (DDPG policy training + the rolling test-matrix pass)
at the default cadence: loop snapshots every ``--checkpoint-every 50``
steps and training snapshots every 5 episodes. The checkpointed run is
timed against an identically-seeded run with checkpointing off,
interleaved best-of-rounds so host noise cancels.

Acceptance budget: **checkpointed wall-clock <= +3%** versus the plain
run (hard gate at full scale, reported-only under ``--quick``), and the
checkpointed run's forecasts must be bit-identical to the plain run's.
A second (untimed) pass re-runs the pipeline with ``resume=True``
against the finished snapshot directory and must reproduce the same
forecasts purely from the snapshots — resume correctness rides along
with every bench run.

Per-save latency and payload statistics are collected from the
``checkpoint.save`` span histogram and written, with the timings, to
``BENCH_checkpoint.json`` for CI artifact upload.

Run directly::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py
    PYTHONPATH=src python benchmarks/bench_checkpoint.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import EADRL, EADRLConfig, CheckpointConfig
from repro.evaluation import ProtocolConfig
from repro.evaluation.protocol import prepare_dataset
from repro.obs import MemorySink, configure, shutdown, OBS
from repro.rl.ddpg import DDPGConfig

import tempdirs

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_checkpoint.json"
OVERHEAD_BUDGET_PCT = 3.0


def run_pipeline(run, protocol, checkpoint=None):
    """Train + rolling forecast, as ``repro.cli forecast`` wires it."""
    config = EADRLConfig(
        window=protocol.window,
        episodes=protocol.episodes,
        max_iterations=protocol.max_iterations,
        ddpg=DDPGConfig(seed=protocol.seed),
        checkpoint=checkpoint,
    )
    model = EADRL(models=run.pool.models, config=config)
    t0 = time.perf_counter()
    model.fit_policy_from_matrix(run.meta_predictions, run.meta_truth)
    outputs = model.rolling_forecast_from_matrix(run.test_predictions)
    return time.perf_counter() - t0, outputs


def save_statistics(run, protocol, directory, every):
    """Per-save latency/payload stats from one instrumented pass."""
    configure(sinks=[MemorySink()])
    try:
        run_pipeline(
            run, protocol,
            CheckpointConfig(directory=str(directory), every=every),
        )
        snapshot = OBS.registry.snapshot()
    finally:
        shutdown()
    stats = {}
    for histogram in snapshot["histograms"]:
        if histogram["labels"].get("span") == "checkpoint.save":
            stats["saves"] = histogram["count"]
            stats["save_ms_mean"] = histogram["mean"] * 1e3
            stats["save_ms_max"] = histogram["max"] * 1e3
            stats["save_seconds_total"] = histogram["sum"]
        if histogram["name"] == "repro_checkpoint_payload_bytes":
            stats.setdefault("payload_bytes_mean", {})[
                histogram["labels"]["kind"]
            ] = histogram["mean"]
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", type=int, default=15)
    parser.add_argument("--every", type=int, default=50,
                        help="loop snapshot period (default 50)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller training budget, "
                        "budget reported but not enforced")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    protocol = ProtocolConfig(
        series_length=400, pool_size="small",
        episodes=10 if args.quick else 15,
        max_iterations=40 if args.quick else 60,
    )
    if args.quick:
        args.rounds = min(args.rounds, 3)
    run = prepare_dataset(args.dataset, protocol)
    cores = len(os.sched_getaffinity(0))
    print(f"dataset={args.dataset} episodes={protocol.episodes} "
          f"iterations={protocol.max_iterations} every={args.every} "
          f"rounds={args.rounds} cores={cores}")

    workdir = Path(tempdirs.mkdtemp("bench-checkpoint-"))
    plain_s = ckpt_s = float("inf")
    plain_out = ckpt_out = None
    for index in range(args.rounds):
        seconds, plain_out = run_pipeline(run, protocol)
        plain_s = min(plain_s, seconds)
        seconds, ckpt_out = run_pipeline(
            run, protocol,
            CheckpointConfig(directory=str(workdir / str(index)),
                             every=args.every),
        )
        ckpt_s = min(ckpt_s, seconds)

    identical = bool(np.array_equal(plain_out, ckpt_out))
    overhead_pct = (ckpt_s - plain_s) / plain_s * 100.0
    print(f"plain {plain_s:8.3f}s  checkpointed {ckpt_s:8.3f}s  "
          f"overhead {overhead_pct:+.2f}% (budget +{OVERHEAD_BUDGET_PCT}%)")

    # Resume correctness: replaying the finished run purely from the
    # last round's snapshots must reproduce the same forecasts.
    _, resumed_out = run_pipeline(
        run, protocol,
        CheckpointConfig(directory=str(workdir / str(args.rounds - 1)),
                         every=args.every, resume=True),
    )
    resume_identical = bool(np.array_equal(resumed_out, plain_out))
    print(f"bit-identical: checkpointed={identical} "
          f"resumed={resume_identical}")

    stats = save_statistics(run, protocol, workdir / "instrumented",
                            args.every)
    # Wall-clock deltas on small boxes drift more than the budget; the
    # span histogram gives a noise-free lower bound: time actually spent
    # inside CheckpointManager.save as a share of the plain run.
    span_overhead_pct = None
    if stats.get("saves"):
        span_overhead_pct = stats["save_seconds_total"] / plain_s * 100.0
        print(f"saves per run {stats['saves']}  "
              f"mean {stats['save_ms_mean']:.2f}ms  "
              f"max {stats['save_ms_max']:.2f}ms  "
              f"span overhead {span_overhead_pct:.2f}%")

    within_budget = overhead_pct <= OVERHEAD_BUDGET_PCT
    result = {
        "bench": "checkpoint",
        "dataset": args.dataset,
        "episodes": protocol.episodes,
        "max_iterations": protocol.max_iterations,
        "checkpoint_every": args.every,
        "rounds": args.rounds,
        "quick": args.quick,
        "cpu_count": cores,
        "python": platform.python_version(),
        "plain_seconds": plain_s,
        "checkpointed_seconds": ckpt_s,
        "overhead_pct": overhead_pct,
        "span_overhead_pct": span_overhead_pct,
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        "within_budget": within_budget,
        "outputs_bit_identical": identical,
        "resume_bit_identical": resume_identical,
        "save_stats": stats,
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not identical or not resume_identical:
        print("ERROR: checkpointed or resumed outputs diverged from the "
              "plain run", file=sys.stderr)
        return 1
    if not within_budget:
        message = (f"checkpoint overhead {overhead_pct:.2f}% exceeds the "
                   f"{OVERHEAD_BUDGET_PCT}% budget")
        if args.quick:
            # Small CI boxes drift more than 3% between rounds; quick
            # mode reports the number and gates only the deterministic
            # bit-identity checks above.
            print(f"WARNING: {message} (not enforced in --quick mode)",
                  file=sys.stderr)
        else:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(tempdirs.run(main))
