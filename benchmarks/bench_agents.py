"""Bench AGENTS — DDPG vs TD3 vs SAC on the Table-II protocol + serving.

Compares every registered policy agent on the same prepared datasets:
one base-model pool is fitted per dataset, then each agent trains its
combiner on the identical prequential matrix (the Table II protocol in
miniature) and is scored on held-out RMSE and online step latency. A
serving phase then fits a small bundle per agent and drives a
multi-tenant :class:`repro.serving.ForecastService` through a
spill-heavy observe loop, gating the evicted-vs-resident bit-identity
criterion for every agent (not just the paper's DDPG).

Acceptance gates (both modes):

- every requested agent completes every requested dataset with a
  finite RMSE;
- serving smoke: all observes answered, and the spill/restore twin
  stays bit-identical to an always-resident session per agent.

Results land in ``BENCH_agents.json`` for CI upload. Run directly::

    PYTHONPATH=src python benchmarks/bench_agents.py --quick
    PYTHONPATH=src python benchmarks/bench_agents.py --agents td3,sac
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import EADRL, EADRLConfig
from repro.evaluation import ProtocolConfig
from repro.evaluation.protocol import prepare_dataset
from repro.evaluation.runner import run_eadrl
from repro.models.base import (
    MeanForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
)
from repro.models.ets import SimpleExpSmoothing
from repro.rl.agents import agent_names
from repro.rl.ddpg import DDPGConfig
from repro.serving import ForecastService, ModelBundle, ServiceConfig

import tempdirs

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_agents.json"
DEFAULT_DATASETS = "1,9,15"


def accuracy_phase(agents, dataset_ids, protocol: ProtocolConfig) -> dict:
    """One pool per dataset, one combiner fit per (dataset, agent)."""
    rows = []
    for dataset_id in dataset_ids:
        run = prepare_dataset(dataset_id, protocol)
        uniform = run.test_predictions.mean(axis=1)
        uniform_rmse = float(
            np.sqrt(np.mean((uniform - run.test) ** 2))
        )
        for agent in agents:
            t0 = time.perf_counter()
            result = run_eadrl(run, replace(protocol, agent=agent))
            train_seconds = (
                time.perf_counter() - t0 - result.online_seconds
            )
            row = {
                "dataset": dataset_id,
                "agent": agent,
                "rmse": result.rmse,
                "uniform_rmse": uniform_rmse,
                "train_seconds": train_seconds,
                "online_seconds": result.online_seconds,
                "online_ms_per_step": (
                    result.online_seconds * 1e3 / run.test.size
                ),
            }
            rows.append(row)
            print(f"dataset {dataset_id:>2}  {agent:<5} "
                  f"rmse={row['rmse']:.4f}  "
                  f"(uniform {uniform_rmse:.4f})  "
                  f"train={train_seconds:6.1f}s  "
                  f"online={row['online_ms_per_step']:.3f} ms/step")
    return {"rows": rows}


def serving_phase(agents, *, quick: bool) -> dict:
    """Per-agent serving smoke: observe loop + spill bit-identity."""
    rng = np.random.default_rng(7)
    t = np.arange(300)
    series = (
        12.0 + 0.02 * t + 2.5 * np.sin(2 * np.pi * t / 12)
        + rng.normal(0, 0.4, t.size)
    )
    sessions = 4 if quick else 12
    steps = 20 if quick else 50
    results = {}
    for agent in agents:
        model = EADRL(
            models=[
                NaiveForecaster(),
                MeanForecaster(),
                SeasonalNaiveForecaster(12),
                SimpleExpSmoothing(),
            ],
            config=EADRLConfig(
                window=8, episodes=3, max_iterations=20, agent=agent,
                ddpg=DDPGConfig(seed=0, warmup_steps=16, batch_size=8),
            ),
        )
        model.fit(series[:200])
        bundle = ModelBundle.from_estimator(model, mode="drift")
        resident = bundle.create_session("twin", series[:200])
        # max_sessions below the tenant count keeps the spill/restore
        # path hot for the whole loop.
        service = ForecastService(bundle, ServiceConfig(
            agent=agent,
            max_sessions=max(2, sessions // 2),
            spill_dir=tempdirs.mkdtemp(f"bench-agents-{agent}-"),
        ))
        latencies = []
        bit_identical = True
        failures = 0
        try:
            for i in range(sessions):
                service.create_session(f"tenant-{i:03d}", series[:200])
            for step in range(steps):
                value = float(series[200 + step])
                expected = resident.observe(value)
                for i in range(sessions):
                    t0 = time.perf_counter()
                    try:
                        out = service.observe(f"tenant-{i:03d}", value)
                    except Exception:  # noqa: BLE001 - gated below
                        failures += 1
                        continue
                    latencies.append(time.perf_counter() - t0)
                    if i == 0 and out["forecast"] != expected:
                        bit_identical = False
        finally:
            stats = service.store.stats()
            service.shutdown()
        flat = np.array(latencies)
        results[agent] = {
            "sessions": sessions,
            "steps": steps,
            "requests_failed": failures,
            "evictions": stats["evictions"],
            "restores": stats["restores"],
            "spill_bit_identical": bit_identical,
            "latency_ms": {
                "p50": float(np.percentile(flat, 50) * 1e3),
                "p95": float(np.percentile(flat, 95) * 1e3),
            } if flat.size else None,
        }
        print(f"serving [{agent:<5}] p50="
              f"{results[agent]['latency_ms']['p50']:.2f} ms  "
              f"restores={stats['restores']}  "
              f"bit_identical={bit_identical}  failures={failures}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", default=",".join(agent_names()),
                        help="comma-separated registry names "
                             "(default: every registered agent)")
    parser.add_argument("--datasets", default=DEFAULT_DATASETS,
                        help=f"comma-separated dataset ids "
                             f"(default {DEFAULT_DATASETS})")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale: shorter series, fewer "
                             "episodes and tenants")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    agents = [name.strip() for name in args.agents.split(",") if name.strip()]
    dataset_ids = [int(d) for d in args.datasets.split(",") if d.strip()]
    protocol = ProtocolConfig(
        series_length=200 if args.quick else 400,
        episodes=2 if args.quick else 10,
        max_iterations=10 if args.quick else 40,
    )

    accuracy = accuracy_phase(agents, dataset_ids, protocol)
    serving = serving_phase(agents, quick=args.quick)

    covered = {(row["dataset"], row["agent"]) for row in accuracy["rows"]}
    gates = {
        "all_pairs_ran": len(covered) == len(agents) * len(dataset_ids),
        "all_rmse_finite": all(
            np.isfinite(row["rmse"]) for row in accuracy["rows"]
        ),
        "serving_no_failures": all(
            r["requests_failed"] == 0 for r in serving.values()
        ),
        "serving_spill_bit_identical": all(
            r["spill_bit_identical"] for r in serving.values()
        ),
        "serving_spill_exercised": all(
            r["restores"] > 0 for r in serving.values()
        ),
    }
    result = {
        "bench": "agents",
        "quick": args.quick,
        "python": platform.python_version(),
        "agents": agents,
        "datasets": dataset_ids,
        "protocol": {
            "series_length": protocol.series_length,
            "episodes": protocol.episodes,
            "max_iterations": protocol.max_iterations,
        },
        "accuracy": accuracy,
        "serving": serving,
        "gates": gates,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    failed = [name for name, ok in gates.items() if not ok]
    if failed:
        print(f"GATE FAILURES: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(tempdirs.run(main))
