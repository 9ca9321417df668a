"""Child process of the ``paper`` workload (the Table-II/III path).

Run by ``run.py``::

    python3 benchmarks/ledger/paper.py --seed 0 --trace 0 --out result.json

For each dataset of ``workloads.PAPER_DATASETS``: pool fit ->
``prediction_matrix`` -> ``fit_policy_from_matrix`` ->
``rolling_forecast_from_matrix`` -> ``rolling_forecast_online(mode=
"periodic")``, with the protocol's medium pool (16 members) and DDPG
15 episodes x 60 iterations. It writes its timings, the SHA-256 of the
float64 forecasts and its own peak RSS to ``--out``; with ``--trace 1``
the span wrappers are installed first and the spans go to
``<out>.spans.jsonl``. ``--setup-only`` stops after the imports, which
is how the runner measures set-up more than once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from repro.core import EADRL, EADRLConfig  # noqa: E402
from repro.evaluation.protocol import ProtocolConfig  # noqa: E402
from repro.models.pool import ForecasterPool, build_pool  # noqa: E402
from repro.preprocessing.splits import train_test_split  # noqa: E402
from repro.rl.ddpg import DDPGConfig  # noqa: E402

PROTOCOL = ProtocolConfig(
    series_length=workloads.PAPER_LENGTH, pool_size="medium",
    episodes=15, max_iterations=60,
)


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


def step_marks(agent, marks: list):
    """Stamp every ``policy_weights`` call of this agent instance.

    ``rolling_forecast_online`` queries the policy exactly once per
    Alg. 1 step, so the gaps between stamps are the step latencies (a
    step with a periodic policy update included). The hook is an
    instance attribute: no class and no other agent is touched.
    """
    inner = agent.policy_weights

    def stamped(state):
        marks.append(time.perf_counter())
        return inner(state)

    agent.policy_weights = stamped


def run_dataset(dataset_id: int, seed: int, steps: list) -> dict:
    cfg = PROTOCOL
    series = workloads.paper_series(dataset_id, seed)
    train, test = train_test_split(series, cfg.train_fraction)
    pool = ForecasterPool(build_pool(
        cfg.pool_size, embedding_dimension=cfg.embedding_dimension,
        seed=cfg.seed, neural_epochs=cfg.neural_epochs,
    ))
    pool_cut = max(int(round(train.size * cfg.pool_train_fraction)), 20)
    pool_cut = min(pool_cut, train.size - cfg.window - 5)
    pool.fit(train[:pool_cut])
    meta_start = max(pool_cut, pool.max_min_context())
    meta = pool.prediction_matrix(train, meta_start)
    matrix = pool.prediction_matrix(series, train.size)
    model = EADRL(models=pool.models, config=EADRLConfig(
        window=cfg.window, embedding_dimension=cfg.embedding_dimension,
        episodes=cfg.episodes, max_iterations=cfg.max_iterations,
        ddpg=DDPGConfig(seed=cfg.seed),
    ))
    model.fit_policy_from_matrix(meta, train[meta_start:])
    static = model.rolling_forecast_from_matrix(matrix)
    marks: list = []
    step_marks(model.agent, marks)
    online = model.rolling_forecast_online(matrix, test, mode="periodic")
    end = time.perf_counter()
    steps.extend(np.diff(marks + [end]).tolist())
    return {
        "static": static, "online": online,
        "online_steps": len(marks), "online_s": end - marks[0],
        "rmse_online": float(np.sqrt(np.mean((online - test) ** 2))),
        "rmse_uniform": float(
            np.sqrt(np.mean((matrix.mean(axis=1) - test) ** 2))),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder, os.path.dirname(args.out))
    ready = time.perf_counter()
    result = {"ready": ready}
    if not args.setup_only:
        digest = hashlib.sha256()
        steps: list = []
        datasets = []
        for dataset_id in workloads.PAPER_DATASETS:
            start = time.perf_counter()
            out = run_dataset(dataset_id, args.seed, steps)
            datasets.append({
                "dataset": dataset_id, "start": start,
                "end": time.perf_counter(), "online_s": out["online_s"],
                "online_steps": out["online_steps"],
                "finite": bool(np.isfinite(out["static"]).all()
                               and np.isfinite(out["online"]).all()),
                "rmse_online": out["rmse_online"],
                "rmse_uniform": out["rmse_uniform"],
            })
            for forecasts in (out["static"], out["online"]):
                digest.update(np.ascontiguousarray(
                    forecasts, dtype=np.float64).tobytes())
        result.update(
            datasets=datasets, steps=steps, digest=digest.hexdigest(),
            peak_rss_kb=peak_rss_kb(),
        )
        if recorder is not None:
            recorder.flush(args.out + ".spans.jsonl")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
