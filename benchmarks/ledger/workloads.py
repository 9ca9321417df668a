"""The ledger's fixed workloads and the inputs each derives from ``--seed``.

The seed only generates inputs (series, tenant histories, observation
streams, the observe/predict mix); every model is fitted with fixed
seeds, so the program under test is the same on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Table-II datasets of the ``paper`` workload (one per domain family).
PAPER_DATASETS = (1, 4, 6, 9, 15, 18)
PAPER_LENGTH = 400
#: Seed stride between runs: seed 0 is the registry series itself.
SEED_STRIDE = 10_000

SERVE_DATASET = 15
HISTORY = 200
#: Observations generated per tenant; far above what a run consumes.
OBSERVATIONS = 2048


@dataclass(frozen=True)
class Serving:
    """One HTTP serving workload: service shape plus traffic mix."""

    tenants: int
    max_sessions: int
    shards: int
    predict_share: float
    round_robin: bool


SERVING = {
    "serve_resident": Serving(64, 128, 0, 0.25, False),
    "serve_spill": Serving(128, 16, 0, 0.0, True),
    "serve_sharded": Serving(64, 128, 2, 0.0, False),
}
WORKLOADS = ("paper",) + tuple(SERVING)


def paper_series(dataset_id: int, seed: int) -> np.ndarray:
    from repro.datasets import get_info, load

    info = get_info(dataset_id)
    return load(dataset_id, n=PAPER_LENGTH,
                seed=info.seed + SEED_STRIDE * seed)


def tenant_series(seed: int, tenants: int) -> list:
    """History + observation stream of every tenant (dataset-15 generator)."""
    from repro.datasets import get_info, load

    base = get_info(SERVE_DATASET).seed + SEED_STRIDE * seed
    return [
        load(SERVE_DATASET, n=HISTORY + OBSERVATIONS, seed=base + 1 + i)
        for i in range(tenants)
    ]


def tenant_id(index: int) -> str:
    return f"tenant-{index:03d}"


def fit_bundle():
    """The served model, fitted exactly as ``repro serve`` would fit it
    (dataset 15, small pool, 2 episodes x 10 iterations, drift mode)."""
    from repro.core import EADRL, EADRLConfig
    from repro.datasets import load
    from repro.preprocessing import train_test_split
    from repro.rl.ddpg import DDPGConfig
    from repro.serving import ModelBundle

    train, _ = train_test_split(load(SERVE_DATASET, n=PAPER_LENGTH))
    model = EADRL(
        pool_size="small",
        config=EADRLConfig(episodes=2, max_iterations=10,
                           ddpg=DDPGConfig(seed=0)),
    )
    model.fit(train)
    return ModelBundle.from_estimator(model, mode="drift")
