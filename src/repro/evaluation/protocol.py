"""Experiment protocol shared by the Table II / Table III / Fig. 2 benches.

One :class:`DatasetRun` per dataset holds everything every method needs:
the series, its 75/25 split, the fitted pool, and the prequential
prediction matrices over the meta-training segment (used by stacking's
meta-fit and EA-DRL's MDP) and the test segment (used by all combiners).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.datasets import load
from repro.models.pool import ForecasterPool, build_pool
from repro.preprocessing.splits import train_test_split


@dataclass
class ProtocolConfig:
    """Knobs of the shared evaluation protocol.

    The defaults are scaled for a laptop run; the paper-scale settings
    (series length, pool size, RL budget) are documented in DESIGN.md and
    can be restored by raising ``series_length``/``pool_size``/
    ``episodes``.

    ``checkpoint_dir`` switches on the crash-safe checkpoint runtime for
    every estimator the bench constructs; each (dataset, variant) pair
    snapshots into its own subdirectory (see :meth:`checkpoint_config`)
    so a multi-dataset Table II run killed anywhere resumes without
    cross-talk. ``checkpoint_every``/``resume`` mirror the CLI flags.
    """

    series_length: int = 400
    train_fraction: float = 0.75
    pool_train_fraction: float = 0.6
    pool_size: str = "small"
    embedding_dimension: int = 5
    window: int = 10
    episodes: int = 20
    max_iterations: int = 60
    neural_epochs: int = 40
    seed: int = 0
    agent: str = "ddpg"
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 50
    resume: bool = False

    def validate(self) -> None:
        if self.series_length < 100:
            raise ConfigurationError(
                f"series_length must be >= 100 for the protocol, "
                f"got {self.series_length}"
            )
        if not 0.5 <= self.train_fraction < 1.0:
            raise ConfigurationError(
                f"train_fraction must be in [0.5, 1), got {self.train_fraction}"
            )
        config = self.checkpoint_config()
        if config is not None:
            config.validate()

    def checkpoint_config(self, subdir: Optional[str] = None):
        """The :class:`~repro.runtime.CheckpointConfig` for one estimator.

        Returns ``None`` when checkpointing is off. ``subdir`` isolates
        one (dataset, variant) leg of a bench under the shared root.
        """
        from repro.runtime import CheckpointConfig

        if self.checkpoint_dir is None:
            return None
        directory = Path(self.checkpoint_dir)
        if subdir is not None:
            directory = directory / subdir
        return CheckpointConfig(
            directory=str(directory),
            every=self.checkpoint_every,
            resume=self.resume,
        )


@dataclass
class DatasetRun:
    """Prepared state for one dataset: pool + prediction matrices."""

    dataset_id: int
    series: np.ndarray
    train: np.ndarray
    test: np.ndarray
    pool: ForecasterPool
    meta_predictions: np.ndarray  # prequential matrix over the train tail
    meta_truth: np.ndarray
    test_predictions: np.ndarray  # prequential matrix over the test segment
    test_start: int

    @property
    def n_models(self) -> int:
        return self.meta_predictions.shape[1]


def prepare_dataset(
    dataset_id: int, config: Optional[ProtocolConfig] = None
) -> DatasetRun:
    """Generate a dataset, fit the pool, and compute both matrices."""
    config = config if config is not None else ProtocolConfig()
    config.validate()
    series = load(dataset_id, n=config.series_length)
    train, test = train_test_split(series, config.train_fraction)
    test_start = train.size

    pool = ForecasterPool(
        build_pool(
            config.pool_size,
            embedding_dimension=config.embedding_dimension,
            seed=config.seed,
            neural_epochs=config.neural_epochs,
        )
    )
    pool_cut = max(
        int(round(train.size * config.pool_train_fraction)),
        20,
    )
    pool_cut = min(pool_cut, train.size - config.window - 5)
    pool.fit(train[:pool_cut])

    meta_start = max(pool_cut, pool.max_min_context())
    meta_predictions = pool.prediction_matrix(train, meta_start)
    meta_truth = train[meta_start:]
    test_predictions = pool.prediction_matrix(series, test_start)
    return DatasetRun(
        dataset_id=dataset_id,
        series=series,
        train=train,
        test=test,
        pool=pool,
        meta_predictions=meta_predictions,
        meta_truth=meta_truth,
        test_predictions=test_predictions,
        test_start=test_start,
    )


def prepare_datasets(
    dataset_ids: Optional[List[int]] = None,
    config: Optional[ProtocolConfig] = None,
) -> List[DatasetRun]:
    """Prepare several datasets (defaults to all 20 of Table I)."""
    ids = dataset_ids if dataset_ids is not None else list(range(1, 21))
    return [prepare_dataset(i, config) for i in ids]
