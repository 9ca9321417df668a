"""Interrupted-vs-uninterrupted determinism for the checkpoint runtime.

The headline guarantee of ``repro.runtime.checkpoint``: a run killed at
*any* point — including mid-checkpoint, leaving a torn snapshot — and
resumed from its newest valid snapshot produces output bit-identical to
a run that was never interrupted. Kills are injected deterministically
with :class:`repro.testing.TornWriter` at parametrized write indices,
covering DDPG training and all four online forecast loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EADRL, CheckpointConfig, EADRLConfig
from repro.models.base import (
    MeanForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
)
from repro.models.ets import SimpleExpSmoothing
from repro.rl.ddpg import DDPGConfig
from repro.testing import FailureSchedule, SimulatedCrash, TornWriter

EPISODES = 3
ITERATIONS = 15


def _members():
    return [
        NaiveForecaster(),
        MeanForecaster(),
        SeasonalNaiveForecaster(12),
        SimpleExpSmoothing(),
    ]


def _config(checkpoint=None, agent="ddpg") -> EADRLConfig:
    return EADRLConfig(
        window=8,
        episodes=EPISODES,
        max_iterations=ITERATIONS,
        agent=agent,
        ddpg=DDPGConfig(seed=0, warmup_steps=16, batch_size=8),
        checkpoint=checkpoint,
    )


@pytest.fixture(scope="module")
def matrix_data():
    rng = np.random.default_rng(42)
    T, m = 140, 4
    truth = np.sin(np.arange(T) * 0.2) + 0.05 * np.arange(T)
    preds = truth[:, None] + 0.3 * rng.standard_normal((T, m))
    return {
        "meta_preds": preds[:90], "meta_truth": truth[:90],
        "test_preds": preds[90:], "test_truth": truth[90:],
    }


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(7)
    t = np.arange(200, dtype=np.float64)
    return np.sin(2 * np.pi * t / 12) + 0.02 * t + 0.3 * rng.normal(size=200)


def _checkpoint(directory, every=10, resume=False) -> CheckpointConfig:
    # train_every=1 so the training cut-point arithmetic below sees one
    # snapshot (two writer calls) per episode.
    return CheckpointConfig(directory=str(directory), every=every,
                            train_every=1, resume=resume)


def _install_torn_writer(model: EADRL, cut_call: int) -> TornWriter:
    """All checkpoint writes from ``cut_call`` onwards die mid-write."""
    writer = TornWriter(FailureSchedule.after(cut_call), fraction=0.5)
    model.checkpoint_manager().writer = writer
    return writer


class TestTrainingResume:
    """Kill agent training mid-checkpoint, resume, compare bit-for-bit.

    Parametrized over every registered agent: the checkpoint contract
    (killed anywhere + resumed ≡ uninterrupted, bitwise) must hold for
    TD3's delayed updates/smoothing RNG and SAC's temperature and
    sampling streams exactly as it does for DDPG.
    """

    # Each episode commits one snapshot = 2 writes (payload, manifest).
    # Cut at 0: no snapshot ever lands (resume starts from scratch).
    # Cut at 1: episode 0's manifest is torn (quarantine, fresh start).
    # Cut at 3: episode 1's manifest is torn (fall back to episode 0).
    # Cut at 4: episode 2's payload is torn (resume from episode 1).
    @pytest.mark.parametrize("agent", ["ddpg", "td3", "sac"])
    @pytest.mark.parametrize("cut_call", [0, 1, 3, 4])
    def test_bit_identical_after_kill(self, matrix_data, tmp_path, cut_call,
                                      agent):
        reference = EADRL(models=_members(), config=_config(agent=agent))
        reference.fit_policy_from_matrix(
            matrix_data["meta_preds"], matrix_data["meta_truth"]
        )
        expected = reference.rolling_forecast_from_matrix(
            matrix_data["test_preds"]
        )

        victim = EADRL(models=_members(),
                       config=_config(_checkpoint(tmp_path), agent=agent))
        _install_torn_writer(victim, cut_call)
        with pytest.raises(SimulatedCrash):
            victim.fit_policy_from_matrix(
                matrix_data["meta_preds"], matrix_data["meta_truth"]
            )

        resumed = EADRL(models=_members(),
                        config=_config(_checkpoint(tmp_path, resume=True),
                                       agent=agent))
        resumed.fit_policy_from_matrix(
            matrix_data["meta_preds"], matrix_data["meta_truth"]
        )
        actual = resumed.rolling_forecast_from_matrix(
            matrix_data["test_preds"]
        )
        assert np.array_equal(actual, expected)


class TestMatrixLoopResume:
    @pytest.mark.parametrize("cut_call", [0, 2, 5])
    def test_bit_identical_after_kill(self, matrix_data, tmp_path, cut_call):
        def fitted(checkpoint=None) -> EADRL:
            model = EADRL(models=_members(), config=_config(checkpoint))
            model.fit_policy_from_matrix(
                matrix_data["meta_preds"], matrix_data["meta_truth"]
            )
            return model

        expected = fitted().rolling_forecast_from_matrix(
            matrix_data["test_preds"]
        )

        # Checkpointing only the loop: install the torn writer after
        # training so training snapshots are unaffected.
        loop_dir = tmp_path / "loop"
        victim = fitted(_checkpoint(loop_dir, every=10))
        _install_torn_writer(victim, cut_call)
        with pytest.raises(SimulatedCrash):
            victim.rolling_forecast_from_matrix(matrix_data["test_preds"])

        resumed = fitted(_checkpoint(loop_dir, every=10, resume=True))
        actual = resumed.rolling_forecast_from_matrix(
            matrix_data["test_preds"]
        )
        assert np.array_equal(actual, expected)


class TestOnlineLoopResume:
    """The hardest loop: the agent keeps learning while forecasting."""

    @pytest.mark.parametrize("agent", ["ddpg", "td3", "sac"])
    @pytest.mark.parametrize("mode", ["periodic", "drift"])
    @pytest.mark.parametrize("cut_call", [2, 5])
    def test_bit_identical_after_kill(self, matrix_data, tmp_path, cut_call,
                                      mode, agent):
        def fitted(checkpoint=None) -> EADRL:
            model = EADRL(models=_members(),
                          config=_config(checkpoint, agent=agent))
            model.fit_policy_from_matrix(
                matrix_data["meta_preds"], matrix_data["meta_truth"]
            )
            return model

        kwargs = dict(mode=mode, interval=10, updates_per_trigger=2)
        expected = fitted().rolling_forecast_online(
            matrix_data["test_preds"], matrix_data["test_truth"], **kwargs
        )

        loop_dir = tmp_path / f"online-{mode}"
        victim = fitted(_checkpoint(loop_dir, every=10))
        _install_torn_writer(victim, cut_call)
        with pytest.raises(SimulatedCrash):
            victim.rolling_forecast_online(
                matrix_data["test_preds"], matrix_data["test_truth"], **kwargs
            )

        resumed = fitted(_checkpoint(loop_dir, every=10, resume=True))
        actual = resumed.rolling_forecast_online(
            matrix_data["test_preds"], matrix_data["test_truth"], **kwargs
        )
        assert np.array_equal(actual, expected)


class TestSeriesLoopsAcrossExecutors:
    """Series-level loops (pool in the loop)."""

    def test_rolling_forecast_resumes(self, series, tmp_path):
        start = 150

        def fitted(checkpoint=None) -> EADRL:
            model = EADRL(
                models=_members(),
                config=_config(checkpoint),
            )
            model.fit(series[:start])
            return model

        expected = fitted().rolling_forecast(series, start=start)

        loop_dir = tmp_path / "rolling"
        victim = fitted(_checkpoint(loop_dir, every=10))
        _install_torn_writer(victim, cut_call=2)
        with pytest.raises(SimulatedCrash):
            victim.rolling_forecast(series, start=start)

        resumed = fitted(_checkpoint(loop_dir, every=10, resume=True))
        actual = resumed.rolling_forecast(series, start=start)
        assert np.array_equal(actual, expected)

    def test_multistep_forecast_resumes(self, series, tmp_path):
        horizon = 25

        def fitted(checkpoint=None) -> EADRL:
            model = EADRL(models=_members(), config=_config(checkpoint))
            model.fit(series[:160])
            return model

        expected = fitted().forecast(series[:160], horizon)

        loop_dir = tmp_path / "multistep"
        victim = fitted(_checkpoint(loop_dir, every=10))
        _install_torn_writer(victim, cut_call=2)
        with pytest.raises(SimulatedCrash):
            victim.forecast(series[:160], horizon)

        resumed = fitted(_checkpoint(loop_dir, every=10, resume=True))
        actual = resumed.forecast(series[:160], horizon)
        assert np.array_equal(actual, expected)


class TestSharedDirectoryIsolation:
    def test_kinds_and_contexts_do_not_cross_talk(self, matrix_data,
                                                  tmp_path):
        """Training + matrix loop snapshots share one directory safely."""
        checkpoint = _checkpoint(tmp_path, every=10)
        model = EADRL(models=_members(), config=_config(checkpoint))
        model.fit_policy_from_matrix(
            matrix_data["meta_preds"], matrix_data["meta_truth"]
        )
        expected = model.rolling_forecast_from_matrix(
            matrix_data["test_preds"]
        )

        resumed = EADRL(models=_members(),
                        config=_config(_checkpoint(tmp_path, every=10,
                                                   resume=True)))
        resumed.fit_policy_from_matrix(
            matrix_data["meta_preds"], matrix_data["meta_truth"]
        )
        actual = resumed.rolling_forecast_from_matrix(
            matrix_data["test_preds"]
        )
        assert np.array_equal(actual, expected)
