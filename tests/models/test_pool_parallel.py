"""Determinism suite for the parallel pool execution engine.

The executor's contract is *bit-identity*: for any backend
(serial/thread) and any worker count, `ForecasterPool.fit`,
`prediction_matrix_with_mask` and `predict_next_with_mask` must produce
byte-for-byte the same predictions, masks, drops, and — under the guard
layer — the same health events, breaker transitions, and quarantine
lists as a serial run. These tests pin that contract, including under
injected faults from :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.base import (
    MeanForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
)
from repro.models.ets import SimpleExpSmoothing
from repro.models.pool import ForecasterPool
from repro.models.projection import RidgeForecaster
from repro.models.tree import DecisionTreeForecaster
from repro.runtime import RuntimeGuardConfig
from repro.testing import FailureSchedule, FlakyForecaster, NaNForecaster

BACKEND_GRID = [
    ("serial", None),
    ("thread", 1),
    ("thread", 2),
    ("thread", 4),
]


def make_series(n: int = 160) -> np.ndarray:
    rng = np.random.default_rng(7)
    t = np.arange(n, dtype=np.float64)
    return np.sin(2 * np.pi * t / 12) + 0.02 * t + 0.3 * rng.normal(size=n)


def fresh_members():
    return [
        NaiveForecaster(),
        MeanForecaster(),
        SeasonalNaiveForecaster(12),
        SimpleExpSmoothing(),
        RidgeForecaster(5, alpha=1.0),
        DecisionTreeForecaster(5, max_depth=4),
    ]


def faulted_members():
    """A pool with two deterministic troublemakers in the middle."""
    members = fresh_members()
    # flaky member fails long enough to trip its breaker mid-matrix
    members[2] = FlakyForecaster(members[2], FailureSchedule.window(118, 128))
    # NaN member poisons two isolated steps (retried, then fallback-filled)
    members[4] = NaNForecaster(members[4], FailureSchedule.at(121, 130))
    return members


def run_pool(backend, n_jobs, members, guard=None):
    series = make_series()
    pool = ForecasterPool(members, guard_config=guard,
                          executor=backend, n_jobs=n_jobs)
    pool.fit(series[:110])
    matrix, mask = pool.prediction_matrix_with_mask(series, 115)
    values, vmask = pool.predict_next_with_mask(series[:140])
    return pool, matrix, mask, values, vmask


def health_snapshot(pool):
    health = pool.health()
    return {
        "summary": health.summary(),
        "failures": [(e.member, e.step, e.kind) for e in health.failures],
        "transitions": [
            (e.member, e.step, e.old_state.value, e.new_state.value)
            for e in health.transitions
        ],
        "quarantined": health.quarantined(),
    }


class TestUnguardedDeterminism:
    @pytest.fixture(scope="class")
    def reference(self):
        pool, matrix, mask, values, vmask = run_pool("serial", None, fresh_members())
        pool.close()
        return matrix, mask, values, vmask

    @pytest.mark.parametrize("backend,n_jobs", BACKEND_GRID[1:])
    def test_matches_serial(self, backend, n_jobs, reference):
        pool, matrix, mask, values, vmask = run_pool(backend, n_jobs, fresh_members())
        np.testing.assert_array_equal(matrix, reference[0])
        np.testing.assert_array_equal(mask, reference[1])
        np.testing.assert_array_equal(values, reference[2])
        np.testing.assert_array_equal(vmask, reference[3])
        pool.close()

    def test_timings_populated_without_guards(self):
        pool, *_ = run_pool("thread", 2, fresh_members())
        rows = pool.health().timings()
        assert [r["member"] for r in rows] == pool.names
        assert all(r["fit_seconds"] >= 0.0 for r in rows)
        assert all(r["predict_seconds"] >= 0.0 for r in rows)
        pool.close()


class TestGuardedFaultDeterminism:
    @pytest.fixture(scope="class")
    def guard(self):
        # no timeouts: wall-clock budgets are the one guard feature that
        # is inherently load-dependent, so the determinism contract
        # excludes them (see docs/performance.md)
        return RuntimeGuardConfig(timeout=None, max_retries=1,
                                  failure_threshold=3, cooldown_steps=5)

    @pytest.fixture(scope="class")
    def reference(self, guard):
        pool, matrix, mask, values, vmask = run_pool(
            "serial", None, faulted_members(), guard)
        snapshot = health_snapshot(pool)
        pool.close()
        # sanity: the schedules actually exercised the fault machinery
        assert not mask.all()
        assert snapshot["failures"]
        assert snapshot["transitions"]
        return matrix, mask, values, vmask, snapshot

    @pytest.mark.parametrize("backend,n_jobs", BACKEND_GRID[1:])
    def test_faulted_run_matches_serial(self, backend, n_jobs, guard, reference):
        pool, matrix, mask, values, vmask = run_pool(
            backend, n_jobs, faulted_members(), guard)
        snapshot = health_snapshot(pool)
        np.testing.assert_array_equal(matrix, reference[0])
        np.testing.assert_array_equal(mask, reference[1])
        np.testing.assert_array_equal(values, reference[2])
        np.testing.assert_array_equal(vmask, reference[3])
        assert snapshot == reference[4]
        pool.close()

    def test_breaker_opened_and_recovered(self, reference):
        *_, snapshot = reference
        flaky = [s for s in snapshot["summary"] if s["member"].startswith("flaky")]
        assert flaky and flaky[0]["failures"] > 0
        states = [t[3] for t in snapshot["transitions"]]
        assert "open" in states


class TestEADRLDeterminism:
    """End-to-end: fit + rolling_forecast identical across backends."""

    @staticmethod
    def _forecast(backend, n_jobs):
        from repro.core import EADRL, EADRLConfig
        from repro.rl.ddpg import DDPGConfig

        series = make_series(200)
        model = EADRL(
            models=fresh_members(),
            config=EADRLConfig(
                episodes=2,
                max_iterations=10,
                ddpg=DDPGConfig(seed=3),
                executor=backend,
                n_jobs=n_jobs,
            ),
        )
        model.fit(series[:150])
        predictions = model.rolling_forecast(series, start=150)
        model.pool.close()
        return predictions

    def test_rolling_forecast_bit_identical(self):
        reference = self._forecast("serial", None)
        for backend, n_jobs in [("thread", 2)]:
            np.testing.assert_array_equal(
                self._forecast(backend, n_jobs), reference)


class TestExecutorPlumbing:
    def test_subset_inherits_executor(self):
        series = make_series()
        pool = ForecasterPool(fresh_members(), executor="thread", n_jobs=2)
        pool.fit(series[:110])
        sub = pool.subset([0, 2, 4])
        assert sub.executor_config.backend == "thread"
        assert sub.executor_config.n_jobs == 2
        pool.close()

    def test_invalid_backend_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ForecasterPool(fresh_members(), executor="gpu")

    def test_close_is_idempotent(self):
        pool = ForecasterPool(fresh_members(), executor="thread", n_jobs=2)
        pool.fit(make_series()[:110])
        pool.predict_next_with_mask(make_series()[:130])
        pool.close()
        pool.close()
