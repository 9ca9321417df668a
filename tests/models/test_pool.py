"""Tests for build_pool and ForecasterPool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataValidationError
from repro.models import ForecasterPool, MeanForecaster, build_pool
from repro.models.base import Forecaster


class _FailingModel(Forecaster):
    name = "failer"

    def fit(self, series):
        raise RuntimeError("deliberate failure")

    def predict_next(self, history):
        return 0.0


class TestBuildPool:
    def test_full_pool_has_43_models(self):
        assert len(build_pool("full")) == 43

    def test_medium_pool_has_16_families(self):
        pool = build_pool("medium")
        assert len(pool) == 16

    def test_small_pool_is_fast_subset(self):
        pool = build_pool("small")
        assert len(pool) == 8
        assert all("lstm" not in m.name for m in pool)

    def test_full_pool_family_coverage(self):
        names = " ".join(m.name for m in build_pool("full"))
        for family in (
            "arima", "ets", "gbm", "gp", "svr", "rf", "ppr", "mars",
            "pcr", "dt", "pls", "mlp", "lstm(", "bilstm", "cnnlstm", "convlstm",
        ):
            assert family in names, family

    def test_unique_names(self):
        names = [m.name for m in build_pool("full")]
        assert len(names) == len(set(names))

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            build_pool("huge")

    def test_embedding_dimension_propagates(self):
        pool = build_pool("small", embedding_dimension=7)
        window_models = [m for m in pool if hasattr(m, "embedding_dimension")]
        assert all(m.embedding_dimension == 7 for m in window_models)


class TestForecasterPool:
    def test_fit_and_matrix(self, short_series):
        pool = ForecasterPool(build_pool("small")).fit(short_series[:150])
        P = pool.prediction_matrix(short_series, 150)
        assert P.shape == (50, len(pool))
        assert np.all(np.isfinite(P))

    def test_failed_member_dropped_with_warning(self, short_series):
        pool = ForecasterPool([MeanForecaster(), _FailingModel()])
        with pytest.warns(UserWarning, match="failer"):
            pool.fit(short_series)
        assert len(pool) == 1
        assert pool.names == ["mean"]

    def test_all_failed_raises(self, short_series):
        pool = ForecasterPool([_FailingModel()])
        with pytest.raises(DataValidationError):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pool.fit(short_series)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            ForecasterPool([])

    def test_unfitted_matrix_raises(self, short_series):
        pool = ForecasterPool(build_pool("small"))
        with pytest.raises(DataValidationError):
            pool.prediction_matrix(short_series, 100)

    def test_predict_next_vector(self, short_series):
        pool = ForecasterPool(build_pool("small")).fit(short_series)
        preds = pool.predict_next(short_series)
        assert preds.shape == (len(pool),)

    def test_matrix_column_matches_member(self, short_series):
        pool = ForecasterPool(build_pool("small")).fit(short_series[:150])
        P = pool.prediction_matrix(short_series, 150)
        direct = pool.models[0].rolling_predictions(short_series, 150)
        np.testing.assert_allclose(P[:, 0], direct)

    def test_max_min_context(self, short_series):
        pool = ForecasterPool(build_pool("small")).fit(short_series)
        assert pool.max_min_context() >= 5


class TestFitDropBookkeeping:
    def test_dropped_records_name_type_message(self, short_series):
        pool = ForecasterPool([MeanForecaster(), _FailingModel()])
        with pytest.warns(UserWarning):
            pool.fit(short_series)
        assert pool.dropped_ == [("failer", "RuntimeError", "deliberate failure")]

    def test_warning_includes_exception_class(self, short_series):
        pool = ForecasterPool([MeanForecaster(), _FailingModel()])
        with pytest.warns(UserWarning, match="RuntimeError"):
            pool.fit(short_series)

    def test_no_drops_leaves_empty_list(self, short_series):
        pool = ForecasterPool([MeanForecaster()]).fit(short_series)
        assert pool.dropped_ == []

    def test_refit_resets_dropped(self, short_series):
        pool = ForecasterPool([MeanForecaster(), _FailingModel()])
        with pytest.warns(UserWarning):
            pool.fit(short_series)
        assert len(pool.dropped_) == 1
        pool.fit(short_series)  # survivors only now; nothing drops
        assert pool.dropped_ == []

    def test_all_failed_raises_data_validation(self, short_series):
        import warnings

        pool = ForecasterPool([_FailingModel(), _FailingModel()])
        with pytest.raises(DataValidationError, match="every pool member"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pool.fit(short_series)
        assert len(pool.dropped_) == 2


class TestSubsetValidation:
    def _fitted(self, short_series):
        return ForecasterPool(build_pool("small")).fit(short_series)

    def test_empty_indices_rejected(self, short_series):
        with pytest.raises(ConfigurationError, match="at least one"):
            self._fitted(short_series).subset([])

    def test_negative_index_rejected(self, short_series):
        with pytest.raises(ConfigurationError, match="out of range"):
            self._fitted(short_series).subset([-1])

    def test_out_of_range_index_rejected(self, short_series):
        pool = self._fitted(short_series)
        with pytest.raises(ConfigurationError, match="out of range"):
            pool.subset([len(pool)])

    def test_subset_shares_members_and_fitted_state(self, short_series):
        pool = self._fitted(short_series)
        pruned = pool.subset([0, 2])
        assert pruned.names == [pool.names[0], pool.names[2]]
        assert pruned.models[0] is pool.models[0]
        # fitted state carries over: predictions work immediately
        P = pruned.prediction_matrix(short_series, 150)
        assert P.shape == (50, 2)


class TestGuardedPool:
    def _guard_config(self, **overrides):
        from repro.runtime import RuntimeGuardConfig

        return RuntimeGuardConfig(**overrides)

    def test_guarded_matrix_identical_when_healthy(self, short_series):
        plain = ForecasterPool(build_pool("small")).fit(short_series[:150])
        guarded = ForecasterPool(
            build_pool("small"), guard_config=self._guard_config()
        ).fit(short_series[:150])
        np.testing.assert_array_equal(
            plain.prediction_matrix(short_series, 150),
            guarded.prediction_matrix(short_series, 150),
        )
        _, mask = guarded.prediction_matrix_with_mask(short_series, 150)
        assert mask.all()

    def test_unguarded_mask_is_all_true(self, short_series):
        pool = ForecasterPool(build_pool("small")).fit(short_series[:150])
        P, mask = pool.prediction_matrix_with_mask(short_series, 150)
        assert P.shape == mask.shape
        assert mask.all()
        assert not pool.guarded

    def test_guarded_pool_survives_predict_time_exception(self, short_series):
        from repro.testing import FailureSchedule, FlakyForecaster

        pool = ForecasterPool(
            [MeanForecaster(),
             FlakyForecaster(MeanForecaster(), FailureSchedule.window(160, 170))],
            guard_config=self._guard_config(max_retries=0),
        ).fit(short_series[:150])
        P, mask = pool.prediction_matrix_with_mask(short_series, 150)
        assert np.all(np.isfinite(P))
        assert mask[:, 0].all()
        assert not mask[10:20, 1].any()  # t = 160..169 degraded

    def test_guarded_predict_next_mask(self, short_series):
        from repro.testing import FailureSchedule, FlakyForecaster

        pool = ForecasterPool(
            [MeanForecaster(),
             FlakyForecaster(MeanForecaster(), FailureSchedule.after(0))],
            guard_config=self._guard_config(max_retries=0),
        ).fit(short_series)
        values, mask = pool.predict_next_with_mask(short_series)
        assert np.all(np.isfinite(values))
        assert mask.tolist() == [True, False]

    def test_health_registry_exposed(self, short_series):
        pool = ForecasterPool(
            [MeanForecaster()], guard_config=self._guard_config()
        ).fit(short_series)
        pool.predict_next(short_series)
        assert pool.health().member("mean").successes == 1

    def test_subset_preserves_guards_and_health(self, short_series):
        pool = ForecasterPool(
            build_pool("small"), guard_config=self._guard_config()
        ).fit(short_series[:150])
        pool.prediction_matrix(short_series, 150)
        pruned = pool.subset([0, 1])
        assert pruned.guarded
        assert pruned.health() is pool.health()


class TestPredictNextBatch:
    """``predict_next_batch_with_mask`` row ``i`` is bitwise the
    single-history step on ``histories[i]``, values and mask."""

    LENGTHS = (150, 163, 171, 200)

    def _guarded_pool(self, short_series):
        from repro.runtime import RuntimeGuardConfig
        from repro.testing import FailureSchedule, FlakyForecaster

        members = build_pool("small") + [
            FlakyForecaster(MeanForecaster(), FailureSchedule.at(163)),
        ]
        return ForecasterPool(
            members, guard_config=RuntimeGuardConfig(max_retries=0)
        ).fit(short_series[:150])

    def _assert_rows_match(self, batch_pool, serial_pool, short_series):
        histories = [short_series[:n] for n in self.LENGTHS]
        values, mask = batch_pool.predict_next_batch_with_mask(histories)
        assert values.shape == mask.shape == (len(histories), len(batch_pool))
        for i, history in enumerate(histories):
            want_values, want_mask = serial_pool.predict_next_with_mask(
                history
            )
            assert np.array_equal(values[i], want_values)
            assert np.array_equal(mask[i], want_mask)
        return mask

    def test_guarded_rows_match_single_step(self, short_series):
        # Guards keep per-member state, so the reference runs on a twin.
        mask = self._assert_rows_match(
            self._guarded_pool(short_series),
            self._guarded_pool(short_series),
            short_series,
        )
        assert mask[0].all() and not mask[1, -1]

    def test_unguarded_rows_match_single_step(self, short_series):
        pool = ForecasterPool(build_pool("small")).fit(short_series[:150])
        mask = self._assert_rows_match(pool, pool, short_series)
        assert mask.all()


def _fanout_series(n: int = 160) -> np.ndarray:
    rng = np.random.default_rng(7)
    t = np.arange(n, dtype=np.float64)
    return np.sin(2 * np.pi * t / 12) + 0.02 * t + 0.3 * rng.normal(size=n)


def _fanout_members():
    from repro.models.base import NaiveForecaster, SeasonalNaiveForecaster
    from repro.models.ets import SimpleExpSmoothing
    from repro.models.projection import RidgeForecaster
    from repro.models.tree import DecisionTreeForecaster

    return [
        NaiveForecaster(),
        MeanForecaster(),
        SeasonalNaiveForecaster(12),
        SimpleExpSmoothing(),
        RidgeForecaster(5, alpha=1.0),
        DecisionTreeForecaster(5, max_depth=4),
    ]


def _faulted_members():
    """Two deterministic troublemakers in the middle of the pool."""
    from repro.testing import FailureSchedule, FlakyForecaster, NaNForecaster

    members = _fanout_members()
    # flaky member fails long enough to trip its breaker mid-matrix
    members[2] = FlakyForecaster(members[2], FailureSchedule.window(118, 128))
    # NaN member poisons two isolated steps (retried, then fallback-filled)
    members[4] = NaNForecaster(members[4], FailureSchedule.at(121, 130))
    return members


def _run_fanouts(members, guard=None):
    """Fit, prediction matrix and one online step over the same series."""
    series = _fanout_series()
    pool = ForecasterPool(members, guard_config=guard)
    pool.fit(series[:110])
    matrix, mask = pool.prediction_matrix_with_mask(series, 115)
    values, vmask = pool.predict_next_with_mask(series[:140])
    return pool, (matrix, mask, values, vmask)


def _health_snapshot(pool):
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


class TestPoolTimings:
    def test_timings_populated_without_guards(self):
        pool, _ = _run_fanouts(_fanout_members())
        rows = pool.health().timings()
        assert [r["member"] for r in rows] == pool.names
        assert all(r["fit_seconds"] >= 0.0 for r in rows)
        assert all(r["predict_seconds"] >= 0.0 for r in rows)


class TestGuardedFaults:
    @pytest.fixture(scope="class")
    def guard(self):
        from repro.runtime import RuntimeGuardConfig

        # no timeouts: wall-clock budgets are the one load-dependent
        # guard feature
        return RuntimeGuardConfig(timeout=None, max_retries=1,
                                  failure_threshold=3, cooldown_steps=5)

    def test_breaker_opened_and_recovered(self, guard):
        pool, (_, mask, _, _) = _run_fanouts(_faulted_members(), guard)
        snapshot = _health_snapshot(pool)
        assert not mask.all()
        flaky = [s for s in snapshot["summary"]
                 if s["member"].startswith("flaky")]
        assert flaky and flaky[0]["failures"] > 0
        states = [t[3] for t in snapshot["transitions"]]
        assert "open" in states
        # the window ends, a half-open probe succeeds and the breaker closes
        assert states[-1] == "closed"
        assert flaky[0]["state"] == "closed"

    def test_faulted_run_is_deterministic(self, guard):
        first, outputs = _run_fanouts(_faulted_members(), guard)
        second, again = _run_fanouts(_faulted_members(), guard)
        for a, b in zip(outputs, again):
            np.testing.assert_array_equal(a, b)
        assert _health_snapshot(first) == _health_snapshot(second)


class TestEADRLDeterminism:
    """End-to-end: fit + rolling_forecast reproduce bit for bit."""

    @staticmethod
    def _forecast():
        from repro.core import EADRL, EADRLConfig
        from repro.rl.ddpg import DDPGConfig

        series = _fanout_series(200)
        model = EADRL(
            models=_fanout_members(),
            config=EADRLConfig(episodes=2, max_iterations=10,
                               ddpg=DDPGConfig(seed=3)),
        )
        model.fit(series[:150])
        return model.rolling_forecast(series, start=150)

    def test_rolling_forecast_bit_identical(self):
        np.testing.assert_array_equal(self._forecast(), self._forecast())
