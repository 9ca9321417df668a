"""Pool construction: the paper's 43 base models from 16 families.

:func:`build_pool` assembles the heterogeneous pool ``M`` used throughout
the paper ("Using different parameter settings for each approach, we
generate a pool of 43 single base models"). Three sizes are provided:

- ``"full"`` — 43 models across all 16 families (the paper's setup);
- ``"medium"`` — 16 models, one representative per family;
- ``"small"`` — 8 fast models (no sequence networks), for tests and
  quick experiments.

:class:`ForecasterPool` fits every member independently, one after
another in member order (the paper's "trained in parallel and separately
from each other to maximize diversity" is about independence: no member
sees another's output), drops members whose training fails, and produces
the prequential prediction matrix every combiner in this library
consumes.
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError
from repro.models.arima import ARIMA
from repro.models.base import Forecaster
from repro.models.ets import Holt, HoltWinters, SimpleExpSmoothing
from repro.models.forest import RandomForestForecaster
from repro.models.gbm import GradientBoostingForecaster
from repro.models.gp import GaussianProcessForecaster
from repro.models.mars import MARSForecaster
from repro.models.neural import MLPForecaster
from repro.models.ppr import ProjectionPursuitForecaster
from repro.models.projection import PLSForecaster, PrincipalComponentForecaster
from repro.models.recurrent_forecasters import (
    BiLSTMForecaster,
    CNNLSTMForecaster,
    ConvLSTMForecaster,
    LSTMForecaster,
)
from repro.models.svr import SVRForecaster
from repro.models.tree import DecisionTreeForecaster
from repro.obs import OBS, get_logger
from repro.preprocessing.embedding import validate_series

_LOG = get_logger("pool")

if TYPE_CHECKING:  # pragma: no cover - typing only. The runtime import
    # is deferred at runtime: repro.runtime.guards subclasses Forecaster,
    # so a module-scope import here would make models <-> runtime circular.
    from repro.runtime import PoolHealth, RuntimeGuardConfig


def build_pool(
    size: str = "full",
    embedding_dimension: int = 5,
    seasonal_period: int = 24,
    seed: int = 0,
    neural_epochs: int = 60,
) -> List[Forecaster]:
    """Build the heterogeneous base-model pool.

    Parameters
    ----------
    size:
        ``"full"`` (43 models), ``"medium"`` (16), or ``"small"`` (8).
    embedding_dimension:
        k for the window regressors (paper: 5).
    seasonal_period:
        Period handed to Holt-Winters (cadence-dependent).
    seed:
        Base seed; individual stochastic models get distinct offsets.
    neural_epochs:
        Training epochs for the neural members (scale knob for runtime).
    """
    k = embedding_dimension
    if size == "small":
        return [
            ARIMA(2, 0, 0),
            ARIMA(1, 1, 1),
            SimpleExpSmoothing(),
            Holt(),
            DecisionTreeForecaster(k, max_depth=4),
            RandomForestForecaster(k, n_estimators=20, max_depth=6, seed=seed),
            GradientBoostingForecaster(k, n_estimators=40, max_depth=2, seed=seed),
            PLSForecaster(k, n_components=min(2, k)),
        ]
    if size == "medium":
        return [
            ARIMA(2, 0, 1),
            Holt(),
            GradientBoostingForecaster(k, n_estimators=60, max_depth=3, seed=seed),
            GaussianProcessForecaster(k, length_scale=1.5),
            SVRForecaster(k, kernel="rbf", C=1.0, epsilon=0.1),
            RandomForestForecaster(k, n_estimators=40, seed=seed),
            ProjectionPursuitForecaster(k, n_terms=2, seed=seed),
            MARSForecaster(k, max_terms=8),
            PrincipalComponentForecaster(k, n_components=min(3, k)),
            DecisionTreeForecaster(k, max_depth=5),
            PLSForecaster(k, n_components=min(2, k)),
            MLPForecaster(k, hidden=(16,), epochs=max(100, neural_epochs), seed=seed),
            LSTMForecaster(hidden=8, epochs=neural_epochs, seed=seed),
            BiLSTMForecaster(hidden=6, epochs=neural_epochs, seed=seed),
            CNNLSTMForecaster(hidden=8, epochs=neural_epochs, seed=seed),
            ConvLSTMForecaster(epochs=neural_epochs, seed=seed),
        ]
    if size != "full":
        raise ConfigurationError(
            f"pool size must be 'small', 'medium' or 'full', got {size!r}"
        )

    mlp_epochs = max(120, neural_epochs)
    models: List[Forecaster] = [
        # ARIMA family — 5 configurations.
        ARIMA(1, 0, 0),
        ARIMA(2, 0, 1),
        ARIMA(1, 1, 1),
        ARIMA(2, 1, 2),
        ARIMA(5, 0, 0),
        # ETS family — 3.
        SimpleExpSmoothing(),
        Holt(),
        HoltWinters(period=seasonal_period),
        # GBM family — 4.
        GradientBoostingForecaster(k, n_estimators=60, max_depth=2,
                                   learning_rate=0.1, seed=seed),
        GradientBoostingForecaster(k, n_estimators=100, max_depth=3,
                                   learning_rate=0.1, seed=seed + 1),
        GradientBoostingForecaster(k, n_estimators=60, max_depth=3,
                                   learning_rate=0.05, seed=seed + 2),
        GradientBoostingForecaster(k, n_estimators=80, max_depth=2,
                                   learning_rate=0.2, subsample=0.8, seed=seed + 3),
        # GP family — 2.
        GaussianProcessForecaster(k, length_scale=1.0, noise=0.1),
        GaussianProcessForecaster(k, length_scale=3.0, noise=0.05),
        # SVR family — 3.
        SVRForecaster(k, kernel="rbf", C=1.0, epsilon=0.1),
        SVRForecaster(k, kernel="rbf", C=10.0, epsilon=0.05),
        SVRForecaster(k, kernel="linear", C=1.0, epsilon=0.1),
        # RFR family — 3.
        RandomForestForecaster(k, n_estimators=30, max_depth=6, seed=seed),
        RandomForestForecaster(k, n_estimators=80, seed=seed + 1),
        RandomForestForecaster(k, n_estimators=50, max_depth=10,
                               max_features=max(1, k - 1), seed=seed + 2),
        # PPR family — 2.
        ProjectionPursuitForecaster(k, n_terms=2, seed=seed),
        ProjectionPursuitForecaster(k, n_terms=4, seed=seed + 1),
        # MARS family — 2.
        MARSForecaster(k, max_terms=6),
        MARSForecaster(k, max_terms=12),
        # PCMR family — 2.
        PrincipalComponentForecaster(k, n_components=min(2, k)),
        PrincipalComponentForecaster(k, n_components=min(4, k)),
        # DT family — 3.
        DecisionTreeForecaster(k, max_depth=3),
        DecisionTreeForecaster(k, max_depth=6),
        DecisionTreeForecaster(k, max_depth=None, min_samples_leaf=4),
        # PLS family — 2.
        PLSForecaster(k, n_components=min(2, k)),
        PLSForecaster(k, n_components=min(3, k)),
        # MLP family — 4.
        MLPForecaster(k, hidden=(8,), epochs=mlp_epochs, seed=seed),
        MLPForecaster(k, hidden=(16,), epochs=mlp_epochs, seed=seed + 1),
        MLPForecaster(k, hidden=(32,), epochs=mlp_epochs, seed=seed + 2),
        MLPForecaster(k, hidden=(16, 8), epochs=mlp_epochs,
                      activation="tanh", seed=seed + 3),
        # LSTM family — 3.
        LSTMForecaster(window=10, hidden=8, epochs=neural_epochs, seed=seed),
        LSTMForecaster(window=10, hidden=16, epochs=neural_epochs, seed=seed + 1),
        LSTMForecaster(window=16, hidden=8, epochs=neural_epochs, seed=seed + 2),
        # Bi-LSTM family — 2.
        BiLSTMForecaster(window=10, hidden=6, epochs=neural_epochs, seed=seed),
        BiLSTMForecaster(window=10, hidden=10, epochs=neural_epochs, seed=seed + 1),
        # CNN-LSTM family — 2.
        CNNLSTMForecaster(window=12, filters=8, hidden=8,
                          epochs=neural_epochs, seed=seed),
        CNNLSTMForecaster(window=12, filters=4, kernel=5, hidden=6,
                          epochs=neural_epochs, seed=seed + 1),
        # Conv-LSTM family — 1.
        ConvLSTMForecaster(frame_width=4, n_frames=3, epochs=neural_epochs, seed=seed),
    ]
    return models


def build_pool_for_series(
    series: np.ndarray,
    size: str = "full",
    embedding_dimension: int = 5,
    seed: int = 0,
    neural_epochs: int = 60,
) -> List[Forecaster]:
    """Build a pool auto-configured from the series' diagnostics.

    Detects the dominant seasonal period (periodogram) and hands it to
    the Holt-Winters member; a series with no clear season gets the
    default hourly period (whose HW member will then simply rank low and
    receive negligible weight).
    """
    from repro.analysis.diagnostics import detect_period

    array = validate_series(series, min_length=50)
    period = detect_period(array)
    if period < 2:
        period = 24
    # Guard: HoltWinters needs two full seasons inside the series.
    if 2 * period > array.size // 2:
        period = max(2, array.size // 8)
    return build_pool(
        size=size,
        embedding_dimension=embedding_dimension,
        seasonal_period=period,
        seed=seed,
        neural_epochs=neural_epochs,
    )


class ForecasterPool:
    """The trained pool ``M`` plus its prequential prediction matrix.

    Every fan-out (fit, prediction matrix, online one-step query) is one
    loop over the members in member order, so predictions, masks, drops
    and health events are deterministic.

    Parameters
    ----------
    models:
        Base forecasters (unfitted). Members whose ``fit`` raises are
        dropped with a warning, keeping the pool robust to pathological
        series (e.g. Holt-Winters on a series shorter than two periods);
        the drops are recorded in :attr:`dropped_`.
    guard_config:
        When given, every member is wrapped in a
        :class:`~repro.runtime.GuardedForecaster` (timeout / retry /
        circuit breaker) reporting into a shared
        :class:`~repro.runtime.PoolHealth` registry, and the prediction
        APIs degrade gracefully (fallback-filled columns plus a healthy
        mask) instead of letting one member's predict-time failure kill
        the whole forecast. ``None`` (default) keeps the original
        fail-fast behaviour with zero overhead.
    health:
        Existing registry to report into (used by :meth:`subset` so a
        pruned pool shares its parent's health history).

    Attributes
    ----------
    dropped_:
        ``(name, exception_type, message)`` tuples for every member whose
        ``fit`` failed (set by :meth:`fit`).
    """

    def __init__(
        self,
        models: Sequence[Forecaster],
        guard_config: Optional["RuntimeGuardConfig"] = None,
        health: Optional["PoolHealth"] = None,
    ):
        from repro.runtime import GuardedForecaster, PoolHealth

        if not models:
            raise ConfigurationError("pool must contain at least one model")
        self._guard_config = guard_config
        self._health = health if health is not None else PoolHealth()
        members = list(models)
        if guard_config is not None:
            guard_config.validate()
            members = [
                m if isinstance(m, GuardedForecaster)
                else GuardedForecaster(m, guard_config, self._health)
                for m in members
            ]
        self._models: List[Forecaster] = members
        self._fitted = False
        self.dropped_: List[Tuple[str, str, str]] = []

    # ------------------------------------------------------------------
    @property
    def models(self) -> List[Forecaster]:
        return list(self._models)

    @property
    def names(self) -> List[str]:
        return [m.name for m in self._models]

    def __len__(self) -> int:
        return len(self._models)

    @property
    def guarded(self) -> bool:
        """Whether members are wrapped in runtime guards."""
        return self._guard_config is not None

    def health(self) -> "PoolHealth":
        """The pool's health registry.

        Guard events require ``guard_config``; per-member timing
        telemetry (:meth:`~repro.runtime.PoolHealth.timings`) is recorded
        for every pool.
        """
        return self._health

    # ------------------------------------------------------------------
    def fit(self, train_series: np.ndarray) -> "ForecasterPool":
        """Fit all members on the training series; drop failing members.

        Dropped members are recorded in :attr:`dropped_` as
        ``(name, exception_type, message)`` tuples; each member's fit
        time goes to :meth:`health`.
        """
        array = validate_series(train_series, min_length=10)
        survivors: List[Forecaster] = []
        self.dropped_ = []
        with OBS.span("pool.fit"):
            for member in self._models:
                t0 = time.perf_counter()
                try:
                    member.fit(array)
                    error = None
                except Exception as exc:  # noqa: BLE001 - pool must stay robust
                    error = exc
                self._health.record_timing(
                    member.name, "fit", time.perf_counter() - t0
                )
                if error is None:
                    survivors.append(member)
                    continue
                kind = type(error).__name__
                self.dropped_.append((member.name, kind, str(error)))
                warnings.warn(
                    f"dropping pool member {member.name!r} ({kind}): {error}",
                    stacklevel=2,
                )
        if not survivors:
            raise DataValidationError("every pool member failed to fit")
        self._models = survivors
        self._fitted = True
        _LOG.debug("pool fit: %d survivors, %d dropped",
                   len(survivors), len(self.dropped_))
        if OBS.enabled:
            self._health.publish_metrics(OBS.registry)
        return self

    def prediction_matrix(self, series: np.ndarray, start: int) -> np.ndarray:
        """One-step predictions of every member for ``t in [start, n)``.

        Returns shape ``(n - start, m)``; column ``i`` belongs to
        ``self.models[i]``. ``series`` must contain the training prefix so
        each model sees the true history (prequential protocol).
        """
        matrix, _ = self.prediction_matrix_with_mask(series, start)
        return matrix

    def prediction_matrix_with_mask(
        self, series: np.ndarray, start: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Prediction matrix plus its per-cell health mask.

        Returns ``(matrix, mask)`` of equal shape ``(n - start, m)``.
        ``mask[t, i]`` is ``True`` where the value is a genuine member
        prediction and ``False`` where the runtime substituted a fallback
        (member failed or quarantined at that step). Unguarded pools
        compute the matrix exactly as before and return an all-``True``
        mask; a member failure there propagates (fail-fast).
        """
        if not self._fitted:
            raise DataValidationError("pool must be fitted before predicting")
        guarded = self._guard_config is not None
        array = np.asarray(series, dtype=np.float64) if guarded else series
        columns, masks = [], []
        with OBS.span("pool.prediction_matrix"):
            for member in self._models:
                t0 = time.perf_counter()
                if guarded:
                    column, mask = member.guarded_rolling(array, start)
                else:
                    column = np.asarray(
                        member.rolling_predictions(array, start),
                        dtype=np.float64,
                    )
                    mask = np.ones(column.shape, dtype=bool)
                self._health.record_timing(
                    member.name, "predict", time.perf_counter() - t0
                )
                columns.append(column)
                masks.append(mask)
        if OBS.enabled:
            self._health.publish_metrics(OBS.registry)
        return np.column_stack(columns), np.column_stack(masks)

    def predict_next(self, history: np.ndarray) -> np.ndarray:
        """Vector of one-step forecasts (one per member)."""
        values, _ = self.predict_next_with_mask(history)
        return values

    def predict_next_with_mask(
        self, history: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One-step forecasts plus the per-member health mask.

        Guarded pools substitute the configured fallback for failing or
        quarantined members and flag them ``False`` in the mask;
        unguarded pools behave exactly as before (all-``True`` mask,
        failures propagate).
        """
        if not self._fitted:
            raise DataValidationError("pool must be fitted before predicting")
        if self._guard_config is None:
            values = np.array([m.predict_next(history) for m in self._models])
            return values, np.ones(values.shape, dtype=bool)
        history = np.asarray(history, dtype=np.float64)
        values = np.empty(len(self._models))
        mask = np.zeros(len(self._models), dtype=bool)
        for i, member in enumerate(self._models):
            values[i], mask[i] = member.guarded_predict(history)
        return values, mask

    def predict_next_batch_with_mask(
        self, histories
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One-step forecasts plus health masks for N tenant histories.

        Returns ``(matrix, mask)`` of shape ``(len(histories), m)``;
        row ``i`` is ``predict_next_with_mask(histories[i])``, which this
        method calls in a loop, so guards and bit-identity are exactly
        those of the single-history step.
        """
        values = np.empty((len(histories), len(self._models)))
        mask = np.empty((len(histories), len(self._models)), dtype=bool)
        for i, history in enumerate(histories):
            values[i], mask[i] = self.predict_next_with_mask(history)
        return values, mask

    def max_min_context(self) -> int:
        """Largest context any member requires (lower bound for ``start``)."""
        return max(m.min_context for m in self._models)

    def subset(self, indices) -> "ForecasterPool":
        """A new pool holding only the members at ``indices``.

        The members are shared (not copied) and keep their fitted state;
        used by the pruning step (paper §III-B future work).
        """
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            raise ConfigurationError("subset must keep at least one member")
        if indices.min() < 0 or indices.max() >= len(self._models):
            raise ConfigurationError(
                f"subset indices out of range for pool of {len(self._models)}"
            )
        pruned = ForecasterPool(
            [self._models[i] for i in indices],
            guard_config=self._guard_config,
            health=self._health,
        )
        pruned._fitted = self._fitted
        return pruned
