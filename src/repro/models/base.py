"""Forecaster interfaces shared by the whole base-model zoo.

Two shapes of model live in the pool:

- :class:`WindowRegressor` — models applied "after using time series
  embedding to dimension k" (paper §III): the series is embedded into
  ``(X, y)`` pairs and an ordinary regressor maps the last ``k`` values to
  the next one. All tree/kernel/linear/neural regressors take this form.
- Recursive filters (ARIMA, ETS) that maintain their own state and
  implement :meth:`Forecaster.predict_next` directly over a history array.

Both expose the same public surface:

``fit(series)``
    Train on a raw 1-D series.
``predict_next(history)``
    One-step-ahead forecast given the observed history (an array at least
    as long as the model's required context).
``rolling_predictions(series, start)``
    One-step-ahead forecast for every index ``t in [start, len(series))``
    given the *true* history before ``t`` (prequential protocol). This is
    the prediction matrix the ensemble combiners consume.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.exceptions import DataValidationError, NotFittedError
from repro.preprocessing.embedding import embed, validate_series


class Forecaster(abc.ABC):
    """Abstract base for every model in the pool ``M``."""

    #: short human-readable identifier, e.g. ``"arima(2,0,1)"``
    name: str = "forecaster"
    #: minimum history length required by :meth:`predict_next`
    min_context: int = 1

    def __init__(self) -> None:
        self._fitted = False

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def fit(self, series: np.ndarray) -> "Forecaster":
        """Train on a raw series; returns ``self`` for chaining."""

    @abc.abstractmethod
    def predict_next(self, history: np.ndarray) -> float:
        """One-step-ahead point forecast given the observed ``history``."""

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(type(self).__name__)

    def _check_history(self, history: np.ndarray) -> np.ndarray:
        array = validate_series(history, min_length=self.min_context)
        return array

    def _predict_next_trusted(self, history: np.ndarray) -> float:
        """One-step forecast over *pre-validated* history.

        Hot-loop hook: :meth:`rolling_predictions` and :meth:`forecast`
        validate their input once up front and then call this per step,
        so per-call validation cost is paid once instead of O(n) times.
        ``history`` is guaranteed to be a finite 1-D float64 array of at
        least ``min_context`` values. The default delegates to
        :meth:`predict_next`; subclasses with expensive validation
        override it.
        """
        return self.predict_next(history)

    def forecast(self, history: np.ndarray, horizon: int) -> np.ndarray:
        """Recursive multi-step forecast (feeds predictions back as input)."""
        if horizon < 1:
            raise DataValidationError(f"horizon must be >= 1, got {horizon}")
        context = np.asarray(history, dtype=np.float64)
        working = np.empty(context.size + horizon)
        working[: context.size] = context
        out = working[context.size :]
        for j in range(horizon):
            out[j] = self.predict_next(working[: context.size + j])
        return out.copy()

    def rolling_predictions(self, series: np.ndarray, start: int) -> np.ndarray:
        """Prequential one-step predictions for ``t in [start, n)``.

        Subclasses override this when a vectorised path exists; the
        default validates the series once and then loops
        :meth:`_predict_next_trusted` over growing history views.
        """
        array = validate_series(series, min_length=start + 1)
        if start < self.min_context:
            raise DataValidationError(
                f"start={start} smaller than required context {self.min_context}"
            )
        self._check_fitted()
        return np.array(
            [self._predict_next_trusted(array[:t]) for t in range(start, array.size)]
        )

    def __repr__(self) -> str:
        status = "fitted" if self._fitted else "unfitted"
        return f"<{type(self).__name__} {self.name!r} ({status})>"


class WindowRegressor(Forecaster):
    """Embedding-based forecaster wrapping a vector regressor.

    Subclasses implement :meth:`_fit_xy` and :meth:`_predict_matrix`; this
    class handles embedding, validation, and the vectorised prequential
    rolling-prediction path.

    Parameters
    ----------
    embedding_dimension:
        Number of lagged values fed to the regressor (paper: k = 5).
    """

    def __init__(self, embedding_dimension: int = 5):
        super().__init__()
        if embedding_dimension < 1:
            raise DataValidationError(
                f"embedding dimension must be >= 1, got {embedding_dimension}"
            )
        self.embedding_dimension = embedding_dimension
        self.min_context = embedding_dimension

    # -- subclass hooks -------------------------------------------------
    @abc.abstractmethod
    def _fit_xy(self, X: np.ndarray, y: np.ndarray) -> None:
        """Fit the underlying regressor on embedded pairs."""

    @abc.abstractmethod
    def _predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Predict a batch of embedding rows; returns shape ``(len(X),)``."""

    # -- Forecaster interface -------------------------------------------
    def fit(self, series: np.ndarray) -> "WindowRegressor":
        X, y = embed(series, self.embedding_dimension)
        self._fit_xy(X, y)
        self._fitted = True
        return self

    def predict_next(self, history: np.ndarray) -> float:
        self._check_fitted()
        array = self._check_history(history)
        window = array[-self.embedding_dimension :][None, :]
        return float(self._predict_matrix(window)[0])

    def _predict_next_trusted(self, history: np.ndarray) -> float:
        window = history[-self.embedding_dimension :][None, :]
        return float(self._predict_matrix(window)[0])

    def rolling_predictions(self, series: np.ndarray, start: int) -> np.ndarray:
        self._check_fitted()
        array = validate_series(series, min_length=start + 1)
        if start < self.min_context:
            raise DataValidationError(
                f"start={start} smaller than required context {self.min_context}"
            )
        k = self.embedding_dimension
        idx = (np.arange(start, array.size)[:, None] - k) + np.arange(k)[None, :]
        return self._predict_matrix(array[idx])


class MeanForecaster(Forecaster):
    """Predicts the training mean; the weakest sane reference model."""

    name = "mean"

    def __init__(self) -> None:
        super().__init__()
        self._mean: Optional[float] = None

    def fit(self, series: np.ndarray) -> "MeanForecaster":
        self._mean = float(validate_series(series).mean())
        self._fitted = True
        return self

    def predict_next(self, history: np.ndarray) -> float:
        self._check_fitted()
        return float(self._mean)

    def rolling_predictions(self, series: np.ndarray, start: int) -> np.ndarray:
        self._check_fitted()
        array = validate_series(series, min_length=start + 1)
        return np.full(array.size - start, self._mean)


class NaiveForecaster(Forecaster):
    """Random-walk forecast: predicts the last observed value."""

    name = "naive"

    def fit(self, series: np.ndarray) -> "NaiveForecaster":
        validate_series(series)
        self._fitted = True
        return self

    def predict_next(self, history: np.ndarray) -> float:
        self._check_fitted()
        return float(self._check_history(history)[-1])

    def rolling_predictions(self, series: np.ndarray, start: int) -> np.ndarray:
        self._check_fitted()
        array = validate_series(series, min_length=start + 1)
        return array[start - 1 : -1].copy()


class SeasonalNaiveForecaster(Forecaster):
    """Predicts the value one season ago (falls back to naive early on)."""

    def __init__(self, period: int):
        super().__init__()
        if period < 1:
            raise DataValidationError(f"period must be >= 1, got {period}")
        self.period = period
        self.name = f"snaive({period})"

    def fit(self, series: np.ndarray) -> "SeasonalNaiveForecaster":
        validate_series(series)
        self._fitted = True
        return self

    def predict_next(self, history: np.ndarray) -> float:
        self._check_fitted()
        array = self._check_history(history)
        if array.size >= self.period:
            return float(array[-self.period])
        return float(array[-1])

    def rolling_predictions(self, series: np.ndarray, start: int) -> np.ndarray:
        self._check_fitted()
        array = validate_series(series, min_length=start + 1)
        steps = np.arange(start, array.size)
        # predicting at time t sees history array[:t]: the seasonal lag is
        # t - period when available, else the naive fallback t - 1
        sources = np.where(steps >= self.period, steps - self.period, steps - 1)
        return array[sources].copy()
