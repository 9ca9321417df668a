"""Exponential-smoothing family: SES, Holt, and additive Holt-Winters.

Smoothing parameters are estimated by minimising the in-sample one-step
sum of squared errors with L-BFGS-B (scipy), with bounds keeping each
parameter inside the open unit interval. One-step forecasts re-run the
recursion over whatever history is supplied, so the models adapt to the
prequential protocol exactly like R's ``forecast`` package does.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import optimize

from repro.exceptions import ConfigurationError, DataValidationError
from repro.models.base import Forecaster
from repro.preprocessing.embedding import validate_series

_BOUND = (1e-3, 0.999)


class SimpleExpSmoothing(Forecaster):
    """SES: level-only exponential smoothing, flat forecast function."""

    def __init__(self, alpha: Optional[float] = None):
        super().__init__()
        if alpha is not None and not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.alpha_: Optional[float] = None
        self.name = "ets(ses)" if alpha is None else f"ets(ses,a={alpha})"
        self.min_context = 2

    @staticmethod
    def _sse(alpha: float, series: np.ndarray) -> float:
        level = series[0]
        sse = 0.0
        for value in series[1:]:
            error = value - level
            sse += error * error
            level += alpha * error
        return sse

    def fit(self, series: np.ndarray) -> "SimpleExpSmoothing":
        array = validate_series(series, min_length=3)
        if self.alpha is not None:
            self.alpha_ = self.alpha
        else:
            result = optimize.minimize_scalar(
                lambda a: self._sse(a, array), bounds=_BOUND, method="bounded"
            )
            self.alpha_ = float(result.x)
        self._fitted = True
        return self

    def predict_next(self, history: np.ndarray) -> float:
        self._check_fitted()
        array = self._check_history(history)
        level = array[0]
        for value in array[1:]:
            level += self.alpha_ * (value - level)
        return float(level)

    def rolling_predictions(self, series: np.ndarray, start: int) -> np.ndarray:
        self._check_fitted()
        array = validate_series(series, min_length=start + 1)
        out = np.empty(array.size - start)
        level = array[0]
        for t in range(1, array.size):
            if t >= start:
                out[t - start] = level
            level += self.alpha_ * (array[t] - level)
        return out


class Holt(Forecaster):
    """Holt's linear trend method (additive, optionally damped)."""

    def __init__(self, damped: bool = False):
        super().__init__()
        self.damped = damped
        self.params_: Optional[Tuple[float, float, float]] = None
        self.name = "ets(holt,damped)" if damped else "ets(holt)"
        self.min_context = 3

    def _run(
        self, params: np.ndarray, series: np.ndarray, collect_from: Optional[int] = None
    ):
        alpha, beta = params[0], params[1]
        phi = params[2] if self.damped else 1.0
        level = series[0]
        trend = series[1] - series[0]
        sse = 0.0
        collected = [] if collect_from is not None else None
        for t in range(1, series.size):
            forecast = level + phi * trend
            if collected is not None and t >= collect_from:
                collected.append(forecast)
            error = series[t] - forecast
            sse += error * error
            new_level = forecast + alpha * error
            trend = phi * trend + alpha * beta * error
            level = new_level
        final_forecast = level + phi * trend
        return sse, final_forecast, collected

    def fit(self, series: np.ndarray) -> "Holt":
        array = validate_series(series, min_length=4)
        n_params = 3 if self.damped else 2
        x0 = np.array([0.3, 0.1, 0.95][:n_params])
        bounds = [_BOUND, _BOUND, (0.8, 0.999)][:n_params]
        result = optimize.minimize(
            lambda p: self._run(p, array)[0], x0, bounds=bounds, method="L-BFGS-B"
        )
        params = np.array(result.x)
        if not self.damped:
            params = np.append(params, 1.0)
        self.params_ = tuple(float(v) for v in params)
        self._fitted = True
        return self

    def predict_next(self, history: np.ndarray) -> float:
        self._check_fitted()
        array = self._check_history(history)
        _, forecast, _ = self._run(np.array(self.params_), array)
        return float(forecast)

    def rolling_predictions(self, series: np.ndarray, start: int) -> np.ndarray:
        self._check_fitted()
        array = validate_series(series, min_length=start + 1)
        _, final_forecast, collected = self._run(
            np.array(self.params_), array, collect_from=start
        )
        return np.asarray(collected)


class HoltWinters(Forecaster):
    """Holt-Winters with seasonal period ``m``.

    Parameters
    ----------
    period:
        Seasonal period in steps.
    seasonal:
        ``"add"`` (default) for additive seasonality, ``"mul"`` for
        multiplicative (seasonal amplitude proportional to the level;
        requires a strictly positive series).
    """

    def __init__(self, period: int, seasonal: str = "add"):
        super().__init__()
        if period < 2:
            raise ConfigurationError(f"seasonal period must be >= 2, got {period}")
        if seasonal not in ("add", "mul"):
            raise ConfigurationError(
                f"seasonal must be 'add' or 'mul', got {seasonal!r}"
            )
        self.period = period
        self.seasonal = seasonal
        self.params_: Optional[Tuple[float, float, float]] = None
        tag = "" if seasonal == "add" else ",mul"
        self.name = f"ets(hw,{period}{tag})"
        self.min_context = 2 * period

    def _initial_components(self, series: np.ndarray):
        m = self.period
        level = float(series[:m].mean())
        trend = float((series[m : 2 * m].mean() - series[:m].mean()) / m)
        if self.seasonal == "mul":
            safe_level = level if abs(level) > 1e-12 else 1.0
            season = series[:m] / safe_level
        else:
            season = series[:m] - level
        return level, trend, season.copy()

    def _run(
        self, params: np.ndarray, series: np.ndarray, collect_from: Optional[int] = None
    ):
        alpha, beta, gamma = params
        m = self.period
        level, trend, season = self._initial_components(series)
        multiplicative = self.seasonal == "mul"
        sse = 0.0
        collected = [] if collect_from is not None else None
        for t in range(m, series.size):
            s_idx = t % m
            if multiplicative:
                forecast = (level + trend) * season[s_idx]
            else:
                forecast = level + trend + season[s_idx]
            if collected is not None and t >= collect_from:
                collected.append(forecast)
            error = series[t] - forecast
            sse += error * error
            if multiplicative:
                s_safe = season[s_idx] if abs(season[s_idx]) > 1e-12 else 1.0
                new_level = level + trend + alpha * error / s_safe
                trend = trend + alpha * beta * error / s_safe
                l_safe = new_level if abs(new_level) > 1e-12 else 1.0
                season[s_idx] = season[s_idx] + gamma * (1 - alpha) * error / l_safe
            else:
                new_level = level + trend + alpha * error
                trend = trend + alpha * beta * error
                season[s_idx] = season[s_idx] + gamma * (1 - alpha) * error
            level = new_level
        if multiplicative:
            final = (level + trend) * season[series.size % m]
        else:
            final = level + trend + season[series.size % m]
        return sse, final, collected

    def fit(self, series: np.ndarray) -> "HoltWinters":
        array = validate_series(series, min_length=self.min_context + 2)
        if self.seasonal == "mul" and array.min() <= 0:
            raise DataValidationError(
                "multiplicative Holt-Winters requires a strictly positive series"
            )
        x0 = np.array([0.3, 0.1, 0.1])
        result = optimize.minimize(
            lambda p: self._run(p, array)[0],
            x0,
            bounds=[_BOUND, _BOUND, _BOUND],
            method="L-BFGS-B",
        )
        self.params_ = tuple(float(v) for v in result.x)
        self._fitted = True
        return self

    def predict_next(self, history: np.ndarray) -> float:
        self._check_fitted()
        array = self._check_history(history)
        _, forecast, _ = self._run(np.array(self.params_), array)
        return float(forecast)

    def rolling_predictions(self, series: np.ndarray, start: int) -> np.ndarray:
        self._check_fitted()
        array = validate_series(series, min_length=start + 1)
        if start < self.period:
            raise ConfigurationError(
                f"start={start} must be >= seasonal period {self.period}"
            )
        _, _, collected = self._run(np.array(self.params_), array, collect_from=start)
        return np.asarray(collected)
