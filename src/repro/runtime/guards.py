"""Per-member call guards: timeout, bounded retry, output validation.

:class:`GuardedForecaster` wraps one pool member and mediates every
prediction call:

1. the member's circuit breaker is consulted (quarantined members are not
   called at all);
2. the call is executed under the configured timeout policy and retried
   (with optional exponential backoff) on exceptions and non-finite
   output;
3. the outcome is reported to the shared :class:`~repro.runtime.health.PoolHealth`
   registry and to the breaker.

Two consumption styles exist. The *strict* :meth:`GuardedForecaster.predict_next`
keeps the plain :class:`~repro.models.base.Forecaster` contract and raises
typed errors (:class:`~repro.exceptions.CircuitOpenError`,
:class:`~repro.exceptions.MemberFailureError`). The *degrading*
:meth:`GuardedForecaster.guarded_predict` never raises: it substitutes the
configured fallback value and returns a health flag, which is what
:class:`~repro.models.pool.ForecasterPool` uses to keep the ensemble
serving while members misbehave.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import CircuitOpenError, MemberFailureError
from repro.models.base import Forecaster
from repro.runtime.breaker import BreakerState, CircuitBreaker
from repro.runtime.config import RuntimeGuardConfig
from repro.runtime.health import PoolHealth


def renormalise_healthy(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Restrict a simplex weight vector to the healthy members.

    Zeroes the weights of unhealthy members (``mask`` False) and
    renormalises the rest back onto the probability simplex. When every
    healthy member has (numerically) zero weight the healthy members
    share the mass uniformly. A fully healthy mask returns ``weights``
    unchanged (bit-identical no-fault behaviour).

    The caller is responsible for the all-unhealthy case (raising
    :class:`~repro.exceptions.EnsembleUnavailableError` at the ensemble
    layer); here it would be a programming error.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.all():
        return weights
    if not mask.any():
        raise ValueError("renormalise_healthy called with no healthy member")
    w = np.where(mask, weights, 0.0)
    total = w.sum()
    if total <= 1e-12:
        w = mask.astype(np.float64)
        total = w.sum()
    return w / total


def combine_masked(
    scaled_row: np.ndarray,
    weights: np.ndarray,
    mask: np.ndarray,
    step: int,
) -> Tuple[float, np.ndarray]:
    """Combine one prediction row, degrading over unhealthy members.

    Returns ``(scaled_output, effective_weights)``. With a fully healthy
    row this is exactly ``scaled_row @ weights`` (bit-for-bit the
    unguarded behaviour); otherwise quarantined members are
    zero-weighted and the rest renormalised on the simplex. Raises
    :class:`~repro.exceptions.EnsembleUnavailableError` when no member
    is healthy. Shared by every EADRL online loop and by
    :class:`repro.serving.SeriesSession` so batch and step-API
    forecasting stay bit-identical.
    """
    from repro.exceptions import EnsembleUnavailableError

    if mask.all():
        return float(scaled_row @ weights), weights
    if not mask.any():
        raise EnsembleUnavailableError(step)
    w = renormalise_healthy(weights, mask)
    return float(np.where(mask, scaled_row, 0.0) @ w), w


class GuardedForecaster(Forecaster):
    """Fault-isolation wrapper around one pool member.

    Parameters
    ----------
    inner:
        The wrapped forecaster. The guard exposes the same ``name`` and
        ``min_context`` so prediction-matrix columns stay identified.
    config:
        Guard/breaker settings (defaults: no timeout, 1 retry, breaker
        opening after 3 consecutive failures).
    health:
        Shared registry; a private one is created when omitted.
    """

    def __init__(
        self,
        inner: Forecaster,
        config: Optional[RuntimeGuardConfig] = None,
        health: Optional[PoolHealth] = None,
    ):
        super().__init__()
        self.inner = inner
        self.config = config if config is not None else RuntimeGuardConfig()
        self.config.validate()
        self.health = health if health is not None else PoolHealth()
        self.name = inner.name
        self.min_context = inner.min_context
        self._fitted = getattr(inner, "_fitted", False)
        self._steps = 0
        self._last_healthy: Optional[float] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.failure_threshold,
            cooldown_steps=self.config.cooldown_steps,
            on_transition=self._on_transition,
        )
        self.health.member(self.name)  # register even before the first call

    def _on_transition(self, old: BreakerState, new: BreakerState) -> None:
        self.health.record_transition(self.name, self._steps, old, new)

    def __getstate__(self) -> dict:
        """Pickle support for shard workers started without fork.

        Such a worker receives the served
        :class:`~repro.serving.ModelBundle` pickled, guarded pool members
        included. The per-call timeout thread pool is a live OS resource
        and is dropped; the worker-side copy lazily recreates one on
        demand. Everything else (inner model, breaker state, step
        counter, health registry reference) crosses the boundary intact.
        """
        state = self.__dict__.copy()
        state["_executor"] = None
        return state

    # ------------------------------------------------------------------
    # Forecaster interface
    # ------------------------------------------------------------------
    def fit(self, series: np.ndarray) -> "GuardedForecaster":
        try:
            self.inner.fit(series)
        except Exception as exc:
            self.health.record_failure(self.name, -1, "fit_error", str(exc))
            raise
        self._fitted = True
        return self

    def predict_next(self, history: np.ndarray) -> float:
        """Strict guarded call: raises typed errors instead of degrading."""
        self._steps += 1
        if not self.breaker.allow():
            self.health.record_skip(self.name)
            raise CircuitOpenError(self.name)
        value, kind, detail = self._attempt_with_retries(history)
        if kind is None:
            self._record_success(value)
            return float(value)
        self._record_failure(kind, detail)
        raise MemberFailureError(self.name, kind, detail)

    def rolling_predictions(self, series: np.ndarray, start: int) -> np.ndarray:
        """Strict vectorised prequential path (one guarded call per column)."""
        column, mask = self.guarded_rolling(series, start)
        if not mask.all():
            record = self.health.member(self.name)
            raise MemberFailureError(self.name, "degraded", record.last_error)
        return column

    # ------------------------------------------------------------------
    # Degrading interface (used by ForecasterPool)
    # ------------------------------------------------------------------
    def guarded_predict(self, history: np.ndarray) -> Tuple[float, bool]:
        """One guarded one-step forecast; never raises.

        Returns ``(value, healthy)`` where an unhealthy value is the
        configured fallback (persistence or last healthy prediction).
        """
        self._steps += 1
        if not self.breaker.allow():
            self.health.record_skip(self.name)
            return self._fallback(history), False
        value, kind, detail = self._attempt_with_retries(history)
        if kind is None:
            self._record_success(value)
            return float(value), True
        self._record_failure(kind, detail)
        return self._fallback(history), False

    def guarded_rolling(
        self, series: np.ndarray, start: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Guarded prequential column: ``(values, healthy_mask)``.

        Fast path: while the breaker is CLOSED, one vectorised
        :meth:`rolling_predictions` call on the wrapped member (identical
        output and near-zero overhead for healthy members, timed against
        a whole-column budget of ``timeout * n_steps``). Any exception,
        non-finite entry, or budget overrun drops the member to the
        per-step guarded loop, which applies the breaker, retries, and
        fallback individually at every step.
        """
        array = np.asarray(series, dtype=np.float64)
        n_steps = array.size - start
        if self.breaker.state is BreakerState.CLOSED:
            budget = (
                None if self.config.timeout is None
                else self.config.timeout * max(n_steps, 1)
            )
            t0 = time.monotonic()
            try:
                column = np.asarray(
                    self.inner.rolling_predictions(array, start), dtype=np.float64
                )
                elapsed = time.monotonic() - t0
                if (
                    column.shape == (n_steps,)
                    and np.all(np.isfinite(column))
                    and (budget is None or elapsed <= budget)
                ):
                    self._steps += n_steps
                    self.breaker.record_success()
                    self.health.record_success(self.name, count=n_steps)
                    if n_steps:
                        self._last_healthy = float(column[-1])
                    return column, np.ones(n_steps, dtype=bool)
            except Exception:  # noqa: BLE001 - any member error degrades
                pass
        column = np.empty(n_steps)
        mask = np.zeros(n_steps, dtype=bool)
        for i, t in enumerate(range(start, array.size)):
            column[i], mask[i] = self.guarded_predict(array[:t])
        return column, mask

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fallback(self, history: np.ndarray) -> float:
        self.health.record_fallback(self.name)
        if self.config.fallback == "last_healthy" and self._last_healthy is not None:
            return self._last_healthy
        return float(history[-1])

    def _record_success(self, value: float) -> None:
        self._last_healthy = float(value)
        self.breaker.record_success()
        self.health.record_success(self.name)

    def _record_failure(self, kind: str, detail: str) -> None:
        self.breaker.record_failure()
        self.health.record_failure(self.name, self._steps, kind, detail)

    def _attempt_with_retries(
        self, history: np.ndarray
    ) -> Tuple[float, Optional[str], str]:
        """Run one guarded prediction with bounded retry.

        Returns ``(value, failure_kind, detail)``; ``failure_kind`` is
        ``None`` on success. Timeouts are not retried (retrying a slow
        call doubles the damage); exceptions and non-finite output are.
        """
        kind, detail = "exception", "no attempt made"
        for attempt in range(self.config.max_retries + 1):
            if attempt and self.config.backoff > 0:
                time.sleep(self.config.backoff * 2 ** (attempt - 1))
            try:
                value, timed_out = self._timed_call(history)
            except Exception as exc:  # noqa: BLE001 - guard isolates anything
                kind, detail = "exception", f"{type(exc).__name__}: {exc}"
                continue
            if timed_out:
                return 0.0, "timeout", (
                    f"exceeded per-call budget of {self.config.timeout}s"
                )
            if not np.isfinite(value):
                kind, detail = "non_finite", f"member returned {value!r}"
                continue
            return value, None, ""
        return 0.0, kind, detail

    def _timed_call(self, history: np.ndarray) -> Tuple[float, bool]:
        """One raw call under the timeout policy; returns ``(value, timed_out)``."""
        timeout = self.config.timeout
        if timeout is None:
            return float(self.inner.predict_next(history)), False
        if self.config.timeout_mode == "thread":
            if self._executor is None:
                self._executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
            future = self._executor.submit(self.inner.predict_next, history)
            try:
                return float(future.result(timeout=timeout)), False
            except concurrent.futures.TimeoutError:
                # Abandon the hung worker; a fresh executor serves the
                # next call (the old thread finishes in the background).
                self._executor.shutdown(wait=False)
                self._executor = None
                return 0.0, True
        t0 = time.monotonic()
        value = float(self.inner.predict_next(history))
        return value, (time.monotonic() - t0) > timeout

    def __repr__(self) -> str:
        return (
            f"<GuardedForecaster {self.name!r} "
            f"breaker={self.breaker.state.value}>"
        )
