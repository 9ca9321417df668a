"""The ensemble-aggregation MDP (paper §II-B).

The environment is built on the *prequential prediction matrix* of the
pool (rows = time, columns = models) plus the true values, both computed
offline. An episode walks the validation segment:

- **State** ``s_t`` — the last ω ensemble outputs (not raw values): the
  window reflects both the series dynamics and the effect of past actions.
- **Action** ``a_t`` — the m-dimensional weight vector for predicting the
  next value (projected onto the probability simplex).
- **Transition** — deterministic: compute ``x̂_{t+1} = P[t+1]·a_t``, shift
  the window.
- **Reward** — pluggable (:mod:`repro.rl.rewards`); the paper's default is
  the rank-based Eq. (3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError
from repro.rl.rewards import RankReward, RewardFunction


def project_to_simplex(weights: np.ndarray) -> np.ndarray:
    """Project an arbitrary vector to the probability simplex.

    Clips negatives and renormalises; if everything clips to zero the
    result is uniform. (The actor's softmax head already emits simplex
    points; this guards externally supplied actions and noise.)
    """
    w = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)
    total = w.sum()
    if total <= 1e-12:
        return np.full(w.size, 1.0 / w.size)
    return w / total


def euclidean_simplex_projection(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex.

    Sort-based algorithm (Held, Wolfe & Crowder 1974); used by the OGD
    combiner, whose regret bound assumes true Euclidean projections.
    """
    v = np.asarray(v, dtype=np.float64)
    sorted_desc = np.sort(v)[::-1]
    cumsum = np.cumsum(sorted_desc) - 1.0
    indices = np.arange(1, v.size + 1)
    condition = sorted_desc - cumsum / indices > 0
    if not np.any(condition):
        return np.full(v.size, 1.0 / v.size)
    rho = indices[condition][-1]
    theta = cumsum[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass
class Transition:
    """One stored MDP step ``(s_t, a_t, r_t, s_{t+1})``."""

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool


class EnsembleMDP:
    """Sequential decision process over a pool's prediction matrix.

    Parameters
    ----------
    predictions:
        Prequential one-step predictions, shape ``(T, m)``.
    truth:
        The corresponding true values, shape ``(T,)``.
    window:
        ω — the state window size (paper: 10).
    reward_fn:
        Reward definition; defaults to the paper's rank reward.
    """

    def __init__(
        self,
        predictions: np.ndarray,
        truth: np.ndarray,
        window: int = 10,
        reward_fn: Optional[RewardFunction] = None,
    ):
        predictions = np.asarray(predictions, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.float64)
        if predictions.ndim != 2:
            raise DataValidationError(
                f"predictions must be (T, m), got {predictions.shape}"
            )
        if truth.ndim != 1 or truth.size != predictions.shape[0]:
            raise DataValidationError("truth must align with prediction rows")
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        if predictions.shape[0] < window + 2:
            raise DataValidationError(
                f"need at least window+2={window + 2} rows, "
                f"got {predictions.shape[0]}"
            )
        self.predictions = predictions
        self.truth = truth
        self.window = window
        self.reward_fn = reward_fn if reward_fn is not None else RankReward()
        self.n_models = predictions.shape[1]
        self.horizon = predictions.shape[0]
        self._cursor = 0
        self._ens_window: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def state_dim(self) -> int:
        return self.window

    @property
    def action_dim(self) -> int:
        return self.n_models

    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Start an episode; the initial window uses uniform weights."""
        uniform = np.full(self.n_models, 1.0 / self.n_models)
        self._ens_window = self.predictions[: self.window] @ uniform
        self._cursor = self.window
        return self._ens_window.copy()

    def step(self, action: np.ndarray) -> Tuple[np.ndarray, float, bool]:
        """Apply a weight vector; returns ``(next_state, reward, done)``."""
        if self._ens_window is None:
            raise DataValidationError("call reset() before step()")
        if self._cursor >= self.horizon:
            raise DataValidationError("episode finished; call reset()")
        weights = project_to_simplex(action)
        t = self._cursor

        window_preds = self.predictions[t - self.window : t]
        window_truth = self.truth[t - self.window : t]
        reward = self.reward_fn(window_preds, window_truth, weights)

        prediction = float(self.predictions[t] @ weights)
        self._ens_window = np.append(self._ens_window[1:], prediction)
        self._cursor += 1
        done = self._cursor >= self.horizon
        return self._ens_window.copy(), reward, done

    @property
    def steps_per_episode(self) -> int:
        """Number of decisions available in one full episode."""
        return self.horizon - self.window
