"""EA-DRL: the paper's ensemble-aggregation estimator.

Offline phase (:meth:`EADRL.fit`):

1. Fit the base-model pool on the first ``pool_train_fraction`` of the
   training series ("trained in parallel and separately").
2. Compute the pool's prequential prediction matrix on the held-out
   meta-segment of the training series.
3. Standardise predictions/truth with training statistics, build the
   :class:`~repro.rl.mdp.EnsembleMDP`, and train the DDPG agent
   (γ = 0.9, rank reward, median-balanced replay — all paper defaults).

Online phase:

- :meth:`rolling_forecast` — prequential one-step forecasting over a test
  segment (the Table II protocol): the policy sees the window of its own
  recent ensemble outputs, emits weights, and combines the pool's
  one-step predictions computed from the true history.
- :meth:`forecast` — the paper's Algorithm 1: multi-step forecasting of
  ``N_f`` future values, feeding ensemble predictions back into the
  window and the pool inputs.
"""

from __future__ import annotations

import time
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pruning import Pruner

import numpy as np

from repro.core.config import EADRLConfig
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    SerializationError,
)
from repro.models.base import Forecaster
from repro.models.pool import ForecasterPool, build_pool
from repro.obs import OBS
from repro.obs import configure as _configure_telemetry
from repro.obs import get_logger
from repro.persistence import resolve_npz_path, save_npz_atomic
from repro.preprocessing.embedding import validate_series
from repro.preprocessing.scaling import StandardScaler
from repro.rl.agents import AgentProtocol, make_agent
from repro.rl.ddpg import TrainingHistory, _action_entropy
from repro.rl.mdp import EnsembleMDP, project_to_simplex
from repro.rl.rewards import DiversityRankReward, NRMSEReward, RankReward, RewardFunction
from repro.runtime import (
    CheckpointManager,
    LoopCheckpointer,
    PoolHealth,
    TrainingCheckpointer,
    combine_masked,
)

_LOG = get_logger("eadrl")


def _prefixed(prefix: str, arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {f"{prefix}.{name}": value for name, value in arrays.items()}


def _strip_prefix(prefix: str, arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    head = prefix + "."
    return {
        name[len(head):]: value
        for name, value in arrays.items()
        if name.startswith(head)
    }


def _make_reward(config: EADRLConfig) -> RewardFunction:
    if config.reward == "rank":
        return RankReward()
    if config.reward == "nrmse":
        return NRMSEReward()
    return DiversityRankReward(config.diversity_weight)


class EADRL:
    """Ensemble Aggregation using Deep Reinforcement Learning.

    Parameters
    ----------
    models:
        Unfitted base forecasters for the pool ``M``. If ``None``, a pool
        is built with :func:`repro.models.build_pool` (``pool_size``
        selects the preset).
    config:
        Hyper-parameters; defaults follow the paper.
    pool_size:
        Preset used when ``models`` is ``None``.

    Examples
    --------
    >>> from repro.datasets import load
    >>> from repro.preprocessing import train_test_split
    >>> series = load(9, n=400)
    >>> train, test = train_test_split(series)
    >>> model = EADRL(pool_size="small",
    ...               config=EADRLConfig(episodes=5, max_iterations=30))
    >>> model.fit(train)                                    # doctest: +ELLIPSIS
    <...EADRL...>
    >>> preds = model.rolling_forecast(series, start=len(train))
    >>> preds.shape == test.shape
    True
    """

    def __init__(
        self,
        models: Optional[Sequence[Forecaster]] = None,
        config: Optional[EADRLConfig] = None,
        pool_size: str = "medium",
        pruner: Optional["Pruner"] = None,
    ):
        self.config = config if config is not None else EADRLConfig()
        self.config.validate()
        if self.config.telemetry is not None:
            # Activates the process-global session (see repro.obs); the
            # no-op fast path everywhere else is untouched when None.
            _configure_telemetry(self.config.telemetry)
        if models is None:
            models = build_pool(
                pool_size, embedding_dimension=self.config.embedding_dimension
            )
        self.pruner = pruner
        self.pruned_indices_: Optional[np.ndarray] = None
        self.pool = ForecasterPool(
            models,
            guard_config=self.config.runtime_guards,
            executor=self.config.executor,
            n_jobs=self.config.n_jobs,
        )
        self.agent: Optional[AgentProtocol] = None
        self._checkpoint_manager: Optional[CheckpointManager] = None
        self._scaler = StandardScaler()
        self._fitted = False
        self._fitted_from_matrix = False
        self._matrix_bootstrap: Optional[np.ndarray] = None
        self._train_tail: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def n_models(self) -> int:
        return len(self.pool)

    @property
    def training_history(self) -> TrainingHistory:
        if self.agent is None:
            raise NotFittedError(type(self).__name__)
        return self.agent.history

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(type(self).__name__)

    def health(self) -> PoolHealth:
        """The pool's runtime-health registry (empty when unguarded)."""
        return self.pool.health()

    # ------------------------------------------------------------------
    # Crash-safe checkpointing (config.checkpoint)
    # ------------------------------------------------------------------
    def checkpoint_manager(self) -> Optional[CheckpointManager]:
        """The snapshot store for ``config.checkpoint`` (None when off)."""
        if self.config.checkpoint is None:
            return None
        if self._checkpoint_manager is None:
            self._checkpoint_manager = CheckpointManager(
                self.config.checkpoint.directory,
                keep=self.config.checkpoint.keep,
            )
        return self._checkpoint_manager

    def _training_checkpointer(
        self, state_dim: int, action_dim: int
    ) -> Optional[TrainingCheckpointer]:
        """Episode-boundary hook passed to the agent's ``train``."""
        manager = self.checkpoint_manager()
        if manager is None:
            return None
        cfg = self.config.checkpoint
        return TrainingCheckpointer(
            manager,
            every=cfg.train_every,
            resume=cfg.resume,
            context={
                "state_dim": int(state_dim),
                "action_dim": int(action_dim),
                "episodes": int(self.config.episodes),
                "reward": self.config.reward,
                "agent": self.config.agent,
            },
        )

    def _loop_checkpointer(
        self, kind: str, n_members: int, n_steps: int, **extra: Any
    ) -> Optional[LoopCheckpointer]:
        """Step-periodic hook for one of the online forecast loops."""
        manager = self.checkpoint_manager()
        if manager is None:
            return None
        cfg = self.config.checkpoint
        context: Dict[str, Any] = {
            "n_members": int(n_members),
            "n_steps": int(n_steps),
            "window": int(self.config.window),
        }
        context.update(extra)
        return LoopCheckpointer(
            manager, kind, every=cfg.every, resume=cfg.resume, context=context
        )

    def _record_step(
        self,
        phase: str,
        step: int,
        prediction: float,
        weights: np.ndarray,
        seconds: float,
        reward: Optional[float] = None,
        ensemble_rank: Optional[int] = None,
    ) -> None:
        """One per-step telemetry record (callers gate on ``OBS.enabled``).

        The emitted ``online_step`` event carries the chosen weight
        vector (the paper's Fig. 3 trajectory, one row per step) plus
        the step latency; when the Eq. 3 reward was computed the event
        also carries it and the implied ensemble rank ``m + 1 − r``.
        """
        registry = OBS.registry
        labels = {"phase": phase}
        registry.counter("repro_online_steps_total", labels).inc()
        registry.histogram("repro_online_step_seconds", labels).observe(seconds)
        entropy = _action_entropy(weights)
        registry.histogram("repro_online_weight_entropy", labels).observe(entropy)
        fields = {
            "phase": phase,
            "step": step,
            "prediction": prediction,
            "weights": [float(w) for w in weights],
            "weight_entropy": entropy,
            "seconds": seconds,
        }
        if reward is not None:
            fields["reward"] = reward
        if ensemble_rank is not None:
            fields["ensemble_rank"] = ensemble_rank
            registry.gauge("repro_online_ensemble_rank").set(ensemble_rank)
        OBS.emit("online_step", **fields)

    def _combine_masked(self, scaled_row, weights, mask, step):
        """Combine one prediction row, degrading over unhealthy members.

        Delegates to :func:`repro.runtime.combine_masked` — the single
        masked-combine code path shared with the serving step API
        (:class:`repro.serving.SeriesSession`).
        """
        return combine_masked(scaled_row, weights, mask, step)

    # ------------------------------------------------------------------
    def fit(self, train_series: np.ndarray) -> "EADRL":
        """Run the full offline phase (pool + policy learning)."""
        series = validate_series(train_series, min_length=60)
        cut = int(round(series.size * self.config.pool_train_fraction))
        min_cut = max(20, self._min_pool_context() + 5)
        cut = min(max(cut, min_cut), series.size - self.config.window - 5)
        if cut <= 0:
            raise DataValidationError(
                f"training series of length {series.size} is too short for "
                f"the configured window/pool"
            )

        with OBS.span("eadrl.fit"):
            OBS.emit("fit_start", n_observations=int(series.size),
                     pool_cut=cut, n_members=len(self.pool))
            self.pool.fit(series[:cut])
            meta_start = max(cut, self.pool.max_min_context())
            predictions = self.pool.prediction_matrix(series, meta_start)
            truth = series[meta_start:]

            if self.pruner is not None:
                # Paper §III-B: "incorporate a pruning step ... so that
                # only relevant models take part in the weighting stage".
                self.pruned_indices_ = self.pruner.select(predictions, truth)
                self.pool = self.pool.subset(self.pruned_indices_)
                predictions = predictions[:, self.pruned_indices_]

            self._scaler.fit(series[:cut])
            env = EnsembleMDP(
                self._scaler.transform(predictions),
                self._scaler.transform(truth),
                window=self.config.window,
                reward_fn=_make_reward(self.config),
            )
            self.agent = make_agent(
                self.config.agent,
                env.state_dim,
                env.action_dim,
                self.config.resolve_agent_config(),
            )
            self.agent.train(
                env,
                episodes=self.config.episodes,
                max_iterations=self.config.max_iterations,
                checkpoint=self._training_checkpointer(
                    env.state_dim, env.action_dim
                ),
            )
            self._train_tail = series[-max(self.config.window * 4, 64) :].copy()
            self._fitted = True
            _LOG.info(
                "fit complete: %d members (%d dropped), %d meta rows, "
                "%d episodes", len(self.pool), len(self.pool.dropped_),
                truth.size, self.agent.history.n_episodes,
            )
            OBS.emit("fit_done", members=self.pool.names,
                     dropped=[name for name, _, _ in self.pool.dropped_],
                     meta_rows=int(truth.size),
                     episodes=self.agent.history.n_episodes)
        return self

    def _min_pool_context(self) -> int:
        return max(m.min_context for m in self.pool.models)

    # ------------------------------------------------------------------
    # Matrix-level API: share one fitted pool across many combiners.
    # ------------------------------------------------------------------
    def fit_policy_from_matrix(
        self, meta_predictions: np.ndarray, meta_truth: np.ndarray
    ) -> "EADRL":
        """Train only the DDPG policy from a precomputed prediction matrix.

        Used by the evaluation harness, which fits one pool per dataset
        and hands the same prequential matrix to every combiner. The
        estimator is marked fitted for the matrix-level prediction API
        (:meth:`rolling_forecast_from_matrix`); the series-level API still
        requires :meth:`fit`.
        """
        meta_predictions = np.asarray(meta_predictions, dtype=np.float64)
        meta_truth = np.asarray(meta_truth, dtype=np.float64)
        if meta_predictions.ndim != 2 or meta_predictions.shape[0] != meta_truth.size:
            raise DataValidationError(
                f"matrix {meta_predictions.shape} does not align with truth "
                f"{meta_truth.shape}"
            )
        finite = np.isfinite(meta_predictions)
        if not finite.all():
            bad_columns = np.flatnonzero(~finite.all(axis=0))
            raise DataValidationError(
                "meta_predictions contains NaN/Inf entries in member "
                f"column(s) {bad_columns.tolist()} — these would poison the "
                "MDP and replay buffer; drop or guard the offending members"
            )
        if not np.all(np.isfinite(meta_truth)):
            raise DataValidationError("meta_truth contains NaN/Inf entries")
        self._scaler.fit(meta_truth)
        env = EnsembleMDP(
            self._scaler.transform(meta_predictions),
            self._scaler.transform(meta_truth),
            window=self.config.window,
            reward_fn=_make_reward(self.config),
        )
        self.agent = make_agent(
            self.config.agent,
            env.state_dim,
            meta_predictions.shape[1],
            self.config.resolve_agent_config(),
        )
        self.agent.train(
            env,
            episodes=self.config.episodes,
            max_iterations=self.config.max_iterations,
            checkpoint=self._training_checkpointer(
                env.state_dim, meta_predictions.shape[1]
            ),
        )
        self._matrix_bootstrap = meta_predictions[-self.config.window :]
        self._fitted_from_matrix = True
        return self

    def rolling_forecast_from_matrix(
        self,
        predictions: np.ndarray,
        bootstrap_predictions: Optional[np.ndarray] = None,
        return_weights: bool = False,
    ):
        """Rolling forecasts over a precomputed test prediction matrix.

        ``bootstrap_predictions`` supplies the ω rows preceding the test
        segment for the initial state (defaults to the tail of the
        meta-training matrix seen by :meth:`fit_policy_from_matrix`; an
        explicit bootstrap also unlocks this API for a policy restored
        with :meth:`load_policy` from a series-level :meth:`fit`, whose
        archive carries no bootstrap matrix).

        Non-finite cells in ``predictions`` mark the member as unhealthy
        at that step: its weight is zeroed and the remaining weights are
        renormalised on the simplex. A row with no healthy member raises
        :class:`EnsembleUnavailableError`.
        """
        if self.agent is None or (
            not getattr(self, "_fitted_from_matrix", False)
            and bootstrap_predictions is None
        ):
            raise NotFittedError(type(self).__name__)
        predictions = np.asarray(predictions, dtype=np.float64)
        boot = (
            np.asarray(bootstrap_predictions, dtype=np.float64)
            if bootstrap_predictions is not None
            else self._matrix_bootstrap
        )
        if boot.shape[0] < self.config.window:
            raise DataValidationError(
                f"bootstrap matrix needs >= ω={self.config.window} rows"
            )
        healthy = np.isfinite(predictions)
        uniform = np.full(predictions.shape[1], 1.0 / predictions.shape[1])
        state = self._scaler.transform(boot[-self.config.window :] @ uniform)
        scaled_predictions = self._scaler.transform(predictions)
        checkpointer = self._loop_checkpointer(
            "matrix", predictions.shape[1], predictions.shape[0]
        )
        with OBS.span("eadrl.rolling_forecast_from_matrix"):
            outputs, weight_log = self._static_loop(
                "matrix", scaled_predictions, healthy, state, checkpointer
            )
        if return_weights:
            return outputs, weight_log
        return outputs

    def _static_loop(
        self,
        kind: str,
        scaled_predictions: np.ndarray,
        healthy: np.ndarray,
        state: np.ndarray,
        checkpointer,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Alg. 1 over a precomputed (scaled) prediction matrix.

        Resumes from ``checkpointer``'s latest snapshot when there is
        one; each step queries the frozen policy, combines the healthy
        members (Eq. 1), shifts the ω-window, records the step, and
        hands the loop state to the checkpointer. Returns
        ``(outputs, weights)``.
        """
        outputs = np.empty(scaled_predictions.shape[0])
        weight_log = np.empty_like(scaled_predictions)
        first = 0
        snapshot = checkpointer.restore() if checkpointer is not None else None
        if snapshot is not None:
            first = int(snapshot.meta["next_step"])
            state = snapshot.arrays["loop.state"].copy()
            outputs[:first] = snapshot.arrays["loop.outputs"]
            weight_log[:first] = snapshot.arrays["loop.weights"]
        for i in range(first, scaled_predictions.shape[0]):
            with OBS.span("online.step") as step_span:
                weights = self.agent.policy_weights(state)
                scaled_out, weight_log[i] = self._combine_masked(
                    scaled_predictions[i], weights, healthy[i], i
                )
                outputs[i] = self._scaler.inverse_transform(scaled_out)
                state = np.append(state[1:], scaled_out)
            if OBS.enabled:
                self._record_step(
                    kind, i, float(outputs[i]), weight_log[i],
                    step_span.duration,
                )
            if checkpointer is not None:
                checkpointer.after_step(
                    i,
                    {
                        "loop.state": state,
                        "loop.outputs": outputs[: i + 1],
                        "loop.weights": weight_log[: i + 1],
                    },
                    {},
                )
        return outputs, weight_log

    # ------------------------------------------------------------------
    def _bootstrap_state(self, series: np.ndarray, start: int) -> np.ndarray:
        """Initial ω-window of (standardised) uniform-ensemble outputs.

        Mirrors ``EnsembleMDP.reset``: before the policy has produced any
        outputs, the window is filled with uniform-weight combinations of
        the pool's predictions for the ω positions preceding ``start``.
        """
        omega = self.config.window
        boot_start = start - omega
        if boot_start < self.pool.max_min_context():
            raise DataValidationError(
                f"start={start} leaves no room for the ω={omega} bootstrap "
                f"window before the forecast origin"
            )
        preds = self.pool.prediction_matrix(series[:start], boot_start)
        uniform = np.full(self.n_models, 1.0 / self.n_models)
        return self._scaler.transform(preds @ uniform)

    def rolling_forecast(
        self, series: np.ndarray, start: int, return_weights: bool = False
    ):
        """Prequential one-step forecasts for ``t in [start, len(series))``.

        ``series`` must include the training prefix so pool members can
        condition on the true history. Returns the prediction array, or
        ``(predictions, weights)`` with per-step weight vectors when
        ``return_weights`` is set.

        Under a guarded pool (``config.runtime_guards``) failing members
        are fallback-filled and quarantined by their circuit breakers;
        at each step the policy's weights are renormalised over the
        healthy members, and only an all-quarantined step raises
        :class:`EnsembleUnavailableError`.
        """
        self._check_fitted()
        array = validate_series(series, min_length=start + 1)
        with OBS.span("eadrl.rolling_forecast"):
            predictions, healthy = self.pool.prediction_matrix_with_mask(
                array, start
            )
            scaled_predictions = self._scaler.transform(predictions)

            state = self._bootstrap_state(array, start)
            checkpointer = self._loop_checkpointer(
                "rolling", predictions.shape[1], predictions.shape[0],
                origin=int(start),
            )
            outputs, weight_log = self._static_loop(
                "rolling", scaled_predictions, healthy, state, checkpointer
            )
        if return_weights:
            return outputs, weight_log
        return outputs

    def forecast(self, history: np.ndarray, horizon: int) -> np.ndarray:
        """Paper Algorithm 1: forecast the next ``horizon`` values.

        Predictions are fed back both into the policy's state window and
        into the pool members' inputs (fully autonomous multi-step mode).
        """
        self._check_fitted()
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        array = validate_series(
            history, min_length=self.pool.max_min_context() + self.config.window
        )
        state = self._bootstrap_state(array, array.size)
        working = array.copy()
        out = np.empty(horizon)
        checkpointer = self._loop_checkpointer(
            "multistep", self.n_models, horizon, history_length=int(array.size)
        )
        first = 0
        snapshot = checkpointer.restore() if checkpointer is not None else None
        if snapshot is not None:
            first = int(snapshot.meta["next_step"])
            state = snapshot.arrays["loop.state"].copy()
            working = snapshot.arrays["loop.working"].copy()
            out[:first] = snapshot.arrays["loop.outputs"]
        with OBS.span("eadrl.forecast"):
            for j in range(first, horizon):
                with OBS.span("online.step") as step_span:
                    weights = self.agent.policy_weights(state)
                    member_preds, healthy = self.pool.predict_next_with_mask(
                        working
                    )
                    effective = project_to_simplex(weights)
                    scaled = self._scaler.transform(member_preds)
                    scaled_out, _ = self._combine_masked(
                        scaled, effective, healthy, j
                    )
                    value = float(self._scaler.inverse_transform(scaled_out))
                    out[j] = value
                    working = np.append(working, value)
                    state = np.append(state[1:], scaled_out)
                if OBS.enabled:
                    self._record_step(
                        "multistep", j, value, effective, step_span.duration
                    )
                if checkpointer is not None:
                    checkpointer.after_step(
                        j,
                        {
                            "loop.state": state,
                            "loop.working": working,
                            "loop.outputs": out[: j + 1],
                        },
                        {},
                    )
        return out

    # ------------------------------------------------------------------
    def rolling_forecast_online(
        self,
        predictions: np.ndarray,
        truth: np.ndarray,
        mode: str = "periodic",
        interval: int = 25,
        updates_per_trigger: int = 10,
        bootstrap_predictions: Optional[np.ndarray] = None,
        return_weights: bool = False,
    ):
        """Online forecasting *with policy updates* (paper §III-B future work).

        Like :meth:`rolling_forecast_from_matrix`, but realised truths are
        fed back as MDP transitions and the DDPG agent keeps learning:

        - ``mode="periodic"`` — run ``updates_per_trigger`` gradient
          updates every ``interval`` steps;
        - ``mode="drift"`` — run them when a Page-Hinkley detector fires
          on the ensemble's absolute error stream (the paper's "informed
          fashion following a drift-detection mechanism");
        - ``mode="none"`` — behave exactly like the static policy.

        Requires a policy trained via :meth:`fit_policy_from_matrix`, or
        any loaded policy plus an explicit ``bootstrap_predictions``.
        Non-finite cells in ``predictions`` are treated as unhealthy
        members for that step (weights renormalised over the rest, the
        transition stored with the realised weights).

        The per-step mechanics live in
        :class:`repro.serving.session.SeriesSession`; this method drives
        one session over the matrix, adding the batch conveniences
        (telemetry, crash-safe loop checkpoints, weight logging). Batch
        and step-API outputs are bit-identical by construction — the
        loop below *is* the step API.
        """
        if mode not in ("periodic", "drift", "none"):
            raise ConfigurationError(
                f"mode must be 'periodic', 'drift' or 'none', got {mode!r}"
            )
        if interval < 1 or updates_per_trigger < 1:
            raise ConfigurationError(
                "interval and updates_per_trigger must be >= 1"
            )
        if self.agent is None or (
            not self._fitted_from_matrix and bootstrap_predictions is None
        ):
            raise NotFittedError(type(self).__name__)
        predictions = np.asarray(predictions, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.float64)
        if predictions.shape[0] != truth.size:
            raise DataValidationError(
                f"matrix {predictions.shape} does not align with truth "
                f"{truth.shape}"
            )
        omega = self.config.window
        boot = (
            np.asarray(bootstrap_predictions, dtype=np.float64)
            if bootstrap_predictions is not None
            else self._matrix_bootstrap
        )
        if boot.shape[0] < omega:
            raise DataValidationError(f"bootstrap matrix needs >= ω={omega} rows")

        from repro.serving.session import SeriesSession

        n_members = predictions.shape[1]
        session = SeriesSession(
            self.agent,
            self._scaler,
            window=omega,
            n_members=n_members,
            reward_fn=_make_reward(self.config),
            bootstrap_matrix=boot,
            mode=mode,
            interval=int(interval),
            updates_per_trigger=int(updates_per_trigger),
        )
        outputs = np.empty(predictions.shape[0])
        weight_log = np.empty_like(predictions)
        checkpointer = self._loop_checkpointer(
            "online", n_members, predictions.shape[0],
            mode=mode, interval=int(interval),
            updates_per_trigger=int(updates_per_trigger),
        )
        first = 0
        snapshot = checkpointer.restore() if checkpointer is not None else None
        if snapshot is not None:
            # The agent keeps learning in this loop, so its full state
            # (networks, Adam moments, replay ring, RNG/noise) is part
            # of the snapshot alongside the loop window. The session's
            # reward ring is re-derived from the raw matrix tail.
            first = int(snapshot.meta["next_step"])
            outputs[:first] = snapshot.arrays["loop.outputs"]
            weight_log[:first] = snapshot.arrays["loop.weights"]
            self.agent.restore_checkpoint_state(
                _strip_prefix("agent", snapshot.arrays),
                snapshot.meta["agent"],
            )
            ring_lo = max(0, first - omega)
            session.restore_loop_state(
                state=snapshot.arrays["loop.state"],
                next_step=first,
                steps_since_update=int(snapshot.meta["steps_since_update"]),
                detector_state=snapshot.meta["detector"],
                recent_rows=predictions[ring_lo:first],
                recent_truths=truth[ring_lo:first],
            )
        with OBS.span("eadrl.rolling_forecast_online"):
            for i in range(first, predictions.shape[0]):
                with OBS.span("online.step") as step_span:
                    outputs[i] = session.forecast_step(predictions[i])
                    weight_log[i] = session.last_weights
                    session.feedback(truth[i])
                if OBS.enabled:
                    self._record_step(
                        "online", i, float(outputs[i]), weight_log[i],
                        step_span.duration, reward=session.last_reward,
                        ensemble_rank=session.last_rank,
                    )
                    registry = OBS.registry
                    if session.last_drifted:
                        registry.counter(
                            "repro_online_drift_events_total"
                        ).inc()
                    if session.last_update_trigger is not None:
                        registry.counter(
                            "repro_online_policy_updates_total"
                        ).inc(updates_per_trigger)
                        OBS.emit(
                            "policy_update", step=i,
                            trigger=session.last_update_trigger,
                            updates=updates_per_trigger,
                        )
                if checkpointer is not None and checkpointer.due(i):
                    agent_arrays, agent_meta = self.agent.checkpoint_state()
                    arrays = _prefixed("agent", agent_arrays)
                    arrays["loop.state"] = session.state
                    arrays["loop.outputs"] = outputs[: i + 1]
                    arrays["loop.weights"] = weight_log[: i + 1]
                    checkpointer.after_step(
                        i,
                        arrays,
                        {
                            "agent": agent_meta,
                            "steps_since_update": session.steps_since_update,
                            "detector": session.detector.checkpoint_state(),
                        },
                    )
        if return_weights:
            return outputs, weight_log
        return outputs

    def online_session(
        self,
        *,
        mode: str = "periodic",
        interval: int = 25,
        updates_per_trigger: int = 10,
        bootstrap_predictions: Optional[np.ndarray] = None,
        history: Optional[np.ndarray] = None,
        agent=None,
        session_id: Optional[str] = None,
    ):
        """A live :class:`~repro.serving.session.SeriesSession` on this policy.

        The step-API twin of :meth:`rolling_forecast_online`:
        ``session.observe(y_t)`` closes the previous forecast with its
        realised value (feeding the MDP transition, drift detector, and
        policy-update triggers) and returns the forecast for the next
        step. Two flavours:

        - **matrix mode** (default) — mirrors
          :meth:`rolling_forecast_online`: requires a policy trained via
          :meth:`fit_policy_from_matrix` (or explicit
          ``bootstrap_predictions``), and the caller passes each step's
          base-model prediction row to ``observe``. Feeding the same
          rows/truths produces bit-identical outputs to the batch
          method.
        - **pool mode** — pass ``history`` (true values, at least
          ``pool.max_min_context() + ω`` long) after :meth:`fit`; the
          session queries the fitted pool itself each step.

        ``agent`` defaults to this estimator's own agent (the session
        keeps training it in place); the serving layer passes per-tenant
        clones instead.
        """
        from repro.serving.session import SeriesSession

        agent = agent if agent is not None else self.agent
        if agent is None:
            raise NotFittedError(type(self).__name__)
        omega = self.config.window
        pool = None
        if history is not None:
            self._check_fitted()
            history = validate_series(
                history, min_length=self.pool.max_min_context() + omega
            )
            pool = self.pool
            boot = pool.prediction_matrix(history, history.size - omega)
        else:
            if not self._fitted_from_matrix and bootstrap_predictions is None:
                raise NotFittedError(type(self).__name__)
            boot = (
                np.asarray(bootstrap_predictions, dtype=np.float64)
                if bootstrap_predictions is not None
                else self._matrix_bootstrap
            )
        return SeriesSession(
            agent,
            self._scaler,
            window=omega,
            n_members=boot.shape[1],
            reward_fn=_make_reward(self.config),
            bootstrap_matrix=boot,
            mode=mode,
            interval=interval,
            updates_per_trigger=updates_per_trigger,
            pool=pool,
            history=history,
            session_id=session_id,
        )

    # ------------------------------------------------------------------
    def timed_rolling_forecast(self, series: np.ndarray, start: int):
        """Rolling forecast plus elapsed *online* seconds (Table III).

        The pool's prediction matrix and the policy inference are both
        part of the online phase; pool *training* is not.
        """
        self._check_fitted()
        t0 = time.perf_counter()
        outputs = self.rolling_forecast(series, start)
        elapsed = time.perf_counter() - t0
        return outputs, elapsed

    def member_names(self) -> List[str]:
        """Names of the surviving pool members (weight-vector order)."""
        return self.pool.names

    # ------------------------------------------------------------------
    # Policy persistence
    # ------------------------------------------------------------------
    def save_policy(self, path) -> Path:
        """Save the trained policy (actor/critic/targets + scaler) to npz.

        Base models are not serialised — they retrain quickly and their
        fitted state is dataset-specific; the policy network is the
        expensive artefact (paper: ~300 min offline).

        The archive is written atomically (temp file + fsync + rename),
        so a crash mid-save never clobbers a previous good archive.
        Returns the path actually written — with the ``.npz`` suffix
        numpy appends — so ``load_policy`` accepts the same ``path``
        whether or not the caller spelled the suffix out.
        """
        if self.agent is None:
            raise NotFittedError(type(self).__name__)
        payload = {"meta.state_dim": np.array([self.agent.state_dim]),
                   "meta.action_dim": np.array([self.agent.action_dim]),
                   "meta.agent": np.array(type(self.agent).name),
                   "scaler.mean": np.atleast_1d(self._scaler.mean_),
                   "scaler.scale": np.atleast_1d(self._scaler.scale_)}
        for prefix, module in self.agent._checkpoint_modules():
            for name, value in module.state_dict().items():
                payload[f"{prefix}.{name}"] = value
        if self._matrix_bootstrap is not None:
            payload["bootstrap"] = self._matrix_bootstrap
        return save_npz_atomic(path, payload)

    def load_policy(self, path) -> "EADRL":
        """Restore a policy saved with :meth:`save_policy`.

        Rebuilds the agent named in the archive's ``meta.agent`` key
        (architecture from the file's metadata plus this estimator's
        agent config; archives predating the registry are DDPG) and
        marks the matrix-level prediction API as ready. A missing or
        truncated archive raises
        :class:`~repro.exceptions.SerializationError` naming the first
        offending key; a wrong-architecture archive raises it from
        :meth:`Module.load_state_dict`.
        """
        resolved = resolve_npz_path(path)
        if not resolved.exists():
            raise SerializationError(f"policy archive not found: {resolved}")
        try:
            with np.load(resolved) as archive:
                data = {name: archive[name] for name in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile) as err:
            raise SerializationError(
                f"policy archive {resolved} is unreadable: {err}"
            ) from err
        required = ("meta.state_dim", "meta.action_dim",
                    "scaler.mean", "scaler.scale")
        for key in required:
            if key not in data:
                raise SerializationError(
                    f"policy archive {resolved} is missing key {key!r}"
                )
        state_dim = int(data.pop("meta.state_dim")[0])
        action_dim = int(data.pop("meta.action_dim")[0])
        self._scaler.mean_ = data.pop("scaler.mean")
        self._scaler.scale_ = data.pop("scaler.scale")
        if self._scaler.mean_.size == 1:
            self._scaler.mean_ = self._scaler.mean_[0]
            self._scaler.scale_ = self._scaler.scale_[0]
        bootstrap = data.pop("bootstrap", None)
        legacy = "meta.agent" not in data
        agent_name = "ddpg" if legacy else str(data.pop("meta.agent"))
        self.agent = make_agent(
            agent_name,
            state_dim,
            action_dim,
            self.config.resolve_agent_config(agent_name),
        )
        for prefix, module in self.agent._checkpoint_modules():
            state = {
                name[len(prefix) + 1 :]: value
                for name, value in data.items()
                if name.startswith(prefix + ".")
            }
            if not state:
                # Pre-registry archives stored only the four canonical
                # DDPG modules; tolerate absent extras (e.g. critic2 of
                # a twin-critic config) so old files keep loading.
                if legacy and prefix not in (
                    "actor", "critic", "target_actor", "target_critic"
                ):
                    continue
                raise SerializationError(
                    f"policy archive {resolved} has no arrays for "
                    f"module {prefix!r} of agent {agent_name!r}"
                )
            module.load_state_dict(state)
        if bootstrap is not None:
            self._matrix_bootstrap = bootstrap
            self._fitted_from_matrix = True
        return self
