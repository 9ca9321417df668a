"""Per-series resumable online forecasting state (paper Alg. 1 as a step API).

:class:`SeriesSession` is the online loop of
:meth:`repro.core.EADRL.rolling_forecast_online` factored into a
reusable ``observe(y_t) -> forecast`` step object: the ω-window of the
policy's own recent outputs, the replay feedback, the Page-Hinkley drift
detector, and the policy-update triggers all live here. The batch loop
*drives* a session (one shared code path), so batch-online and step-API
outputs are bit-identical — enforced by
``tests/serving/test_step_determinism.py``.

Two feeding modes exist:

- **matrix mode** — the caller supplies each step's base-model
  prediction row (what the batch loop and the evaluation harness do);
- **pool mode** — the session holds a fitted
  :class:`~repro.models.pool.ForecasterPool` plus the true history and
  computes the row itself, which is what the multi-tenant serving layer
  (:mod:`repro.serving.service`) uses.

Sessions checkpoint their complete state (policy networks, optimizer
moments, replay ring, RNG/noise, window, rings, detector) through
:meth:`checkpoint_state` / :meth:`restore_checkpoint_state`, so a
session spilled to disk by the :class:`~repro.serving.store.SessionStore`
and later restored forecasts bit-identically to one that never left
memory.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.baselines.drift import PageHinkley
from repro.exceptions import ConfigurationError, DataValidationError
from repro.obs import OBS, get_logger
from repro.obs.registry import FAST_BUCKETS
from repro.obs.trace import TRACER
from repro.rl.mdp import Transition
from repro.rl.rewards import RankReward, RewardFunction
from repro.runtime import combine_masked

_LOG = get_logger("serving.session")

#: Online-update trigger modes (mirrors ``EADRL.rolling_forecast_online``).
MODES = ("periodic", "drift", "none")


def _prefixed(prefix: str, arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {f"{prefix}.{name}": value for name, value in arrays.items()}


def _strip_prefix(prefix: str, arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    head = prefix + "."
    return {
        name[len(head):]: value
        for name, value in arrays.items()
        if name.startswith(head)
    }


class SeriesSession:
    """One live online-forecasting stream for a single series.

    Parameters
    ----------
    agent:
        The :class:`~repro.rl.ddpg.DDPGAgent` whose policy combines the
        pool's predictions. The batch loop passes the estimator's own
        agent (shared, keeps learning in place); the serving layer gives
        every session its own clone so tenants learn independently.
    scaler:
        The fitted :class:`~repro.preprocessing.scaling.StandardScaler`
        of the offline phase (read-only here; safe to share).
    window:
        ω — the MDP state window.
    n_members:
        Number of pool members (the weight-vector dimension).
    reward_fn:
        Reward used to score realised transitions (paper Eq. 3).
    bootstrap_matrix:
        ``>= ω`` rows of base-model predictions preceding the stream:
        the initial state window is the uniform combination of its last
        ω (standardised) rows, exactly as in the batch loop.
    mode, interval, updates_per_trigger:
        Policy-update trigger configuration (see
        :meth:`EADRL.rolling_forecast_online`).
    detector:
        Drift detector; defaults to the batch loop's
        ``PageHinkley(delta=0.05, threshold=3.0)``.
    pool, history:
        Enable pool mode: ``history`` must hold enough true values for
        every member's ``min_context``. ``observe(y)`` then appends each
        realised value and computes the next prediction row itself.
    session_id:
        Optional name used in logs and checkpoint context.
    """

    def __init__(
        self,
        agent,
        scaler,
        *,
        window: int,
        n_members: int,
        reward_fn: RewardFunction,
        bootstrap_matrix: np.ndarray,
        mode: str = "periodic",
        interval: int = 25,
        updates_per_trigger: int = 10,
        detector: Optional[PageHinkley] = None,
        pool=None,
        history: Optional[np.ndarray] = None,
        session_id: Optional[str] = None,
    ):
        if mode not in MODES:
            raise ConfigurationError(
                f"mode must be 'periodic', 'drift' or 'none', got {mode!r}"
            )
        if interval < 1 or updates_per_trigger < 1:
            raise ConfigurationError(
                "interval and updates_per_trigger must be >= 1"
            )
        if window < 2 or n_members < 1:
            raise ConfigurationError(
                "window must be >= 2 and n_members >= 1"
            )
        boot = np.asarray(bootstrap_matrix, dtype=np.float64)
        if boot.ndim != 2 or boot.shape[1] != n_members:
            raise DataValidationError(
                f"bootstrap matrix must be 2-D with {n_members} columns, "
                f"got shape {boot.shape}"
            )
        if boot.shape[0] < window:
            raise DataValidationError(
                f"bootstrap matrix needs >= ω={window} rows"
            )
        if pool is not None and history is None:
            raise ConfigurationError(
                "pool mode requires an initial history"
            )
        self.agent = agent
        self.scaler = scaler
        self.window = int(window)
        self.n_members = int(n_members)
        self.reward_fn = reward_fn
        self.mode = mode
        self.interval = int(interval)
        self.updates_per_trigger = int(updates_per_trigger)
        self.detector = (
            detector if detector is not None
            else PageHinkley(delta=0.05, threshold=3.0)
        )
        self.pool = pool
        self.session_id = session_id
        self.lock = threading.RLock()

        # Initial state: uniform combination of the last ω standardised
        # bootstrap rows — bit-identical to the batch loop's
        # ``scaled_boot @ uniform``.
        uniform = np.full(self.n_members, 1.0 / self.n_members)
        self._state = self.scaler.transform(boot[-self.window:]) @ uniform
        self._history = (
            np.asarray(history, dtype=np.float64).copy()
            if history is not None else None
        )

        # Ring of the last ω realised (scaled row, scaled truth, mask)
        # triples, oldest first; only consulted once ``_realised >= ω``,
        # at which point it is fully populated.
        self._recent_rows = np.zeros((self.window, self.n_members))
        self._recent_truths = np.zeros(self.window)
        self._recent_masks = np.ones((self.window, self.n_members), dtype=bool)
        self._realised = 0

        self._pending = False
        self._last_row_scaled = np.zeros(self.n_members)
        self._last_mask = np.ones(self.n_members, dtype=bool)

        self.step = 0
        self.steps_since_update = 0
        # Idempotency ledger for the serving layer: the last acknowledged
        # client sequence number and the exact response it was sent.
        # Checkpointed with the session, so a retry after a crash
        # replays the cached answer instead of double-advancing the loop.
        self.ack_seq: Optional[int] = None
        self.ack_response: Optional[Dict[str, Any]] = None
        self.last_forecast: Optional[float] = None
        self.last_weights: Optional[np.ndarray] = None
        self.last_reward: Optional[float] = None
        self.last_rank: Optional[int] = None
        self.last_drifted = False
        self.last_update_trigger: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def state(self) -> np.ndarray:
        """The current ω-window of (scaled) ensemble outputs."""
        return self._state

    @property
    def history(self) -> Optional[np.ndarray]:
        """The true-value history (pool mode only)."""
        return self._history

    @property
    def pending(self) -> bool:
        """Whether a forecast is outstanding, awaiting its realisation."""
        return self._pending

    # ------------------------------------------------------------------
    # Step primitives (the batch loop drives these directly)
    # ------------------------------------------------------------------
    def forecast_step(
        self, prediction_row: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> float:
        """Combine one base-model prediction row into a forecast.

        Mirrors one iteration head of the batch online loop: query the
        policy for weights, degrade over unhealthy members, store a
        replay transition once ω fully-healthy realised pairs exist, and
        advance the state window with the (scaled) ensemble output.
        ``mask`` defaults to ``isfinite(prediction_row)``; pool mode
        additionally intersects the pool's health mask.

        Internally split into a pure assembly phase
        (:meth:`prepare_forecast`), the policy query, and a mutation
        tail (:meth:`apply_forecast`) so the batched serving path can
        run one stacked actor forward for many sessions and still be
        bit-identical to this method.
        """
        scaled_row, healthy = self.prepare_forecast(prediction_row, mask)
        if TRACER.live:
            weights = self._timed_forward()
        else:
            weights = self.agent.policy_weights(self._state)
        return self.apply_forecast(scaled_row, healthy, weights)

    def _timed_forward(self) -> np.ndarray:
        """Policy forward with trace span + sub-ms histogram (slow path).

        Split out of :meth:`forecast_step` so the telemetry-off hot
        path stays a single attribute check per step.
        """
        t0 = time.perf_counter()
        with TRACER.child_span("actor.forward"):
            weights = self.agent.policy_weights(self._state)
        if OBS.enabled:
            OBS.registry.histogram(
                "repro_actor_forward_seconds", {"path": "serial"},
                buckets=FAST_BUCKETS,
            ).observe(time.perf_counter() - t0)
        return weights

    def prepare_forecast(
        self, prediction_row: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pure phase of :meth:`forecast_step`: validate and scale.

        Returns ``(scaled_row, healthy)`` and mutates nothing; the
        session state is untouched until :meth:`apply_forecast`.
        """
        row = np.asarray(prediction_row, dtype=np.float64)
        if row.shape != (self.n_members,):
            raise DataValidationError(
                f"prediction row must have shape ({self.n_members},), "
                f"got {row.shape}"
            )
        healthy = np.isfinite(row)
        if mask is not None:
            healthy = healthy & np.asarray(mask, dtype=bool)
        return self.scaler.transform(row), healthy

    def apply_forecast(
        self,
        scaled_row: np.ndarray,
        healthy: np.ndarray,
        weights: np.ndarray,
    ) -> float:
        """Mutation tail of :meth:`forecast_step`.

        ``weights`` must be ``agent.policy_weights(self.state)`` — the
        caller either computed it per session or took its row of a
        stacked batched forward (bit-identical by construction).
        """
        scaled_out, weights = combine_masked(
            scaled_row, weights, healthy, self.step
        )
        output = float(self.scaler.inverse_transform(scaled_out))

        self.last_reward = None
        self.last_rank = None
        # Once ω true values have been observed, score the action the
        # same way the offline MDP does and store the transition.
        # Degraded windows (any unhealthy member) are skipped — fallback
        # rows would poison the replay buffer.
        if self._realised >= self.window and self._recent_masks.all():
            reward = self.reward_fn(
                self._recent_rows, self._recent_truths, weights
            )
            next_state = np.append(self._state[1:], scaled_out)
            self.agent.buffer.push(
                Transition(self._state, weights, reward, next_state, False)
            )
            self.last_reward = float(reward)
            if isinstance(self.reward_fn, RankReward):
                # Invert Eq. 3: r = m + 1 − ρ(f̄).
                self.last_rank = int(round(self.n_members + 1 - reward))

        self._state = np.append(self._state[1:], scaled_out)
        self._last_row_scaled = scaled_row
        self._last_mask = healthy
        self.last_weights = weights
        self.last_forecast = output
        self._pending = True
        self.step += 1
        return output

    def feedback(self, y: float) -> None:
        """Close the pending forecast with its realised value.

        Mirrors the iteration tail of the batch online loop: push the
        (scaled) realised pair into the reward ring, feed the absolute
        forecast error to the drift detector, and run the configured
        policy updates when the periodic or drift trigger fires.
        """
        if not self._pending:
            raise ConfigurationError(
                "feedback() without an outstanding forecast; call "
                "forecast_step()/observe() first"
            )
        y = float(y)
        self._recent_rows[:-1] = self._recent_rows[1:]
        self._recent_rows[-1] = self._last_row_scaled
        self._recent_truths[:-1] = self._recent_truths[1:]
        self._recent_truths[-1] = self.scaler.transform(y)
        self._recent_masks[:-1] = self._recent_masks[1:]
        self._recent_masks[-1] = self._last_mask
        self._realised += 1
        self.steps_since_update += 1

        error = abs(float(self.last_forecast) - y)
        self.last_drifted = bool(self.detector.update(error))
        periodic_due = (
            self.mode == "periodic"
            and self.steps_since_update >= self.interval
        )
        drift_due = self.mode == "drift" and self.last_drifted
        self.last_update_trigger = None
        if periodic_due or drift_due:
            trigger = "drift" if drift_due else "periodic"
            _LOG.debug(
                "online policy update at step %d (%s trigger)",
                self.step - 1, trigger,
            )
            for _ in range(self.updates_per_trigger):
                self.agent.update()
            self.steps_since_update = 0
            self.last_update_trigger = trigger
        if self._history is not None:
            self._history = np.append(self._history, y)
        self._pending = False

    # ------------------------------------------------------------------
    # The serving step API
    # ------------------------------------------------------------------
    def observe(
        self, y: float, prediction_row: Optional[np.ndarray] = None
    ) -> float:
        """Feed one realised value, return the forecast for the next step.

        Closes the outstanding forecast with ``y`` (reward transition,
        drift detection, policy updates), then forecasts the next value
        — from ``prediction_row`` in matrix mode, or from the pool
        applied to the (extended) true history in pool mode. The first
        call on a fresh session has no outstanding forecast; ``y`` then
        only extends the history.
        """
        with self.lock:
            self.begin_observe(y)
            if prediction_row is not None:
                return self.forecast_step(prediction_row)
            if self.pool is None:
                raise ConfigurationError(
                    "matrix-mode session needs an explicit prediction_row"
                )
            with TRACER.child_span("pool.eval"):
                values, health = self.pool.predict_next_with_mask(
                    self._history
                )
            return self.forecast_step(values, mask=health)

    def begin_observe(self, y: float) -> None:
        """The head of :meth:`observe`: absorb the realised value.

        Closes the outstanding forecast (reward transition, drift
        detection, policy updates — everything that can change the
        policy parameters happens *here*, before any forward pass) or,
        on a fresh pool-mode session, just extends the history. Caller
        must hold :attr:`lock`.
        """
        if self._pending:
            self.feedback(y)
        elif self._history is not None:
            self._history = np.append(self._history, float(y))
        else:
            raise ConfigurationError(
                "observe() before any forecast on a matrix-mode "
                "session; call forecast_step() first"
            )

    def predict(self) -> float:
        """Forecast the next value *without* advancing the session.

        A pure read: queries the policy and the pool on the current
        state/history and combines, mutating nothing. Pool mode only.
        """
        with self.lock:
            if self.pool is None:
                raise ConfigurationError(
                    "predict() requires a pool-mode session"
                )
            values, health = self.pool.predict_next_with_mask(self._history)
            healthy = np.isfinite(values) & health
            weights = self.agent.policy_weights(self._state)
            scaled_out, _ = combine_masked(
                self.scaler.transform(values), weights, healthy, self.step
            )
            return float(self.scaler.inverse_transform(scaled_out))

    # ------------------------------------------------------------------
    # Resume seams
    # ------------------------------------------------------------------
    def restore_loop_state(
        self,
        *,
        state: np.ndarray,
        next_step: int,
        steps_since_update: int,
        detector_state: Dict[str, Any],
        recent_rows: Optional[np.ndarray] = None,
        recent_truths: Optional[np.ndarray] = None,
    ) -> None:
        """Seed the session mid-stream (the batch loop's resume path).

        ``recent_rows``/``recent_truths`` are the *raw* rows/values of
        the last ``min(ω, next_step)`` realised steps; the session
        re-derives the scaled reward ring and health masks from them,
        reproducing the uninterrupted run bit-exactly.
        """
        self._state = np.asarray(state, dtype=np.float64).copy()
        self.step = int(next_step)
        self._realised = int(next_step)
        self.steps_since_update = int(steps_since_update)
        self.detector.restore_checkpoint_state(detector_state)
        if recent_rows is not None:
            rows = np.asarray(recent_rows, dtype=np.float64)
            truths = np.asarray(recent_truths, dtype=np.float64)
            k = min(self.window, rows.shape[0])
            if k:
                self._recent_rows[self.window - k:] = (
                    self.scaler.transform(rows[-k:])
                )
                self._recent_truths[self.window - k:] = (
                    self.scaler.transform(truths[-k:])
                )
                self._recent_masks[self.window - k:] = np.isfinite(rows[-k:])
        self._pending = False

    # ------------------------------------------------------------------
    # Spill / restore (serving SessionStore)
    # ------------------------------------------------------------------
    def checkpoint_state(
        self, *, pristine_light: bool = False
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Capture every source of future behaviour, bit-exactly.

        Includes the session's own policy state (networks, optimizer
        moments, replay ring, RNG/noise) — serving sessions own their
        agent — plus the ω-window, the reward ring, the drift detector,
        the pending forecast, and (pool mode) the true history.

        ``pristine_light`` is forwarded to
        :meth:`DDPGAgent.checkpoint_state`: a never-updated agent then
        omits its network/optimizer arrays (the restorer re-copies them
        from the bundle template), shrinking spill payloads by an order
        of magnitude.
        """
        with self.lock:
            arrays: Dict[str, np.ndarray] = {
                "session.state": self._state.copy(),
                "session.recent_rows": self._recent_rows.copy(),
                "session.recent_truths": self._recent_truths.copy(),
                "session.recent_masks": self._recent_masks.copy(),
                "session.last_row": self._last_row_scaled.copy(),
                "session.last_mask": self._last_mask.copy(),
            }
            if self._history is not None:
                arrays["session.history"] = self._history.copy()
            agent_arrays, agent_meta = self.agent.checkpoint_state(
                pristine_light=pristine_light
            )
            arrays.update(_prefixed("agent", agent_arrays))
            meta: Dict[str, Any] = {
                "agent": agent_meta,
                "step": self.step,
                "realised": self._realised,
                "steps_since_update": self.steps_since_update,
                "detector": self.detector.checkpoint_state(),
                "pending": self._pending,
                "last_forecast": self.last_forecast,
                "ack_seq": self.ack_seq,
                "ack_response": self.ack_response,
                "mode": self.mode,
                "interval": self.interval,
                "updates_per_trigger": self.updates_per_trigger,
                "window": self.window,
                "n_members": self.n_members,
            }
            return arrays, meta

    def restore_checkpoint_state(
        self, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
    ) -> None:
        """Restore a snapshot from :meth:`checkpoint_state` in place."""
        if (
            int(meta["window"]) != self.window
            or int(meta["n_members"]) != self.n_members
        ):
            raise ConfigurationError(
                f"session snapshot is for (window={meta['window']}, "
                f"members={meta['n_members']}); this session has "
                f"(window={self.window}, members={self.n_members})"
            )
        with self.lock:
            self._state = arrays["session.state"].copy()
            self._recent_rows = arrays["session.recent_rows"].copy()
            self._recent_truths = arrays["session.recent_truths"].copy()
            self._recent_masks = (
                arrays["session.recent_masks"].astype(bool).copy()
            )
            self._last_row_scaled = arrays["session.last_row"].copy()
            self._last_mask = arrays["session.last_mask"].astype(bool).copy()
            if "session.history" in arrays:
                self._history = arrays["session.history"].copy()
            self.agent.restore_checkpoint_state(
                _strip_prefix("agent", arrays), meta["agent"]
            )
            self.step = int(meta["step"])
            self._realised = int(meta["realised"])
            self.steps_since_update = int(meta["steps_since_update"])
            self.detector.restore_checkpoint_state(meta["detector"])
            self._pending = bool(meta["pending"])
            self.last_forecast = (
                float(meta["last_forecast"])
                if meta["last_forecast"] is not None else None
            )
            # .get(): snapshots written before the idempotency ledger
            # existed restore with an empty ledger.
            ack_seq = meta.get("ack_seq")
            self.ack_seq = int(ack_seq) if ack_seq is not None else None
            ack_response = meta.get("ack_response")
            self.ack_response = (
                dict(ack_response) if ack_response is not None else None
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-able session info for the service's status endpoints."""
        with self.lock:
            return {
                "session": self.session_id,
                "step": self.step,
                "realised": self._realised,
                "mode": self.mode,
                "pending": self._pending,
                "last_forecast": self.last_forecast,
                "history_length": (
                    int(self._history.size)
                    if self._history is not None else None
                ),
                "drift_observations": self.detector.observations,
            }
