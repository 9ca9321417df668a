"""Soft Actor-Critic (Haarnoja et al. 2018) on the ensemble simplex.

SAC replaces DDPG's deterministic policy with a stochastic one and
maximises reward *plus* policy entropy, trading exploitation against
exploration through a learned temperature α:

- **Squashed-Gaussian simplex actor.** The actor emits a diagonal
  Gaussian over pre-activations ``z``; actions are squashed onto the
  simplex with ``w = (tanh(z) + 1 + ε) / Σ(tanh(z) + 1 + ε)`` — every
  sample is a strictly positive weight vector summing to one, and the
  map is differentiable so the reparameterised sample carries
  gradients into the actor.
- **Twin soft critics.** Two critics train against
  ``y = r + γ(1−done)·(min(Q1', Q2')(s', ã) − α·log π(ã|s'))`` with
  ``ã`` freshly sampled from the *current* policy (SAC has no target
  actor).
- **Learned temperature.** ``log α`` is a single learned parameter
  stepped toward a target entropy (default ``−m``), so the
  exploration pressure anneals itself.

The log-density accounts for the Gaussian and the ``tanh`` change of
variables but drops the (weight-sharing) normalisation Jacobian of the
final simplex projection — a documented approximation: the omitted
term shifts log-probabilities by a bounded amount and leaves the
maximum-entropy structure intact (``docs/paper_mapping.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn import Adam, Linear, Module, Parameter, Tensor, clip_grad_norm, mse_loss
from repro.obs import OBS
from repro.rl.agents.base import BaseAgent
from repro.rl.agents.registry import register_agent
from repro.rl.ddpg import Critic

#: Keeps every squashed weight strictly positive (and the log finite).
_SQUASH_EPS = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)


def simplex_squash(z: np.ndarray) -> np.ndarray:
    """Map pre-activations onto the interior of the simplex (numpy).

    ``w_i = (tanh(z_i) + 1 + ε) / Σ_j (tanh(z_j) + 1 + ε)`` — exactly
    the math of the Tensor path in :meth:`SACAgent._actor_sample`, so
    deployment inference needs no autograd.
    """
    shifted = np.tanh(z) + (1.0 + _SQUASH_EPS)
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _gaussian_tanh_logp(
    z: np.ndarray, log_std: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Row log-densities of the squashed sample (numpy, detached).

    Gaussian term with ``z = μ + σ·ε`` plus the ``tanh`` change of
    variables; the simplex-normalisation Jacobian is omitted (see the
    module docstring).
    """
    gaussian = -(log_std + 0.5 * eps * eps + 0.5 * _LOG_2PI).sum(axis=-1)
    tanh_z = np.tanh(z)
    correction = np.log(1.0 - tanh_z * tanh_z + _SQUASH_EPS).sum(axis=-1)
    return gaussian - correction


class GaussianActor(Module):
    """Stochastic policy head: state → (μ, log σ) of the pre-activation.

    ``log σ`` is bounded with a ``tanh`` rescale into
    ``[log_std_min, log_std_max]`` so the policy can neither collapse
    to a deterministic point nor blow up early in training.
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden: int,
        rng: np.random.Generator,
        log_std_min: float = -5.0,
        log_std_max: float = 2.0,
    ):
        super().__init__()
        self.fc1 = Linear(state_dim, hidden, rng=rng, init="fanin")
        self.fc2 = Linear(hidden, hidden, rng=rng, init="fanin")
        self.mean_head = Linear(hidden, action_dim, rng=rng, init="final")
        self.log_std_head = Linear(hidden, action_dim, rng=rng, init="final")
        self.log_std_min = log_std_min
        self.log_std_max = log_std_max

    def forward(self, state: Tensor) -> Tuple[Tensor, Tensor]:
        h = self.fc1(state).relu()
        h = self.fc2(h).relu()
        mean = self.mean_head(h)
        half_span = 0.5 * (self.log_std_max - self.log_std_min)
        log_std = (
            self.log_std_head(h).tanh() + 1.0
        ) * half_span + self.log_std_min
        return mean, log_std

    def forward_numpy(
        self, state: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Graph-free (μ, log σ) — identical math to :meth:`forward`."""
        h = np.maximum(state @ self.fc1.weight.data + self.fc1.bias.data, 0.0)
        h = np.maximum(h @ self.fc2.weight.data + self.fc2.bias.data, 0.0)
        mean = h @ self.mean_head.weight.data + self.mean_head.bias.data
        raw = h @ self.log_std_head.weight.data + self.log_std_head.bias.data
        half_span = 0.5 * (self.log_std_max - self.log_std_min)
        log_std = (np.tanh(raw) + 1.0) * half_span + self.log_std_min
        return mean, log_std


class Temperature(Module):
    """The learned entropy temperature, ``α = exp(log_alpha)``."""

    def __init__(self, init_alpha: float):
        super().__init__()
        self.log_alpha = Parameter(
            np.array([math.log(init_alpha)], dtype=np.float64)
        )

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.data[0]))


@dataclass
class SACConfig:
    """SAC hyper-parameters (field names shared with DDPG where the
    meaning coincides, so :meth:`EADRLConfig.resolve_agent_config` can
    carry tuning across agents)."""

    gamma: float = 0.9
    actor_lr: float = 0.002
    critic_lr: float = 0.01
    alpha_lr: float = 0.002
    tau: float = 0.01
    hidden: int = 64
    batch_size: int = 32
    buffer_capacity: int = 10_000
    sampling: str = "median"  # "median" (paper Eq. 4) or "uniform"
    grad_clip: float = 5.0
    warmup_steps: int = 200
    init_alpha: float = 0.1
    target_entropy: Optional[float] = None  # None -> -action_dim
    log_std_min: float = -5.0
    log_std_max: float = 2.0
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigurationError(f"tau must be in (0, 1], got {self.tau}")
        if self.batch_size < 2:
            raise ConfigurationError(
                f"batch_size must be >= 2, got {self.batch_size}"
            )
        if self.sampling not in ("median", "uniform"):
            raise ConfigurationError(
                f"sampling must be 'median' or 'uniform', got {self.sampling!r}"
            )
        if self.init_alpha <= 0:
            raise ConfigurationError(
                f"init_alpha must be > 0, got {self.init_alpha}"
            )
        if self.log_std_min >= self.log_std_max:
            raise ConfigurationError(
                f"need log_std_min < log_std_max, got "
                f"[{self.log_std_min}, {self.log_std_max}]"
            )


class SACAgent(BaseAgent):
    """Soft actor-critic learner emitting simplex ensemble weights."""

    name = "sac"
    config_cls = SACConfig

    def _build(self, init_rng, init_weights: bool) -> None:
        cfg = self.config
        state_dim, action_dim = self.state_dim, self.action_dim
        self.actor = GaussianActor(
            state_dim, action_dim, cfg.hidden, init_rng,
            log_std_min=cfg.log_std_min, log_std_max=cfg.log_std_max,
        )
        self.critic = Critic(state_dim, action_dim, cfg.hidden, init_rng)
        self.critic2 = Critic(state_dim, action_dim, cfg.hidden, init_rng)
        self.target_critic = Critic(state_dim, action_dim, cfg.hidden, init_rng)
        self.target_critic2 = Critic(state_dim, action_dim, cfg.hidden, init_rng)
        if init_weights:
            self.target_critic.copy_from(self.critic)
            self.target_critic2.copy_from(self.critic2)
        self.temperature = Temperature(cfg.init_alpha)

        self.actor_opt = Adam(self.actor.parameters(), lr=cfg.actor_lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=cfg.critic_lr)
        self.critic2_opt = Adam(self.critic2.parameters(), lr=cfg.critic_lr)
        self.alpha_opt = Adam(self.temperature.parameters(), lr=cfg.alpha_lr)

        self._target_entropy = (
            cfg.target_entropy
            if cfg.target_entropy is not None
            else -float(action_dim)
        )
        # Dedicated streams: acting (seed+1, one draw per explore step)
        # and updating (seed+2, two draws per gradient step) stay
        # independent of the init/warmup RNG, mirroring where DDPG's
        # exploration-noise stream sits.
        self._act_rng = np.random.default_rng(cfg.seed + 1)
        self._update_rng = np.random.default_rng(cfg.seed + 2)

    # ------------------------------------------------------------------
    def act(self, state: np.ndarray, explore: bool = False) -> np.ndarray:
        """Squashed policy sample (mean action when ``explore=False``)."""
        state = self._check_state(state)
        mean, log_std = self.actor.forward_numpy(state[None, :])
        if explore:
            z = mean + np.exp(log_std) * self._act_rng.standard_normal(
                mean.shape
            )
        else:
            z = mean
        return simplex_squash(z)[0]

    # ------------------------------------------------------------------
    def _actor_sample(
        self, states: np.ndarray
    ) -> Tuple[Tensor, Tensor]:
        """Reparameterised simplex action + log-density (autograd).

        One ``_update_rng`` draw; the noise is a constant of the graph,
        so gradients flow through μ and σ (the reparameterisation
        trick). Returns ``(weights, logp)`` with shapes
        ``(batch, m)`` / ``(batch, 1)``.
        """
        mean, log_std = self.actor(Tensor(states))
        std = log_std.exp()
        eps = self._update_rng.standard_normal(mean.shape)
        z = mean + std * eps
        tanh_z = z.tanh()
        shifted = tanh_z + (1.0 + _SQUASH_EPS)
        weights = shifted / shifted.sum(axis=-1, keepdims=True)
        # log N(z; μ, σ) with ε fixed: the -0.5ε² and -0.5·log 2π terms
        # are constants of the graph, kept so the *value* matches
        # _gaussian_tanh_logp exactly.
        const = -0.5 * (eps * eps + _LOG_2PI).sum(axis=-1, keepdims=True)
        gaussian = (-log_std).sum(axis=-1, keepdims=True) + const
        correction = (
            tanh_z * tanh_z * -1.0 + (1.0 + _SQUASH_EPS)
        ).log().sum(axis=-1, keepdims=True)
        return weights, gaussian - correction

    def update(self) -> None:
        """One soft-critic step, actor step, and temperature step."""
        if len(self.buffer) < self.config.batch_size:
            return
        states, actions, rewards, next_states, dones = self.buffer.sample(
            self.config.batch_size, strategy=self.config.sampling
        )
        alpha = self.temperature.alpha

        # Soft TD target with a fresh sample from the *current* policy:
        # y = r + γ(1−done)·(min(Q1', Q2')(s', ã) − α·log π(ã|s')).
        next_mean, next_log_std = self.actor.forward_numpy(next_states)
        next_eps = self._update_rng.standard_normal(next_mean.shape)
        next_z = next_mean + np.exp(next_log_std) * next_eps
        next_weights = simplex_squash(next_z)
        next_logp = _gaussian_tanh_logp(next_z, next_log_std, next_eps)
        target_q = self.target_critic(
            Tensor(next_states), Tensor(next_weights)
        ).numpy()[:, 0]
        target_q2 = self.target_critic2(
            Tensor(next_states), Tensor(next_weights)
        ).numpy()[:, 0]
        soft_value = np.minimum(target_q, target_q2) - alpha * next_logp
        y = rewards + self.config.gamma * (1.0 - dones) * soft_value

        self.critic.zero_grad()
        q = self.critic(Tensor(states), Tensor(actions))
        critic_loss = mse_loss(q, Tensor(y[:, None]))
        critic_loss.backward()
        clip_grad_norm(self.critic.parameters(), self.config.grad_clip)
        self.critic_opt.step()
        self.critic2.zero_grad()
        q2 = self.critic2(Tensor(states), Tensor(actions))
        critic2_loss = mse_loss(q2, Tensor(y[:, None]))
        critic2_loss.backward()
        clip_grad_norm(self.critic2.parameters(), self.config.grad_clip)
        self.critic2_opt.step()

        # Actor: minimise E[α·log π(a|s) − min(Q1, Q2)(s, a)] through
        # the reparameterised sample. The min is realised with a
        # constant 0/1 mask so the gradient flows into whichever critic
        # is smaller per row.
        self.actor.zero_grad()
        self.critic.zero_grad()
        self.critic2.zero_grad()
        policy_weights, logp = self._actor_sample(states)
        q1_pi = self.critic(Tensor(states), policy_weights)
        q2_pi = self.critic2(Tensor(states), policy_weights)
        mask = (q1_pi.data <= q2_pi.data).astype(np.float64)
        q_min = q1_pi * mask + q2_pi * (1.0 - mask)
        actor_loss = (logp * alpha - q_min).mean()
        actor_loss.backward()
        actor_grad_norm = clip_grad_norm(
            self.actor.parameters(), self.config.grad_clip
        )
        self.actor_opt.step()
        self.critic.zero_grad()  # discard critic grads from the actor pass
        self.critic2.zero_grad()

        # Temperature: step log α toward the target entropy using the
        # detached log-densities of the fresh actor sample.
        logp_detached = logp.data[:, 0]
        self.temperature.zero_grad()
        alpha_loss = (
            self.temperature.log_alpha
            * Tensor(logp_detached + self._target_entropy)
        ).mean() * -1.0
        alpha_loss.backward()
        self.alpha_opt.step()

        # Polyak-averaged target critics (no target actor in SAC).
        self.target_critic.soft_update_from(self.critic, self.config.tau)
        self.target_critic2.soft_update_from(self.critic2, self.config.tau)

        critic_loss_value = critic_loss.item()
        # The recorded "objective" is E[min Q − α·log π] — the soft
        # value the actor climbs, the SAC analogue of DDPG's E[Q].
        actor_objective_value = -actor_loss.item()
        self.history.critic_losses.append(critic_loss_value)
        self.history.actor_objectives.append(actor_objective_value)
        self._last_actor_grad_norm = actor_grad_norm
        self.updates_applied += 1
        if OBS.enabled:
            registry = OBS.registry
            registry.counter("repro_ddpg_updates_total").inc()
            registry.histogram("repro_ddpg_critic_loss").observe(
                critic_loss_value
            )
            registry.histogram("repro_ddpg_actor_grad_norm").observe(
                actor_grad_norm
            )

    # ------------------------------------------------------------------
    # Crash-safe checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------
    def _checkpoint_modules(self):
        return [
            ("actor", self.actor),
            ("critic", self.critic),
            ("critic2", self.critic2),
            ("target_critic", self.target_critic),
            ("target_critic2", self.target_critic2),
            ("temperature", self.temperature),
        ]

    def _checkpoint_optimizers(self):
        return [
            ("actor_opt", self.actor_opt),
            ("critic_opt", self.critic_opt),
            ("critic2_opt", self.critic2_opt),
            ("alpha_opt", self.alpha_opt),
        ]

    def _extra_checkpoint_meta(self) -> Dict[str, Any]:
        return {
            "act_rng": self._act_rng.bit_generator.state,
            "update_rng": self._update_rng.bit_generator.state,
        }

    def _restore_extra_meta(self, meta: Dict[str, Any]) -> None:
        self._act_rng.bit_generator.state = meta["act_rng"]
        self._update_rng.bit_generator.state = meta["update_rng"]


register_agent("sac", SACAgent, SACConfig)
