"""Deep Deterministic Policy Gradient (Lillicrap et al. 2015) agent.

The actor maps the ω-length state window to an m-dimensional weight
vector through a softmax head (the paper's "standard normalisation" that
keeps weights positive and summing to one). The critic estimates
``Q(s, a)`` from the concatenated state and action. Target copies of both
networks are Polyak-averaged each update, and the replay buffer supports
either uniform sampling (the reference algorithm) or the paper's
median-balanced scheme (Eq. 4).

The training loop, warmup, telemetry, and crash-safe checkpointing live
in :class:`repro.rl.agents.base.BaseAgent`; this module contributes the
DDPG networks and update rule and registers the agent as ``"ddpg"`` in
the agent registry (:mod:`repro.rl.agents`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.exceptions import CheckpointError, ConfigurationError
from repro.nn import Adam, Linear, Module, Tensor, clip_grad_norm, mse_loss
from repro.obs import OBS
from repro.rl.agents.base import (  # noqa: F401  (re-exported for compat)
    BaseAgent,
    TrainingHistory,
    _action_entropy,
)
from repro.rl.agents.registry import register_agent
from repro.rl.mdp import project_to_simplex
from repro.rl.noise import GaussianNoise, OrnsteinUhlenbeckNoise


class Actor(Module):
    """Policy network π(s|θ): state window → simplex weight vector.

    Logits are squashed with ``logit_scale · tanh`` before the softmax, so
    the policy can approach (but never fully reach) a one-hot vertex —
    gradients through the softmax never vanish and the actor cannot
    irrecoverably saturate early in training.
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden: int,
        rng: np.random.Generator,
        logit_scale: float = 3.0,
    ):
        super().__init__()
        self.fc1 = Linear(state_dim, hidden, rng=rng, init="fanin")
        self.fc2 = Linear(hidden, hidden, rng=rng, init="fanin")
        self.out = Linear(hidden, action_dim, rng=rng, init="final")
        self.logit_scale = logit_scale

    def forward(self, state: Tensor) -> Tensor:
        h = self.fc1(state).relu()
        h = self.fc2(h).relu()
        logits = self.out(h).tanh() * self.logit_scale
        return logits.softmax(axis=-1)

    def forward_numpy(self, state: np.ndarray) -> np.ndarray:
        """Graph-free inference for deployment (paper Alg. 1 hot path).

        Identical math to :meth:`forward` but in raw numpy — no autograd
        bookkeeping, an order of magnitude faster per call.
        """
        h = np.maximum(state @ self.fc1.weight.data + self.fc1.bias.data, 0.0)
        h = np.maximum(h @ self.fc2.weight.data + self.fc2.bias.data, 0.0)
        logits = np.tanh(h @ self.out.weight.data + self.out.bias.data)
        logits *= self.logit_scale
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)


class Critic(Module):
    """Value network Q(s, a|φ): joint state-action value estimate."""

    def __init__(
        self, state_dim: int, action_dim: int, hidden: int, rng: np.random.Generator
    ):
        super().__init__()
        self.fc1 = Linear(state_dim + action_dim, hidden, rng=rng, init="fanin")
        self.fc2 = Linear(hidden, hidden, rng=rng, init="fanin")
        self.out = Linear(hidden, 1, rng=rng, init="final")

    def forward(self, state: Tensor, action: Tensor) -> Tensor:
        joint = Tensor.concatenate([state, action], axis=1)
        h = self.fc1(joint).relu()
        h = self.fc2(h).relu()
        return self.out(h)


@dataclass
class DDPGConfig:
    """Hyper-parameters (paper defaults: γ=0.9, α=0.01, 100 episodes)."""

    gamma: float = 0.9
    actor_lr: float = 0.002
    critic_lr: float = 0.01
    tau: float = 0.01
    hidden: int = 64
    batch_size: int = 32
    buffer_capacity: int = 10_000
    noise_sigma: float = 0.15
    noise_decay: float = 0.97
    noise_type: str = "gaussian"  # "gaussian" (decaying) or "ou" (correlated)
    sampling: str = "median"  # "median" (paper Eq. 4) or "uniform"
    grad_clip: float = 5.0
    warmup_steps: int = 200
    logit_scale: float = 3.0
    twin_critic: bool = False  # TD3-style clipped double-Q (extension)
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
        if self.noise_type not in ("gaussian", "ou"):
            raise ConfigurationError(
                f"noise_type must be 'gaussian' or 'ou', got {self.noise_type!r}"
            )


class DDPGAgent(BaseAgent):
    """Actor-critic learner for the ensemble-aggregation MDP."""

    name = "ddpg"
    config_cls = DDPGConfig

    def _build(self, init_rng, init_weights: bool) -> None:
        hidden = self.config.hidden
        scale = self.config.logit_scale
        state_dim, action_dim = self.state_dim, self.action_dim
        self.actor = Actor(state_dim, action_dim, hidden, init_rng, logit_scale=scale)
        self.critic = Critic(state_dim, action_dim, hidden, init_rng)
        self.target_actor = Actor(state_dim, action_dim, hidden, init_rng, logit_scale=scale)
        self.target_critic = Critic(state_dim, action_dim, hidden, init_rng)
        if init_weights:
            self.target_actor.copy_from(self.actor)
            self.target_critic.copy_from(self.critic)

        # Optional TD3-style second critic: the TD target takes the
        # minimum of the two target critics, damping overestimation.
        self.critic2: Optional[Critic] = None
        self.target_critic2: Optional[Critic] = None
        if self.config.twin_critic:
            self.critic2 = Critic(state_dim, action_dim, hidden, init_rng)
            self.target_critic2 = Critic(state_dim, action_dim, hidden, init_rng)
            if init_weights:
                self.target_critic2.copy_from(self.critic2)

        self.actor_opt = Adam(self.actor.parameters(), lr=self.config.actor_lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=self.config.critic_lr)
        self.critic2_opt: Optional[Adam] = (
            Adam(self.critic2.parameters(), lr=self.config.critic_lr)
            if self.critic2 is not None
            else None
        )

    def _build_noise(self):
        if self.config.noise_type == "ou":
            return OrnsteinUhlenbeckNoise(
                self.action_dim,
                sigma=self.config.noise_sigma,
                seed=self.config.seed + 1,
            )
        return GaussianNoise(
            self.action_dim,
            sigma=self.config.noise_sigma,
            decay=self.config.noise_decay,
            seed=self.config.seed + 1,
        )

    # ------------------------------------------------------------------
    def act(self, state: np.ndarray, explore: bool = False) -> np.ndarray:
        """Deterministic policy output, optionally perturbed with noise."""
        state = self._check_state(state)
        weights = self.actor.forward_numpy(state[None, :])[0]
        if explore:
            weights = project_to_simplex(weights + self.noise.sample())
        return weights

    @staticmethod
    def policy_weights_batch(states: np.ndarray, agents) -> np.ndarray:
        """``agents[i].policy_weights(states[i])`` for every row.

        Nothing in the package calls it. It stays because the ledger's
        span recorder (``benchmarks/ledger/spans.py``) wraps it by name.
        """
        return np.stack([
            agent.policy_weights(state)
            for state, agent in zip(states, agents)
        ])

    # ------------------------------------------------------------------
    def update(self) -> None:
        """One gradient step on critic and actor from a replay batch."""
        if len(self.buffer) < self.config.batch_size:
            return
        states, actions, rewards, next_states, dones = self.buffer.sample(
            self.config.batch_size, strategy=self.config.sampling
        )

        # Critic: y = r + γ(1−done)·Q'(s', π'(s'));  minimise (Q(s,a) − y)².
        # With twin critics the target is min(Q1', Q2') (TD3-style).
        next_actions = self.target_actor(Tensor(next_states))
        target_q = self.target_critic(Tensor(next_states), next_actions).numpy()[:, 0]
        if self.target_critic2 is not None:
            target_q2 = self.target_critic2(
                Tensor(next_states), next_actions
            ).numpy()[:, 0]
            target_q = np.minimum(target_q, target_q2)
        y = rewards + self.config.gamma * (1.0 - dones) * target_q
        self.critic.zero_grad()
        q = self.critic(Tensor(states), Tensor(actions))
        critic_loss = mse_loss(q, Tensor(y[:, None]))
        critic_loss.backward()
        clip_grad_norm(self.critic.parameters(), self.config.grad_clip)
        self.critic_opt.step()
        if self.critic2 is not None:
            self.critic2.zero_grad()
            q2 = self.critic2(Tensor(states), Tensor(actions))
            critic2_loss = mse_loss(q2, Tensor(y[:, None]))
            critic2_loss.backward()
            clip_grad_norm(self.critic2.parameters(), self.config.grad_clip)
            self.critic2_opt.step()

        # Actor: maximise Q(s, π(s)) — gradients flow through the critic
        # into the policy; only the actor's parameters are stepped.
        self.actor.zero_grad()
        self.critic.zero_grad()
        policy_actions = self.actor(Tensor(states))
        actor_objective = self.critic(Tensor(states), policy_actions).mean()
        loss = -actor_objective
        loss.backward()
        actor_grad_norm = clip_grad_norm(
            self.actor.parameters(), self.config.grad_clip
        )
        self.actor_opt.step()
        self.critic.zero_grad()  # discard critic grads from the actor pass

        # Polyak-averaged target updates.
        self.target_actor.soft_update_from(self.actor, self.config.tau)
        self.target_critic.soft_update_from(self.critic, self.config.tau)
        if self.critic2 is not None:
            self.target_critic2.soft_update_from(self.critic2, self.config.tau)

        critic_loss_value = critic_loss.item()
        actor_objective_value = actor_objective.item()
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
        modules = [
            ("actor", self.actor),
            ("critic", self.critic),
            ("target_actor", self.target_actor),
            ("target_critic", self.target_critic),
        ]
        if self.critic2 is not None:
            modules.append(("critic2", self.critic2))
            modules.append(("target_critic2", self.target_critic2))
        return modules

    def _checkpoint_optimizers(self):
        optimizers = [
            ("actor_opt", self.actor_opt),
            ("critic_opt", self.critic_opt),
        ]
        if self.critic2_opt is not None:
            optimizers.append(("critic2_opt", self.critic2_opt))
        return optimizers

    def _extra_checkpoint_meta(self) -> Dict[str, Any]:
        return {"twin_critic": self.config.twin_critic}

    def _check_restore_meta(self, meta: Dict[str, Any]) -> None:
        if bool(meta["twin_critic"]) != self.config.twin_critic:
            raise CheckpointError(
                "agent snapshot twin_critic setting does not match "
                "this agent's config"
            )


register_agent("ddpg", DDPGAgent, DDPGConfig)
