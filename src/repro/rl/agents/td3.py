"""Twin Delayed DDPG (Fujimoto et al. 2018) on the ensemble simplex.

TD3 keeps DDPG's deterministic actor — so ensemble weights come from
the same softmax head — and changes the update rule in three ways:

1. **Twin critics.** Two independent critics are trained against the
   same target; the TD target takes their minimum, damping the
   overestimation bias a single critic accumulates.
2. **Target policy smoothing.** The target action is perturbed with
   clipped Gaussian noise and re-projected onto the simplex before the
   target critics score it, smoothing the value estimate over nearby
   weight vectors.
3. **Delayed policy updates.** The actor (and all three target
   networks) step only every ``policy_delay`` critic updates, letting
   the value estimate settle between policy moves.

Everything else — networks, replay, warmup, checkpointing, cloning —
is inherited from :class:`~repro.rl.ddpg.DDPGAgent`, which is why the
agent is ~100 lines: the update rule *is* the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn import Tensor, clip_grad_norm, mse_loss
from repro.obs import OBS
from repro.rl.agents.registry import register_agent
from repro.rl.ddpg import DDPGAgent, DDPGConfig


def _project_rows(weights: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.rl.mdp.project_to_simplex` in one pass.

    Elementwise ops and contiguous per-row sums, so row ``i`` equals
    ``project_to_simplex(weights[i])`` bitwise without a Python call per
    replay sample on every update.
    """
    w = np.maximum(weights, 0.0)
    totals = w.sum(axis=-1, keepdims=True)
    degenerate = totals[:, 0] <= 1e-12
    out = w / np.where(degenerate[:, None], 1.0, totals)
    if degenerate.any():
        out[degenerate] = 1.0 / w.shape[-1]
    return out


@dataclass
class TD3Config(DDPGConfig):
    """TD3 hyper-parameters (DDPG fields plus the three TD3 knobs).

    ``twin_critic`` is forced on — the clipped double-Q estimate is
    definitional for TD3, not an ablation switch.
    """

    twin_critic: bool = True
    policy_delay: int = 2  # critic updates per actor/target update
    target_noise_sigma: float = 0.2  # target policy smoothing scale
    target_noise_clip: float = 0.5  # smoothing noise clip bound

    def validate(self) -> None:
        super().validate()
        if not self.twin_critic:
            raise ConfigurationError(
                "TD3 requires twin_critic=True (clipped double-Q is "
                "part of the algorithm)"
            )
        if self.policy_delay < 1:
            raise ConfigurationError(
                f"policy_delay must be >= 1, got {self.policy_delay}"
            )
        if self.target_noise_sigma < 0 or self.target_noise_clip <= 0:
            raise ConfigurationError(
                "need target_noise_sigma >= 0 and target_noise_clip > 0"
            )


class TD3Agent(DDPGAgent):
    """TD3 learner emitting the same simplex weights as DDPG."""

    name = "td3"
    config_cls = TD3Config

    def _build(self, init_rng, init_weights: bool) -> None:
        super()._build(init_rng, init_weights)
        # Target-smoothing noise draws come from a dedicated stream so
        # they perturb neither the init/warmup RNG nor the exploration
        # noise (both already pinned to seed and seed+1).
        self._smooth_rng = np.random.default_rng(self.config.seed + 2)

    # ------------------------------------------------------------------
    def update(self) -> None:
        """One twin-critic step; actor/targets every ``policy_delay``."""
        if len(self.buffer) < self.config.batch_size:
            return
        states, actions, rewards, next_states, dones = self.buffer.sample(
            self.config.batch_size, strategy=self.config.sampling
        )

        # Target policy smoothing: ã = Π_simplex(π'(s') + clip(ε)).
        # The perturbed action leaves the simplex, so it is re-projected
        # before the target critics score it (the same projection every
        # external action passes through).
        next_actions = self.target_actor.forward_numpy(next_states)
        noise = self._smooth_rng.normal(
            0.0, self.config.target_noise_sigma, size=next_actions.shape
        )
        np.clip(
            noise,
            -self.config.target_noise_clip,
            self.config.target_noise_clip,
            out=noise,
        )
        next_actions = _project_rows(next_actions + noise)

        # Clipped double-Q target: y = r + γ(1−done)·min(Q1', Q2')(s', ã).
        target_q = self.target_critic(
            Tensor(next_states), Tensor(next_actions)
        ).numpy()[:, 0]
        target_q2 = self.target_critic2(
            Tensor(next_states), Tensor(next_actions)
        ).numpy()[:, 0]
        y = rewards + self.config.gamma * (1.0 - dones) * np.minimum(
            target_q, target_q2
        )
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

        critic_loss_value = critic_loss.item()
        self.history.critic_losses.append(critic_loss_value)
        self.updates_applied += 1
        if OBS.enabled:
            registry = OBS.registry
            registry.counter("repro_ddpg_updates_total").inc()
            registry.histogram("repro_ddpg_critic_loss").observe(
                critic_loss_value
            )

        # Delayed policy update: the actor and all three target nets
        # move only every ``policy_delay`` critic steps.
        if self.updates_applied % self.config.policy_delay != 0:
            return
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

        self.target_actor.soft_update_from(self.actor, self.config.tau)
        self.target_critic.soft_update_from(self.critic, self.config.tau)
        self.target_critic2.soft_update_from(self.critic2, self.config.tau)

        self.history.actor_objectives.append(actor_objective.item())
        self._last_actor_grad_norm = actor_grad_norm
        if OBS.enabled:
            OBS.registry.histogram("repro_ddpg_actor_grad_norm").observe(
                actor_grad_norm
            )

    # ------------------------------------------------------------------
    def _extra_checkpoint_meta(self) -> Dict[str, Any]:
        meta = super()._extra_checkpoint_meta()
        meta["smooth_rng"] = self._smooth_rng.bit_generator.state
        return meta

    def _restore_extra_meta(self, meta: Dict[str, Any]) -> None:
        super()._restore_extra_meta(meta)
        self._smooth_rng.bit_generator.state = meta["smooth_rng"]


register_agent("td3", TD3Agent, TD3Config)
