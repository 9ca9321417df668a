"""Configuration dataclasses for the EA-DRL estimator."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Optional

from repro.exceptions import ConfigurationError
from repro.obs import TelemetryConfig
from repro.rl.ddpg import DDPGConfig
from repro.runtime import CheckpointConfig, RuntimeGuardConfig

#: DDPG hyper-parameters whose meaning is agent-independent: when no
#: explicit ``agent_config`` is given, these carry over from the nested
#: ``ddpg`` config onto the selected agent's config dataclass (only the
#: fields that dataclass actually declares). Algorithm-defining switches
#: (``twin_critic``) deliberately do not carry.
_SHARED_AGENT_FIELDS = frozenset({
    "gamma", "actor_lr", "critic_lr", "tau", "hidden", "batch_size",
    "buffer_capacity", "noise_sigma", "noise_decay", "noise_type",
    "sampling", "grad_clip", "warmup_steps", "logit_scale", "seed",
})

__all__ = [
    "CheckpointConfig",
    "EADRLConfig",
    "RuntimeGuardConfig",
    "TelemetryConfig",
]


@dataclass
class EADRLConfig:
    """EA-DRL hyper-parameters (paper defaults in §III).

    Attributes
    ----------
    window:
        ω — the MDP state window (paper: 10).
    embedding_dimension:
        k — embedding for the window-regressor pool members (paper: 5).
    episodes, max_iterations:
        DDPG training budget (paper: max.ep = max.iter = 100).
    pool_train_fraction:
        Fraction of the training series used to fit the base models; the
        remainder provides the prequential predictions that drive the
        MDP (keeps the meta-learner from training on in-sample,
        overfitted base-model outputs).
    reward:
        ``"rank"`` (paper Eq. 3), ``"nrmse"`` (Fig. 2a comparison), or
        ``"rank+diversity"`` (§III-B future-work ablation).
    agent:
        Which registered policy agent learns the ensemble weights —
        ``"ddpg"`` (the paper's algorithm, default), ``"td3"`` or
        ``"sac"``, or any name added via
        :func:`repro.rl.agents.register_agent`. CLI: ``--agent``.
    agent_config:
        Explicit config instance for a non-DDPG agent (e.g. a
        :class:`~repro.rl.agents.td3.TD3Config`). ``None`` derives one
        from the nested ``ddpg`` config by carrying the shared
        hyper-parameters over (see :meth:`resolve_agent_config`).
    ddpg:
        Nested agent hyper-parameters; ``ddpg.sampling`` selects the
        paper's median-balanced replay (Eq. 4) vs. uniform. For
        non-DDPG agents this still seeds the shared fields unless
        ``agent_config`` is set.
    runtime_guards:
        When set, the base-model pool runs under the fault-tolerant
        runtime (:mod:`repro.runtime`): per-member timeout/retry guards,
        circuit breakers, and graceful degradation with healthy-member
        weight renormalisation. ``None`` (default) keeps the paper's
        fail-fast behaviour.
    telemetry:
        When set, constructing an :class:`~repro.core.EADRL` activates
        the process-global observability session (:mod:`repro.obs`) with
        these switches: training episodes, online forecasting steps,
        and pool fan-outs are recorded into the metrics registry and
        streamed to the configured sinks.
        ``None`` (default) leaves telemetry untouched — every
        instrumented call site stays on its no-op fast path. The session
        is process-global: flush output files with
        :func:`repro.obs.shutdown` (the CLI does this automatically).
    checkpoint:
        When set, DDPG training and all four online forecast loops
        auto-checkpoint their full resumable state (networks, Adam
        moments, replay ring, RNG/noise state, history, loop windows)
        into ``checkpoint.directory`` through the atomic, checksummed
        snapshot store (:mod:`repro.runtime.checkpoint`); with
        ``checkpoint.resume`` a killed run continues from its newest
        valid snapshot bit-identically to an uninterrupted run. ``None``
        (default) disables checkpointing entirely. CLI:
        ``--checkpoint-dir/--checkpoint-every/--resume``.
    """

    window: int = 10
    embedding_dimension: int = 5
    episodes: int = 100
    max_iterations: Optional[int] = 100
    pool_train_fraction: float = 0.7
    reward: str = "rank"
    diversity_weight: float = 0.5
    agent: str = "ddpg"
    agent_config: Optional[Any] = None
    ddpg: DDPGConfig = field(default_factory=DDPGConfig)
    runtime_guards: Optional[RuntimeGuardConfig] = None
    telemetry: Optional[TelemetryConfig] = None
    checkpoint: Optional[CheckpointConfig] = None

    def validate(self) -> None:
        if self.window < 2:
            raise ConfigurationError(f"window must be >= 2, got {self.window}")
        if self.embedding_dimension < 1:
            raise ConfigurationError(
                f"embedding_dimension must be >= 1, "
                f"got {self.embedding_dimension}"
            )
        if not 0.1 <= self.pool_train_fraction <= 0.95:
            raise ConfigurationError(
                f"pool_train_fraction must be in [0.1, 0.95], "
                f"got {self.pool_train_fraction}"
            )
        if self.reward not in ("rank", "nrmse", "rank+diversity"):
            raise ConfigurationError(
                f"reward must be 'rank', 'nrmse' or 'rank+diversity', "
                f"got {self.reward!r}"
            )
        if self.episodes < 1:
            raise ConfigurationError(f"episodes must be >= 1, got {self.episodes}")
        if self.runtime_guards is not None:
            self.runtime_guards.validate()
        if self.telemetry is not None:
            self.telemetry.validate()
        if self.checkpoint is not None:
            self.checkpoint.validate()
        self.ddpg.validate()
        # Unknown names raise ConfigurationError listing the registry.
        from repro.rl.agents import get_agent_spec

        spec = get_agent_spec(self.agent)
        if self.agent_config is not None:
            if not isinstance(self.agent_config, spec.config_cls):
                raise ConfigurationError(
                    f"agent_config for {self.agent!r} must be a "
                    f"{spec.config_cls.__name__}, got "
                    f"{type(self.agent_config).__name__}"
                )
            self.agent_config.validate()

    def resolve_agent_config(self, name: Optional[str] = None):
        """Config object for the selected (or ``name``d) agent.

        An explicit ``agent_config`` wins when its type matches; for
        DDPG the nested ``ddpg`` config is used directly (paper path,
        bit-identical to pre-registry behaviour). For other agents the
        shared hyper-parameters are carried over from ``ddpg`` onto the
        target config dataclass, so ``--seed``/tuning applied once
        affects every agent uniformly.
        """
        from repro.rl.agents import get_agent_spec

        spec = get_agent_spec(name if name is not None else self.agent)
        if self.agent_config is not None and isinstance(
            self.agent_config, spec.config_cls
        ):
            return self.agent_config
        if isinstance(self.ddpg, spec.config_cls):
            return self.ddpg
        shared = {
            f.name: getattr(self.ddpg, f.name)
            for f in fields(spec.config_cls)
            if f.name in _SHARED_AGENT_FIELDS and hasattr(self.ddpg, f.name)
        }
        return spec.config_cls(**shared)
