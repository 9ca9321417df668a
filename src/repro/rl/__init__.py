"""RL substrate: MDP, rewards, replay, noise, and the agent registry.

Policy agents (DDPG from the paper, TD3/SAC extensions) register in
:mod:`repro.rl.agents`; construct them by name with
:func:`~repro.rl.agents.make_agent`.
"""

from repro.rl.agents import (
    AGENT_REGISTRY,
    AgentProtocol,
    BaseAgent,
    agent_names,
    get_agent_spec,
    make_agent,
    register_agent,
)
from repro.rl.agents.sac import SACAgent, SACConfig
from repro.rl.agents.td3 import TD3Agent, TD3Config
from repro.rl.ddpg import (
    Actor,
    Critic,
    DDPGAgent,
    DDPGConfig,
    TrainingHistory,
)
from repro.rl.dqn import DQNConfig, DQNSelector
from repro.rl.mdp import (
    EnsembleMDP,
    Transition,
    project_to_simplex,
)
from repro.rl.noise import GaussianNoise, OrnsteinUhlenbeckNoise
from repro.rl.replay import ReplayBuffer
from repro.rl.rewards import (
    DiversityRankReward,
    NRMSEReward,
    RankReward,
    RewardFunction,
    ensemble_window_error,
    model_window_errors,
)

__all__ = [
    "AGENT_REGISTRY",
    "Actor",
    "AgentProtocol",
    "BaseAgent",
    "Critic",
    "DDPGAgent",
    "DDPGConfig",
    "DQNConfig",
    "DQNSelector",
    "DiversityRankReward",
    "EnsembleMDP",
    "GaussianNoise",
    "NRMSEReward",
    "OrnsteinUhlenbeckNoise",
    "RankReward",
    "ReplayBuffer",
    "RewardFunction",
    "SACAgent",
    "SACConfig",
    "TD3Agent",
    "TD3Config",
    "TrainingHistory",
    "Transition",
    "agent_names",
    "ensemble_window_error",
    "get_agent_spec",
    "make_agent",
    "model_window_errors",
    "project_to_simplex",
    "register_agent",
]
