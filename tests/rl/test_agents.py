"""The pluggable agent subsystem: registry, TD3, SAC, and the shared
checkpoint/clone contracts every registered agent must honour."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.rl import (
    AGENT_REGISTRY,
    AgentProtocol,
    DDPGAgent,
    DDPGConfig,
    EnsembleMDP,
    RankReward,
    SACAgent,
    SACConfig,
    TD3Agent,
    TD3Config,
    agent_names,
    make_agent,
)
from repro.rl.agents.sac import simplex_squash

AGENTS = ["ddpg", "td3", "sac"]


def _fast_config(name):
    cfg = make_agent(name, 4, 2).config
    return replace(cfg, warmup_steps=12, batch_size=8, buffer_capacity=64,
                   seed=3)


@pytest.fixture
def easy_env(rng):
    T, m = 90, 4
    truth = np.sin(np.arange(T) * 0.3)
    scales = np.array([1.0, 0.05, 0.9, 1.3])
    preds = truth[:, None] + scales[None, :] * rng.standard_normal((T, m))
    return EnsembleMDP(preds, truth, window=8, reward_fn=RankReward())


def _trained(name, env, episodes=2, max_iterations=12):
    agent = make_agent(name, env.state_dim, env.action_dim,
                       _fast_config(name))
    agent.train(env, episodes=episodes, max_iterations=max_iterations)
    return agent


class TestRegistry:
    def test_builtins_registered(self):
        assert agent_names() == ["ddpg", "sac", "td3"]

    def test_specs_map_names_to_classes(self):
        assert AGENT_REGISTRY["ddpg"].agent_cls is DDPGAgent
        assert AGENT_REGISTRY["td3"].agent_cls is TD3Agent
        assert AGENT_REGISTRY["sac"].agent_cls is SACAgent

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError) as err:
            make_agent("dreamer", 4, 2)
        message = str(err.value)
        for name in AGENTS:
            assert name in message

    def test_wrong_config_type_rejected(self):
        with pytest.raises(ConfigurationError):
            make_agent("sac", 4, 2, config=DDPGConfig())

    def test_every_agent_satisfies_protocol(self):
        for name in AGENTS:
            assert isinstance(make_agent(name, 4, 2), AgentProtocol)

    def test_reregistering_different_class_rejected(self):
        from repro.rl.agents import register_agent

        with pytest.raises(ConfigurationError):
            register_agent("ddpg", TD3Agent, TD3Config)
        # Idempotent re-registration of the same class is fine.
        register_agent("ddpg", DDPGAgent, DDPGConfig)


class TestSimplexOutputs:
    @pytest.mark.parametrize("name", AGENTS)
    @pytest.mark.parametrize("explore", [False, True])
    def test_actions_live_on_the_simplex(self, easy_env, name, explore):
        agent = make_agent(name, easy_env.state_dim, easy_env.action_dim,
                           _fast_config(name))
        w = agent.act(easy_env.reset(), explore=explore)
        assert w.shape == (easy_env.action_dim,)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(), 1.0)

    def test_sac_squash_matches_act(self):
        z = np.array([[0.3, -1.2, 2.0]])
        w = simplex_squash(z)
        assert w.shape == z.shape
        assert np.all(w > 0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0)


class TestTD3Semantics:
    def test_twin_critic_forced(self):
        with pytest.raises(ConfigurationError):
            TD3Config(twin_critic=False).validate()

    def test_policy_delay_gates_actor_updates(self, easy_env):
        config = replace(_fast_config("td3"), policy_delay=3)
        agent = TD3Agent(easy_env.state_dim, easy_env.action_dim, config)
        agent.train(easy_env, episodes=2, max_iterations=12)
        n_critic = len(agent.history.critic_losses)
        n_actor = len(agent.history.actor_objectives)
        assert n_critic == agent.updates_applied
        assert n_actor == agent.updates_applied // 3
        assert 0 < n_actor < n_critic


class TestSACSemantics:
    def test_temperature_is_learned(self, easy_env):
        agent = _trained("sac", easy_env)
        assert agent.updates_applied > 0
        initial = np.log(agent.config.init_alpha)
        assert agent.temperature.log_alpha.data[0] != pytest.approx(initial)
        assert agent.temperature.alpha > 0

    def test_stochastic_exploration_without_noise_process(self, easy_env):
        agent = make_agent("sac", easy_env.state_dim, easy_env.action_dim,
                           _fast_config("sac"))
        assert agent.noise is None
        state = easy_env.reset()
        draws = {tuple(agent.act(state, explore=True)) for _ in range(4)}
        assert len(draws) > 1  # sampling, not a deterministic policy
        greedy = [agent.act(state, explore=False) for _ in range(2)]
        np.testing.assert_array_equal(greedy[0], greedy[1])


class TestStateDictRoundtrip:
    """state_dict/load_state_dict must cover twins, targets, temperature."""

    @pytest.mark.parametrize("name", AGENTS)
    def test_roundtrip_reproduces_policy(self, easy_env, name):
        trained = _trained(name, easy_env)
        state = trained.state_dict()
        fresh = make_agent(name, easy_env.state_dim, easy_env.action_dim,
                           _fast_config(name))
        fresh.load_state_dict(state)
        probe = easy_env.reset()
        np.testing.assert_array_equal(
            trained.policy_weights(probe), fresh.policy_weights(probe)
        )
        for key, value in fresh.state_dict().items():
            np.testing.assert_array_equal(value, state[key])

    def test_td3_state_covers_twin_and_target_critics(self, easy_env):
        state = _trained("td3", easy_env).state_dict()
        prefixes = {key.split(".")[0] for key in state}
        assert prefixes == {
            "actor", "critic", "target_actor", "target_critic",
            "critic2", "target_critic2",
        }

    def test_sac_state_covers_temperature(self, easy_env):
        state = _trained("sac", easy_env).state_dict()
        prefixes = {key.split(".")[0] for key in state}
        assert prefixes == {
            "actor", "critic", "critic2", "target_critic",
            "target_critic2", "temperature",
        }
        assert "temperature.log_alpha" in state


class TestCheckpointContract:
    @pytest.mark.parametrize("name", AGENTS)
    def test_restored_agent_trains_bit_identically(self, easy_env, name):
        trained = _trained(name, easy_env)
        arrays, meta = trained.checkpoint_state()
        assert meta["kind"] == name

        restored = make_agent(name, easy_env.state_dim, easy_env.action_dim,
                              _fast_config(name), init_weights=False)
        restored.restore_checkpoint_state(arrays, meta)
        trained.train(easy_env, episodes=1, max_iterations=10)
        restored.train(easy_env, episodes=1, max_iterations=10)
        for key, value in restored.state_dict().items():
            np.testing.assert_array_equal(value, trained.state_dict()[key])
        assert restored.history.episode_rewards == \
            trained.history.episode_rewards

    def test_kind_mismatch_rejected(self, easy_env):
        arrays, meta = _trained("td3", easy_env).checkpoint_state()
        wrong = make_agent("sac", easy_env.state_dim, easy_env.action_dim,
                           _fast_config("sac"), init_weights=False)
        with pytest.raises(CheckpointError):
            wrong.restore_checkpoint_state(arrays, meta)

    def test_legacy_meta_without_kind_is_ddpg(self, easy_env):
        trained = _trained("ddpg", easy_env)
        arrays, meta = trained.checkpoint_state()
        del meta["kind"]  # snapshots written before the registry existed
        restored = make_agent("ddpg", easy_env.state_dim,
                              easy_env.action_dim, _fast_config("ddpg"),
                              init_weights=False)
        restored.restore_checkpoint_state(arrays, meta)
        probe = easy_env.reset()
        np.testing.assert_array_equal(
            restored.policy_weights(probe), trained.policy_weights(probe)
        )


class TestCloneForSession:
    @pytest.mark.parametrize("name", AGENTS)
    def test_clone_copies_weights_resets_learning_state(self, easy_env,
                                                        name):
        template = _trained(name, easy_env)
        clone = template.clone_for_session(99)
        probe = easy_env.reset()
        np.testing.assert_array_equal(
            clone.policy_weights(probe), template.policy_weights(probe)
        )
        assert clone.config.seed == 99
        assert len(clone.buffer) == 0
        assert clone.updates_applied == 0
        assert clone.history.n_episodes == 0

    @pytest.mark.parametrize("name", AGENTS)
    def test_clone_config_override(self, easy_env, name):
        template = _trained(name, easy_env)
        small = replace(template.config, buffer_capacity=16)
        clone = template.clone_for_session(7, config=small)
        assert clone.buffer.capacity == 16
        assert clone.config.seed == 7
