"""Bit-identity of the batched inference kernels vs looped references.

The serving layer's stacked forward (`repro.nn.batched`,
`StackedActorParams`) promises *bitwise* equality with the per-tenant
path — not closeness. Every test here compares with ``==`` /
``array_equal``, never ``allclose``: a single-ulp drift is a failure,
because the spill/restore and batched/serial acceptance gates downstream
compare checkpoint bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.nn.batched import StackedLinears, relu, rowwise_softmax
from repro.nn.layers import Linear
from repro.rl.ddpg import Actor, DDPGAgent, DDPGConfig, StackedActorParams
from repro.rl.replay import Transition


def make_layers(n, n_in, n_out, seed=0, distinct=True):
    rng = np.random.default_rng(seed)
    if distinct:
        return [Linear(n_in, n_out, rng=rng, init="fanin") for _ in range(n)]
    layer = Linear(n_in, n_out, rng=rng, init="fanin")
    return [layer] * n


class TestKernels:
    def test_rowwise_softmax_matches_single_row(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(scale=3.0, size=(8, 4))
        batched = rowwise_softmax(logits)
        for i in range(logits.shape[0]):
            assert np.array_equal(batched[i], rowwise_softmax(logits[i]))

    def test_relu_matches_maximum(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 3))
        assert np.array_equal(relu(x), np.maximum(x, 0.0))


class TestStackedLinears:
    def test_distinct_layers_stack(self):
        layers = make_layers(5, 4, 3, distinct=True)
        stacked = StackedLinears.from_layers(layers)
        assert not stacked.shared
        assert stacked.weight.shape == (5, 4, 3)
        assert stacked.bias.shape == (5, 3)

    def test_shared_layer_broadcasts_without_copy(self):
        layers = make_layers(5, 4, 3, distinct=False)
        stacked = StackedLinears.from_layers(layers)
        assert stacked.shared
        assert stacked.weight.shape == (1, 4, 3)
        # Broadcast view of the live weights, not an N-way copy.
        assert stacked.weight.base is layers[0].weight.data

    def test_apply_matches_per_row_gemm(self):
        rng = np.random.default_rng(5)
        for distinct in (True, False):
            layers = make_layers(6, 8, 4, seed=7, distinct=distinct)
            stacked = StackedLinears.from_layers(layers)
            x = rng.normal(size=(6, 8))
            out = stacked.apply(x)
            for i, layer in enumerate(layers):
                serial = x[i] @ layer.weight.data + layer.bias.data
                assert np.array_equal(out[i], serial), (
                    f"row {i} diverged (distinct={distinct})"
                )


def make_actors(n, state_dim=10, action_dim=4, hidden=16, distinct=True):
    rng = np.random.default_rng(11)
    if distinct:
        return [
            Actor(state_dim, action_dim, hidden, rng) for _ in range(n)
        ]
    actor = Actor(state_dim, action_dim, hidden, rng)
    return [actor] * n


class TestStackedActorParams:
    @pytest.mark.parametrize("distinct", [True, False])
    def test_forward_matches_forward_numpy(self, distinct):
        actors = make_actors(7, distinct=distinct)
        rng = np.random.default_rng(13)
        states = rng.normal(size=(7, 10))
        params = StackedActorParams.from_actors(actors)
        batched = params.forward(states)
        for i, actor in enumerate(actors):
            serial = actor.forward_numpy(states[i][None, :])[0]
            assert np.array_equal(batched[i], serial)

    def test_shared_actor_collapses_every_layer(self):
        params = StackedActorParams.from_actors(make_actors(4, distinct=False))
        assert params.fc1.shared and params.fc2.shared and params.out.shared

    def test_mixed_sharing_stacks_only_diverged_layer(self):
        actors = make_actors(3, distinct=False)
        lone = make_actors(1)[0]
        # One tenant swaps in its own fc2: that position must stack,
        # the still-shared positions must keep broadcasting.
        actors = [actors[0], actors[1], lone]
        lone.fc1 = actors[0].fc1
        lone.out = actors[0].out
        params = StackedActorParams.from_actors(actors)
        assert params.fc1.shared and params.out.shared
        assert not params.fc2.shared

    def test_empty_stack_rejected(self):
        with pytest.raises(DataValidationError):
            StackedActorParams.from_actors([])


class TestAgentBatched:
    def make_agents(self, n, updates=0):
        agents = []
        rng = np.random.default_rng(17)
        for i in range(n):
            agent = DDPGAgent(
                6, 3, DDPGConfig(seed=100 + i, warmup_steps=4, batch_size=4)
            )
            for _ in range(updates * 3):
                s = rng.normal(size=6)
                agent.buffer.push(Transition(
                    s, agent.act(s, explore=True),
                    float(rng.normal()), rng.normal(size=6), False,
                ))
            for _ in range(updates):
                agent.update()
            agents.append(agent)
        return agents

    @pytest.mark.parametrize("updates", [0, 3])
    def test_act_batch_matches_act(self, updates):
        agents = self.make_agents(5, updates=updates)
        rng = np.random.default_rng(19)
        states = rng.normal(size=(5, 6))
        params = StackedActorParams.from_actors([a.actor for a in agents])
        batched = DDPGAgent.act_batch(states, params)
        for i, agent in enumerate(agents):
            assert np.array_equal(batched[i], agent.act(states[i]))

    def test_policy_weights_batch_matches_serial(self):
        agents = self.make_agents(5, updates=2)
        rng = np.random.default_rng(23)
        states = rng.normal(size=(5, 6))
        params = StackedActorParams.from_actors([a.actor for a in agents])
        batched = DDPGAgent.policy_weights_batch(states, params)
        for i, agent in enumerate(agents):
            serial = agent.policy_weights(states[i])
            assert np.array_equal(batched[i], serial)
            assert batched[i].sum() == pytest.approx(1.0)

    def test_act_batch_rejects_misaligned_states(self):
        agents = self.make_agents(3)
        params = StackedActorParams.from_actors([a.actor for a in agents])
        with pytest.raises(DataValidationError):
            DDPGAgent.act_batch(np.zeros((2, 6)), params)
        with pytest.raises(DataValidationError):
            DDPGAgent.act_batch(np.zeros(6), params)
