"""Shared fixtures for the serving test suite.

Model fits are slow relative to serving logic, so the fitted estimator
and its bundle are module-agnostic session fixtures built from cheap
pool members; tests derive fresh sessions/stores/services from them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EADRL, EADRLConfig
from repro.models.base import (
    MeanForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
)
from repro.models.ets import SimpleExpSmoothing
from repro.rl.ddpg import DDPGConfig
from repro.serving import ModelBundle


def cheap_members():
    return [
        NaiveForecaster(),
        MeanForecaster(),
        SeasonalNaiveForecaster(12),
        SimpleExpSmoothing(),
    ]


def quick_config(**overrides) -> EADRLConfig:
    defaults = dict(
        window=8,
        episodes=3,
        max_iterations=15,
        ddpg=DDPGConfig(seed=0, warmup_steps=16, batch_size=8),
    )
    defaults.update(overrides)
    return EADRLConfig(**defaults)


def make_series(n: int = 260, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (
        12.0
        + 0.02 * t
        + 2.5 * np.sin(2 * np.pi * t / 12)
        + rng.normal(0, 0.4, n)
    )


@pytest.fixture(scope="session")
def series() -> np.ndarray:
    return make_series()


@pytest.fixture(scope="session")
def fitted(series) -> EADRL:
    model = EADRL(models=cheap_members(), config=quick_config())
    model.fit(series[:180])
    return model


@pytest.fixture(scope="session")
def bundle(fitted) -> ModelBundle:
    return ModelBundle.from_estimator(fitted, mode="drift")


@pytest.fixture(scope="session")
def agent_bundles(series, bundle):
    """One fitted bundle per registered agent (``ddpg`` is ``bundle``)."""
    bundles = {"ddpg": bundle}
    for name in ("td3", "sac"):
        model = EADRL(models=cheap_members(),
                      config=quick_config(agent=name))
        model.fit(series[:180])
        bundles[name] = ModelBundle.from_estimator(model, mode="drift")
    return bundles


def batch_subtree_names(assembler, trace) -> set:
    """Span names under the ``batcher.batch`` span a request rode in.

    The request's ``batcher.queue`` span links to the dispatch's shared
    batch span (its own trace); the group handler's session steps run
    beneath that span.
    """
    queue = [s for s in trace.spans if s.name == "batcher.queue"]
    assert len(queue) == 1
    batch = assembler.span(queue[0].attrs["batch_span"])
    assert batch is not None and batch.name == "batcher.batch"
    batch_trace = assembler.trace(batch.trace_id)
    names, frontier = set(), [batch]
    while frontier:
        frontier = [c for s in frontier for c in batch_trace.children(s)]
        names.update(c.name for c in frontier)
    return names
