"""Shared fixtures for the serving test suite.

Model fits are slow relative to serving logic, so the fitted estimator
and its bundle are module-agnostic session fixtures built from cheap
pool members; tests derive fresh sessions/stores/services from them.
"""

from __future__ import annotations

import contextlib
import threading
import time

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


def observe_subtree_names(trace) -> set:
    """Span names under the request's ``service.observe`` span.

    Asserts first that the trace is one tree: a single root and no
    span whose parent is missing, so the served work (``store.*``,
    ``pool.eval``, ``actor.forward``) sits in the request's own trace.
    """
    assert trace.orphans == 0
    assert [s for s in trace.spans if s.parent_id is None] == [trace.root]
    (observe,) = [
        s for s in trace.children(trace.root) if s.name == "service.observe"
    ]
    names, frontier = set(), [observe]
    while frontier:
        frontier = [c for s in frontier for c in trace.children(s)]
        names.update(c.name for c in frontier)
    return names


@contextlib.contextmanager
def gate_held(batcher, waiters: int = 0):
    """Hold ``batcher``'s gate from a helper thread, with ``waiters``
    more requests parked behind it, until the block exits."""
    entered, release = threading.Event(), threading.Event()

    def hold():
        entered.set()
        return release.wait(timeout=10)

    holder = threading.Thread(target=batcher.submit, args=(hold,))
    holder.start()
    assert entered.wait(timeout=5)
    parked = [
        threading.Thread(target=batcher.submit, args=(lambda: None,))
        for _ in range(waiters)
    ]
    try:
        for thread in parked:
            thread.start()
        give_up = time.monotonic() + 5
        while batcher.depth < waiters:
            assert time.monotonic() < give_up, "waiters never parked"
            time.sleep(0.001)
        yield
    finally:
        release.set()
        for thread in [holder, *parked]:
            thread.join(timeout=5)
            assert not thread.is_alive()
