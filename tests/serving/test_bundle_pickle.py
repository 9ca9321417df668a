"""A guarded bundle survives pickling with its serving behaviour intact.

Shard workers started without fork receive the served
:class:`ModelBundle` pickled. A guarded pool carries live OS resources
(each guard's timeout thread pool, the health registry's lock), so
``GuardedForecaster.__getstate__`` and ``PoolHealth.__getstate__`` /
``__setstate__`` drop and recreate them. These tests pin that the copy
pickles and then forecasts bit-identically to the original.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import EADRL
from repro.runtime import PoolHealth, RuntimeGuardConfig
from repro.runtime.guards import GuardedForecaster
from repro.serving import ModelBundle
from tests.serving.conftest import cheap_members, quick_config


@pytest.fixture(scope="module")
def guarded_bundle(series) -> ModelBundle:
    model = EADRL(
        models=cheap_members(),
        config=quick_config(runtime_guards=RuntimeGuardConfig(
            timeout=5.0, timeout_mode="thread",
        )),
    )
    model.fit(series[:180])
    bundle = ModelBundle.from_estimator(model, mode="drift")
    # One served step leaves every guard a live timeout thread pool.
    bundle.pool.predict_next_with_mask(series[:180])
    return bundle


def test_guarded_bundle_pickles(guarded_bundle):
    members = guarded_bundle.pool.models
    assert members and all(isinstance(m, GuardedForecaster) for m in members)
    assert all(m._executor is not None for m in members)
    copy = pickle.loads(pickle.dumps(guarded_bundle))
    health = copy.pool.health()
    assert isinstance(health, PoolHealth)
    assert all(m.health is health for m in copy.pool.models)
    assert all(m._executor is None for m in copy.pool.models)


def test_copy_forecasts_bitwise_like_original(guarded_bundle, series):
    copy = pickle.loads(pickle.dumps(guarded_bundle))
    history = series[:200]
    original_session = guarded_bundle.create_session("tenant", history)
    copy_session = copy.create_session("tenant", history)
    for y in series[200:215]:
        a = original_session.observe(float(y))
        b = copy_session.observe(float(y))
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    assert (
        np.float64(original_session.predict()).tobytes()
        == np.float64(copy_session.predict()).tobytes()
    )
