"""Every pool-member family fits and rolls forward to finite forecasts.

One fit on the first 300 points of dataset 9, then 100 prequential
one-step predictions; a NaN or Inf anywhere fails the family.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load
from repro.models import (
    ARIMA,
    DecisionTreeForecaster,
    GaussianProcessForecaster,
    GradientBoostingForecaster,
    Holt,
    MARSForecaster,
    MLPForecaster,
    PLSForecaster,
    RandomForestForecaster,
    SVRForecaster,
)

FAMILIES = [
    ("arima", lambda: ARIMA(2, 0, 1)),
    ("ets_holt", lambda: Holt()),
    ("tree", lambda: DecisionTreeForecaster(5, max_depth=6)),
    ("forest", lambda: RandomForestForecaster(5, n_estimators=20, seed=0)),
    ("gbm", lambda: GradientBoostingForecaster(5, n_estimators=40, seed=0)),
    ("gp", lambda: GaussianProcessForecaster(5)),
    ("svr", lambda: SVRForecaster(5, n_iter=100)),
    ("mars", lambda: MARSForecaster(5, max_terms=8)),
    ("pls", lambda: PLSForecaster(5)),
    ("mlp", lambda: MLPForecaster(5, epochs=50, seed=0)),
]


@pytest.fixture(scope="module")
def series() -> np.ndarray:
    return load(9, n=400)


@pytest.mark.parametrize(
    "factory", [f[1] for f in FAMILIES], ids=[f[0] for f in FAMILIES]
)
def test_rolling_predictions_are_finite(series, factory):
    model = factory().fit(series[:300])
    preds = model.rolling_predictions(series, 300)
    assert preds.shape == (100,)
    assert np.all(np.isfinite(preds))
