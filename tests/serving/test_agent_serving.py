"""Serving registry agents: TD3 batching, SAC fallback, spill, startup.

The serving layer must treat any registered agent like DDPG: clone it
per tenant, spill/restore it bit-identically, stack its actor forward
when its class offers one (`batchable`), and call `policy_weights` per
session — not fail — when it does not (SAC's policy is a sampled
Gaussian; there is nothing deterministic to stack).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EADRL
from repro.exceptions import CheckpointError, ConfigurationError
from repro.obs import OBS, TelemetryConfig
from repro.serving import (
    ForecastService,
    ModelBundle,
    ServiceConfig,
    SessionStore,
    make_service,
)
from tests.serving.conftest import cheap_members, quick_config


@pytest.fixture(scope="module")
def agent_bundles(series):
    """One fitted estimator + bundle per registered agent."""
    bundles = {}
    for name in ("ddpg", "td3", "sac"):
        model = EADRL(models=cheap_members(),
                      config=quick_config(agent=name))
        model.fit(series[:180])
        bundles[name] = ModelBundle.from_estimator(model, mode="drift")
    return bundles


def _service(bundle, tmp_path, name, **overrides):
    config = dict(
        max_sessions=16,
        spill_dir=str(tmp_path / name),
        batch_wait=0.01,
        batch_size=16,
    )
    config.update(overrides)
    return ForecastService(bundle, ServiceConfig(**config))


class TestBundleAgentKinds:
    def test_bundle_reports_agent_name(self, agent_bundles):
        for name, bundle in agent_bundles.items():
            assert bundle.agent_name == name

    @pytest.mark.parametrize("name", ["td3", "sac"])
    def test_sessions_clone_the_registered_agent(self, agent_bundles,
                                                 series, name):
        session = agent_bundles[name].create_session("t", series[:180])
        assert type(session.agent).name == name
        out = session.observe(float(series[180]))
        assert np.isfinite(out)


class TestStartupMismatchRejection:
    def test_forecast_service_rejects_wrong_agent(self, agent_bundles,
                                                  tmp_path):
        with pytest.raises(ConfigurationError):
            _service(agent_bundles["td3"], tmp_path, "mismatch",
                     agent="ddpg")

    def test_make_service_rejects_before_shards_fork(self, agent_bundles,
                                                     tmp_path):
        with pytest.raises(ConfigurationError):
            make_service(agent_bundles["sac"], ServiceConfig(
                agent="td3", shards=2,
                spill_dir=str(tmp_path / "shards"),
            ))

    def test_matching_agent_accepted(self, agent_bundles, tmp_path):
        service = _service(agent_bundles["td3"], tmp_path, "match",
                           agent="td3")
        service.shutdown()


class TestBatchedObserveAcrossAgents:
    @pytest.mark.parametrize("name", ["td3", "sac"])
    def test_batched_observe_matches_serial(self, agent_bundles, series,
                                            tmp_path, name):
        """Group pass (stacked for TD3, per-slot policy for SAC) ≡ the
        serial step of twin sessions."""
        bundle = agent_bundles[name]
        batched = _service(bundle, tmp_path, f"{name}-batched")
        try:
            ids = [f"s-{i}" for i in range(4)]
            twins = {}
            for sid in ids:
                batched.create_session(sid, series[:200])
                twins[sid] = bundle.create_session(sid, series[:200])
            for value in series[200:210]:
                outcomes = batched._observe_batch(
                    [(sid, float(value), None) for sid in ids]
                )
                for got, sid in zip(outcomes, ids):
                    want = twins[sid].observe(float(value))
                    assert np.float64(got["forecast"]) == np.float64(want)
        finally:
            batched.shutdown()

    def test_sac_fallback_reason_is_agent_unbatched(self, agent_bundles,
                                                    series, tmp_path):
        OBS.configure(TelemetryConfig(enabled=True))
        try:
            service = _service(agent_bundles["sac"], tmp_path, "sac-obs")
            try:
                ids = ["a", "b", "c"]
                for sid in ids:
                    service.create_session(sid, series[:200])
                service._observe_batch(
                    [(sid, float(series[200]), None) for sid in ids]
                )
                fallback = OBS.registry.counter(
                    "repro_serving_batched_observe_total",
                    {"path": "fallback", "reason": "agent_unbatched"},
                )
                assert fallback.value == len(ids)
                batched = OBS.registry.counter(
                    "repro_serving_batched_observe_total",
                    {"path": "batched", "reason": "-"},
                )
                assert batched.value == 0
            finally:
                service.shutdown()
        finally:
            OBS.shutdown()

    def test_td3_takes_the_stacked_path(self, agent_bundles, series,
                                        tmp_path):
        OBS.configure(TelemetryConfig(enabled=True))
        try:
            service = _service(agent_bundles["td3"], tmp_path, "td3-obs")
            try:
                ids = ["a", "b", "c"]
                for sid in ids:
                    service.create_session(sid, series[:200])
                service._observe_batch(
                    [(sid, float(series[200]), None) for sid in ids]
                )
                batched = OBS.registry.counter(
                    "repro_serving_batched_observe_total",
                    {"path": "batched", "reason": "-"},
                )
                assert batched.value == len(ids)
            finally:
                service.shutdown()
        finally:
            OBS.shutdown()


class TestSpillBitIdentityAcrossAgents:
    @pytest.mark.parametrize("name", ["td3", "sac"])
    def test_evicted_session_resumes_bit_identically(
        self, agent_bundles, series, tmp_path, name
    ):
        bundle = agent_bundles[name]
        resident = bundle.create_session("twin", series[:180])

        store = SessionStore(bundle, capacity=2,
                             spill_dir=tmp_path / name)
        store.create("twin", series[:180])
        outs, twin_outs = [], []
        for i, value in enumerate(series[180:230]):
            if i % 7 == 3:
                for filler in ("noise-a", "noise-b", "noise-c"):
                    if filler not in store:
                        store.create(filler, series[:180])
                    with store.acquire(filler):
                        pass
            with store.acquire("twin") as session:
                outs.append(session.observe(value))
            twin_outs.append(resident.observe(value))
        assert store.stats()["evictions"] > 0
        assert store.stats()["restores"] > 0
        assert outs == twin_outs  # exact float equality, not approx

    def test_snapshot_from_other_agent_kind_rejected(self, agent_bundles,
                                                     series):
        td3_session = agent_bundles["td3"].create_session(
            "x", series[:180]
        )
        arrays, meta = td3_session.checkpoint_state()
        with pytest.raises(CheckpointError):
            agent_bundles["sac"].restore_session("x", arrays, meta)
