"""Served observes vs the serial session step, for every agent.

Every served ``observe`` runs the serial ``SeriesSession.observe`` step
on its caller's thread, one request at a time through the service's
admission gate. It must give byte-for-byte the same forecasts, session steps and
checkpoint arrays as twin sessions built with
``ModelBundle.create_session`` and stepped one at a time, for DDPG, TD3
and SAC alike. Repeated session ids keep their arrival order, and a
missing or corrupt session fails or degrades only its own request.
Comparisons are bitwise — ``==`` / ``array_equal`` — never ``allclose``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import SessionCorruptError, SessionNotFoundError
from repro.serving import ForecastService, ServiceConfig
from repro.testing import corrupt_all_snapshots


@pytest.fixture(params=["ddpg", "td3", "sac"])
def agent_bundle(request, agent_bundles):
    return agent_bundles[request.param]


def make_service(bundle, tmp_path, name, **overrides):
    config = dict(max_sessions=16, spill_dir=str(tmp_path / name))
    config.update(overrides)
    return ForecastService(bundle, ServiceConfig(**config))


@pytest.fixture
def service(agent_bundle, tmp_path):
    svc = make_service(agent_bundle, tmp_path, "served")
    yield svc
    svc.shutdown()


def open_sessions(service, bundle, ids, history):
    """Create ``ids`` in ``service``; return their serial twins."""
    twins = {}
    for sid in ids:
        service.create_session(sid, history)
        twins[sid] = bundle.create_session(sid, history)
    return twins


def assert_matches_twin(response, twin, value):
    forecast = twin.observe(value)
    assert np.float64(response["forecast"]) == np.float64(forecast)
    assert response["step"] == twin.step


def assert_checkpoints_equal(service, twins):
    for sid, twin in twins.items():
        with service.store.acquire(sid) as session:
            arrays1, _ = session.checkpoint_state()
        arrays2, _ = twin.checkpoint_state()
        assert set(arrays1) == set(arrays2)
        for key in arrays1:
            assert np.array_equal(arrays1[key], arrays2[key]), (
                f"{sid}: checkpoint array {key!r} diverged"
            )


def observe_all(service, requests):
    """Serve ``(session, value, seq)`` requests in order; an exception
    is returned in its request's slot."""
    outcomes = []
    for sid, value, seq in requests:
        try:
            outcomes.append(service.observe(sid, value, seq=seq))
        except Exception as err:  # noqa: BLE001 - surfaced to the test
            outcomes.append(err)
    return outcomes


def concurrent_observe(service, ids, value):
    """Submit one observe per session at the same instant."""
    out, errors = {}, []
    barrier = threading.Barrier(len(ids))

    def client(sid):
        barrier.wait()
        try:
            out[sid] = service.observe(sid, value)
        except Exception as err:  # noqa: BLE001 - surfaced to the test
            errors.append((sid, err))

    threads = [threading.Thread(target=client, args=(s,)) for s in ids]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return out


class TestBitIdentity:
    def test_concurrent_batched_matches_serial_with_drift_updates(
        self, service, agent_bundle, series
    ):
        """Lockstep fleets; a level shift forces drift-triggered policy
        updates mid-run, so concurrent requests straddle weight
        changes."""
        ids = [f"t-{i}" for i in range(6)]
        twins = open_sessions(service, agent_bundle, ids, series[:200])
        saw_update = False
        for step in range(25):
            value = float(series[200 + step])
            if step >= 10:
                value += 6.0  # level shift → drift detector fires
            out = concurrent_observe(service, ids, value)
            for sid in ids:
                assert_matches_twin(out[sid], twins[sid], value)
                saw_update = saw_update or out[sid]["policy_update"]
        assert saw_update, "level shift never triggered a policy update"
        assert_checkpoints_equal(service, twins)

    def test_singleton_request_runs_through_group(
        self, service, agent_bundle, series
    ):
        """A lone observe is bitwise equal to the serial step over many
        steps."""
        twins = open_sessions(service, agent_bundle, ["solo"], series[:200])
        steps = 30
        for step in range(steps):
            value = float(series[200 + step])
            resp = service.observe("solo", value)
            assert_matches_twin(resp, twins["solo"], value)
        assert_checkpoints_equal(service, twins)


class TestFallbacks:
    """Serve requests one after another: a deterministic order."""

    def test_duplicate_session_ids_serialise_in_arrival_order(
        self, service, agent_bundle, series
    ):
        for order in (["dup", "other", "dup"], ["A", "B", "A", "A"]):
            twins = open_sessions(
                service, agent_bundle, sorted(set(order)), series[:200]
            )
            values = [float(series[200 + k]) for k in range(len(order))]
            outcomes = observe_all(
                service, [(sid, v, None) for sid, v in zip(order, values)]
            )
            # Bit-identical to the twins fed the same arrival order.
            for got, sid, value in zip(outcomes, order, values):
                assert_matches_twin(got, twins[sid], value)
            repeated = [o["step"] for o, s in zip(outcomes, order)
                        if s == order[0]]
            assert repeated == list(
                range(repeated[0], repeated[0] + len(repeated))
            )
            assert_checkpoints_equal(service, twins)

    def test_missing_session_fails_only_its_request(
        self, service, agent_bundle, series
    ):
        twins = open_sessions(service, agent_bundle, ["alive"], series[:200])
        value = float(series[200])
        outcomes = observe_all(service, [
            ("ghost", value, None),
            ("alive", value, None),
        ])
        assert isinstance(outcomes[0], SessionNotFoundError)
        assert_matches_twin(outcomes[1], twins["alive"], value)

    def test_degraded_session_takes_fallback_path(
        self, agent_bundle, tmp_path, series
    ):
        spill = tmp_path / "degraded"
        service = make_service(
            agent_bundle, tmp_path, "degraded", degraded_mode=True
        )
        try:
            twins = open_sessions(
                service, agent_bundle, ["victim", "h1", "h2"], series[:200]
            )
            assert service.store.spill_all() >= 1
            assert corrupt_all_snapshots(spill / "victim") >= 1
            value = float(series[200])
            outcomes = observe_all(service, [
                ("h1", value, None),
                ("victim", value, None),
                ("h2", value, None),
            ])
            assert outcomes[1]["degraded"] is True
            for got, sid in zip(outcomes[::2], ("h1", "h2")):
                assert got["degraded"] is False
                assert_matches_twin(got, twins[sid], value)
        finally:
            service.shutdown()

    def test_corrupt_session_fails_only_its_slot_without_degraded_mode(
        self, agent_bundle, tmp_path, series
    ):
        spill = tmp_path / "strict"
        service = make_service(
            agent_bundle, tmp_path, "strict", degraded_mode=False
        )
        try:
            twins = open_sessions(
                service, agent_bundle, ["victim", "h1"], series[:200]
            )
            assert service.store.spill_all() >= 1
            assert corrupt_all_snapshots(spill / "victim") >= 1
            value = float(series[200])
            outcomes = observe_all(service, [
                ("victim", value, None),
                ("h1", value, None),
            ])
            assert isinstance(outcomes[0], SessionCorruptError)
            assert_matches_twin(outcomes[1], twins["h1"], value)
        finally:
            service.shutdown()

    def test_seq_idempotency_through_batched_path(self, service, series):
        service.create_session("seq", series[:200])
        value = float(series[200])
        first = observe_all(service, [("seq", value, 1)])[0]
        replay = observe_all(service, [("seq", value, 1)])[0]
        assert replay["duplicate"] is True
        assert np.float64(replay["forecast"]) == np.float64(
            first["forecast"]
        )
        assert replay["step"] == first["step"]
        second = observe_all(service, [("seq", value, 2)])[0]
        assert second["step"] == first["step"] + 1
