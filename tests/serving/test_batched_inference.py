"""The service's group pass vs the serial session step.

Every served ``observe`` runs through ``ForecastService._observe_batch``.
It must be a pure performance transform of ``SeriesSession.observe``:
byte-for-byte the same forecasts, session steps and checkpoint arrays as
twin sessions built with ``ModelBundle.create_session`` and stepped one
at a time. Repeated session ids run in waves (arrival order kept),
acquire failures are per-slot outcomes, and a stack construction failure
takes the per-slot policy call. Comparisons are bitwise — ``==`` /
``array_equal`` — never ``allclose``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import SessionNotFoundError
from repro.serving import ForecastService, ServiceConfig
from repro.testing import corrupt_all_snapshots


def make_service(bundle, tmp_path, name, **overrides):
    config = dict(
        max_sessions=16,
        spill_dir=str(tmp_path / name),
        batch_wait=0.01,
        batch_size=16,
    )
    config.update(overrides)
    return ForecastService(bundle, ServiceConfig(**config))


@pytest.fixture
def service(bundle, tmp_path):
    svc = make_service(bundle, tmp_path, "batched")
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


def concurrent_observe(service, ids, value):
    """Submit one observe per session at the same instant (coalesces)."""
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
        self, service, bundle, series
    ):
        """Lockstep fleets; a level shift forces drift-triggered policy
        updates mid-run, so batches straddle weight changes."""
        ids = [f"t-{i}" for i in range(6)]
        twins = open_sessions(service, bundle, ids, series[:200])
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
        assert service.batcher.grouped_requests == 25 * len(ids)
        assert_checkpoints_equal(service, twins)

    def test_singleton_request_runs_through_group(
        self, service, bundle, series
    ):
        """A lone observe takes the group pass, bitwise equal to the
        serial step over many steps."""
        twins = open_sessions(service, bundle, ["solo"], series[:200])
        steps = 30
        for step in range(steps):
            value = float(series[200 + step])
            resp = service.observe("solo", value)
            assert_matches_twin(resp, twins["solo"], value)
        assert service.batcher.grouped_dispatches == steps
        assert service.batcher.grouped_requests == steps
        assert_checkpoints_equal(service, twins)


class TestFallbacks:
    """Drive ``_observe_batch`` directly: deterministic batch shapes."""

    def test_duplicate_session_ids_serialise_in_arrival_order(
        self, service, bundle, series, monkeypatch
    ):
        waves = []
        run_wave = service._observe_wave

        def counting(payloads, outcomes, wave):
            waves.append([payloads[i][0] for i in wave])
            return run_wave(payloads, outcomes, wave)

        monkeypatch.setattr(service, "_observe_wave", counting)
        cases = [
            (["dup", "other", "dup"], [["dup", "other"], ["dup"]]),
            (["A", "B", "A", "A"], [["A", "B"], ["A"], ["A"]]),
        ]
        for order, expected_waves in cases:
            waves.clear()
            twins = open_sessions(
                service, bundle, sorted(set(order)), series[:200]
            )
            values = [float(series[200 + k]) for k in range(len(order))]
            outcomes = service._observe_batch(
                [(sid, v, None) for sid, v in zip(order, values)]
            )
            assert waves == expected_waves
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
        self, service, series
    ):
        service.create_session("alive", series[:200])
        outcomes = service._observe_batch([
            ("alive", float(series[200]), None),
            ("ghost", float(series[200]), None),
        ])
        assert outcomes[0]["session"] == "alive"
        assert isinstance(outcomes[1], SessionNotFoundError)

    def test_degraded_session_takes_fallback_path(
        self, bundle, tmp_path, series
    ):
        spill = tmp_path / "degraded"
        service = make_service(
            bundle, tmp_path, "degraded", degraded_mode=True
        )
        try:
            twins = open_sessions(
                service, bundle, ["victim", "h1", "h2"], series[:200]
            )
            assert service.store.spill_all() >= 1
            assert corrupt_all_snapshots(spill / "victim") >= 1
            value = float(series[200])
            outcomes = service._observe_batch([
                ("victim", value, None),
                ("h1", value, None),
                ("h2", value, None),
            ])
            assert outcomes[0]["degraded"] is True
            for got, sid in zip(outcomes[1:], ("h1", "h2")):
                assert got["degraded"] is False
                assert_matches_twin(got, twins[sid], value)
        finally:
            service.shutdown()

    def test_stack_failure_falls_back_bit_identical(
        self, service, bundle, series, monkeypatch
    ):
        """A stacked-pass construction failure must degrade to the
        per-slot policy call, not to wrong answers."""
        ids = [f"s-{i}" for i in range(4)]
        twins = open_sessions(service, bundle, ids, series[:200])

        from repro.rl import DDPGAgent

        def unstackable(actors):
            raise RuntimeError("heterogeneous agents")

        monkeypatch.setattr(
            DDPGAgent, "stack_actor_params", staticmethod(unstackable)
        )
        value = float(series[200])
        outcomes = service._observe_batch(
            [(sid, value, None) for sid in ids]
        )
        for got, sid in zip(outcomes, ids):
            assert_matches_twin(got, twins[sid], value)

    def test_seq_idempotency_through_batched_path(self, service, series):
        service.create_session("seq", series[:200])
        value = float(series[200])
        first = service._observe_batch([("seq", value, 1)])[0]
        replay = service._observe_batch([("seq", value, 1)])[0]
        assert replay["duplicate"] is True
        assert np.float64(replay["forecast"]) == np.float64(
            first["forecast"]
        )
        assert replay["step"] == first["step"]
