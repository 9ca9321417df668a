"""ForecastService: operations, overload behaviour, breaker, shutdown."""

from __future__ import annotations


import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.serving import (
    ForecastService,
    SeriesSession,
    ServiceConfig,
    ShardSupervisor,
    make_service,
)
from tests.serving.conftest import gate_held


@pytest.fixture()
def service(bundle, tmp_path):
    svc = ForecastService(
        bundle,
        ServiceConfig(max_sessions=8, spill_dir=str(tmp_path)),
    )
    yield svc
    svc.shutdown()


class TestConfig:
    def test_process_executor_needs_shards(self):
        # "process" is no in-process backend; it is accepted only beside
        # shards >= 1, which alone selects the shard runtime.
        with pytest.raises(ConfigurationError, match="shards"):
            ServiceConfig(executor="process", shards=0).validate()
        ServiceConfig(executor="process", shards=2).validate()
        # The field selects nothing, but unknown names are still refused.
        with pytest.raises(ConfigurationError, match="executor"):
            ServiceConfig(executor="gpu").validate()

    def test_forecast_service_rejects_shards(self, bundle):
        with pytest.raises(ConfigurationError, match="make_service"):
            ForecastService(bundle, ServiceConfig(shards=2))

    def test_supervisor_rejects_zero_shards(self, bundle, tmp_path):
        with pytest.raises(ConfigurationError, match="shards"):
            ShardSupervisor(
                bundle, ServiceConfig(shards=0, spill_dir=str(tmp_path))
            )

    def test_make_service_selects_runtime_by_shards(self, bundle, tmp_path):
        plain = make_service(bundle, ServiceConfig(spill_dir=str(tmp_path)))
        try:
            assert isinstance(plain, ForecastService)
        finally:
            plain.shutdown()
        # The exact keyword set the ledger benchmark's server passes.
        sharded = make_service(bundle, ServiceConfig(
            executor="process", shards=2, spill_dir=str(tmp_path / "sup"),
        ))
        try:
            assert isinstance(sharded, ShardSupervisor)
            assert sharded.n_shards == 2
        finally:
            sharded.shutdown()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_sessions=0), dict(deadline=0.0), dict(breaker_threshold=0)],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs).validate()


class TestOperations:
    def test_full_request_cycle(self, service, series):
        info = service.create_session("cycle", series[:180])
        assert info["step"] == 0
        out = service.observe("cycle", float(series[180]))
        assert out["session"] == "cycle" and out["step"] == 1
        assert np.isfinite(out["forecast"])
        peek = service.predict("cycle")
        assert peek["forecast"] == service.predict("cycle")["forecast"]
        assert service.session_info("cycle")["step"] == 1
        service.close_session("cycle")
        with pytest.raises(SessionNotFoundError):
            service.observe("cycle", 1.0)

    def test_duplicate_session_conflicts(self, service, series):
        service.create_session("dup", series[:180])
        with pytest.raises(SessionExistsError):
            service.create_session("dup", series[:180])

    def test_observe_matches_direct_session(self, bundle, service, series):
        """The batched path adds no numeric difference."""
        direct = bundle.create_session("ref", series[:180])
        service.create_session("ref", series[:180])
        for value in series[180:200]:
            via_service = service.observe("ref", float(value))["forecast"]
            assert via_service == direct.observe(value)

    def test_sequence_numbers_are_idempotent(self, service, series):
        service.create_session("seq", series[:180])
        first = service.observe("seq", float(series[180]), seq=1)
        assert first["step"] == 1 and "duplicate" not in first
        # Retrying the acknowledged seq returns the cached response
        # without advancing the session (exactly-once under retries).
        replay = service.observe("seq", float(series[180]), seq=1)
        assert replay["duplicate"] is True
        assert replay["forecast"] == first["forecast"]
        assert service.session_info("seq")["step"] == 1
        nxt = service.observe("seq", float(series[181]), seq=2)
        assert nxt["step"] == 2

    def test_stale_and_gapped_sequences_rejected(self, service, series):
        from repro.exceptions import DataValidationError

        service.create_session("gap", series[:180])
        service.observe("gap", float(series[180]), seq=5)
        with pytest.raises(DataValidationError, match="stale"):
            service.observe("gap", float(series[181]), seq=3)
        with pytest.raises(DataValidationError, match="gap"):
            service.observe("gap", float(series[181]), seq=9)
        assert service.session_info("gap")["step"] == 1

    def test_ack_ledger_survives_spill_and_restore(
        self, bundle, series, tmp_path
    ):
        svc = ForecastService(
            bundle,
            ServiceConfig(
                max_sessions=8, spill_dir=str(tmp_path), durable=True
            ),
        )
        try:
            svc.create_session("led", series[:180])
            acked = svc.observe("led", float(series[180]), seq=1)
            svc.store.spill_all()
            # Restored from disk: the duplicate is still recognised.
            replay = svc.observe("led", float(series[180]), seq=1)
            assert replay["duplicate"] is True
            assert replay["forecast"] == acked["forecast"]
        finally:
            svc.shutdown()

    def test_observe_accepts_deadline_budget(self, service, series):
        service.create_session("dl", series[:180])
        out = service.observe("dl", float(series[180]), deadline=1.5)
        assert out["step"] == 1
        peek = service.predict("dl", deadline=1.5)
        assert np.isfinite(peek["forecast"])

    def test_health_and_stats(self, service, series):
        health = service.health()
        assert health["status"] == "ok" and health["breaker"] == "closed"
        service.create_session("h1", series[:180])
        stats = service.stats()
        assert stats["sessions"]["resident"] == 1
        assert stats["queue_limit"] == service.config.queue_limit


class TestOverload:
    def test_queue_full_maps_to_overload(self, bundle, series, tmp_path):
        svc = ForecastService(
            bundle,
            ServiceConfig(
                max_sessions=8,
                spill_dir=str(tmp_path),
                queue_limit=1,
                deadline=5.0,
            ),
        )
        try:
            svc.create_session("slow", series[:180])
            # One request runs, one waits: the limit of one is reached.
            with gate_held(svc.batcher, waiters=1):
                with pytest.raises(ServiceOverloadedError):
                    svc.observe("slow", 1.0)
        finally:
            svc.shutdown()


class TestBreaker:
    def test_client_errors_never_trip_breaker(self, service, series):
        service.create_session("ok", series[:180])
        for i in range(service.config.breaker_threshold + 2):
            with pytest.raises(SessionNotFoundError):
                service.observe("missing", 1.0)
        assert service.health()["breaker"] == "closed"
        # Service still serves good requests.
        assert np.isfinite(
            service.observe("ok", float(series[180]))["forecast"]
        )

    def test_internal_errors_trip_breaker(self, service, series, monkeypatch):
        service.create_session("victim", series[:180])

        def corrupted(self, y):
            raise RuntimeError("simulated internal fault")

        monkeypatch.setattr(SeriesSession, "begin_observe", corrupted)
        for _ in range(service.config.breaker_threshold):
            with pytest.raises(RuntimeError):
                service.observe("victim", 1.0)
        assert service.health()["status"] == "unavailable"
        assert service.health()["breaker"] == "open"
        with pytest.raises(ServiceUnavailableError, match="breaker"):
            service.observe("victim", 1.0)


class TestShutdown:
    def test_shutdown_spills_and_refuses(self, bundle, series, tmp_path):
        svc = ForecastService(
            bundle, ServiceConfig(max_sessions=8, spill_dir=str(tmp_path))
        )
        svc.create_session("s1", series[:180])
        svc.observe("s1", float(series[180]))
        summary = svc.shutdown()
        assert summary["spilled"] == 1
        with pytest.raises(ServiceUnavailableError):
            svc.observe("s1", 1.0)
        assert svc.health()["shutting_down"] is True
        # Idempotent.
        assert svc.shutdown()["repeat"] is True

    def test_sessions_survive_service_restart(self, bundle, series, tmp_path):
        first = ForecastService(
            bundle, ServiceConfig(max_sessions=8, spill_dir=str(tmp_path))
        )
        first.create_session("durable", series[:180])
        before = first.observe("durable", float(series[180]))
        first.shutdown()

        second = ForecastService(
            bundle, ServiceConfig(max_sessions=8, spill_dir=str(tmp_path))
        )
        try:
            info = second.session_info("durable")
            assert info["step"] == before["step"]
            out = second.observe("durable", float(series[181]))
            assert np.isfinite(out["forecast"]) and out["step"] == 2
        finally:
            second.shutdown()
