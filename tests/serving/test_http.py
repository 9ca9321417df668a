"""HTTP frontend: routes, status-code mapping, shutdown telemetry."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import OBS, MemorySink, TelemetryConfig
from repro.serving import ForecastHTTPServer, ForecastService, ServiceConfig
from tests.serving.conftest import gate_held, observe_subtree_names


@pytest.fixture()
def server(bundle, tmp_path):
    service = ForecastService(
        bundle, ServiceConfig(max_sessions=8, spill_dir=str(tmp_path))
    )
    srv = ForecastHTTPServer(service, port=0).start()
    yield srv
    srv.shutdown()


def _request(server, method, path, body=None, headers=None):
    host, port = server.address
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method
    )
    if data is not None:
        req.add_header("Content-Type", "application/json")
    for name, value in (headers or {}).items():
        req.add_header(name, value)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


def _json(server, method, path, body=None, headers=None):
    status, raw, _ = _request(server, method, path, body, headers)
    return status, json.loads(raw)


class TestRoutes:
    def test_full_session_lifecycle(self, server, series):
        status, info = _json(server, "POST", "/v1/sessions", {
            "session": "web", "history": series[:180].tolist(),
        })
        assert status == 201 and info["step"] == 0

        status, out = _json(
            server, "POST", "/v1/sessions/web/observe",
            {"y": float(series[180])},
        )
        assert status == 200 and out["step"] == 1

        status, peek = _json(server, "GET", "/v1/sessions/web/predict")
        assert status == 200 and isinstance(peek["forecast"], float)

        status, desc = _json(server, "GET", "/v1/sessions/web")
        assert status == 200 and desc["session"] == "web"

        status, closed = _json(server, "DELETE", "/v1/sessions/web")
        assert status == 200 and closed == {"closed": "web"}

        status, _ = _json(server, "GET", "/v1/sessions/web")
        assert status == 404

    def test_healthz_and_stats(self, server):
        status, health = _json(server, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, stats = _json(server, "GET", "/stats")
        assert status == 200 and "sessions" in stats

    def test_metrics_is_prometheus_text(self, server, series):
        # Metrics record only while telemetry is enabled.
        OBS.configure(TelemetryConfig(enabled=True), sinks=[MemorySink()])
        try:
            _json(server, "POST", "/v1/sessions", {
                "session": "m", "history": series[:180].tolist(),
            })
            _json(server, "POST", "/v1/sessions/m/observe",
                  {"y": float(series[180])})
            status, raw, _ = _request(server, "GET", "/metrics")
            text = raw.decode()
            assert status == 200
            assert "repro_serving_request_seconds" in text
            assert "repro_serving_sessions_resident" in text
        finally:
            OBS.shutdown()


class TestErrorMapping:
    def test_duplicate_create_is_409(self, server, series):
        body = {"session": "dup", "history": series[:180].tolist()}
        assert _json(server, "POST", "/v1/sessions", body)[0] == 201
        assert _json(server, "POST", "/v1/sessions", body)[0] == 409

    def test_unknown_session_is_404(self, server):
        assert _json(
            server, "POST", "/v1/sessions/ghost/observe", {"y": 1.0}
        )[0] == 404

    @pytest.mark.parametrize("body", [
        {},                                  # missing keys
        {"session": "x"},                    # missing history
        {"session": "a/b", "history": [1]},  # invalid id
    ])
    def test_bad_create_body_is_400(self, server, body):
        assert _json(server, "POST", "/v1/sessions", body)[0] == 400

    def test_non_numeric_y_is_400(self, server, series):
        _json(server, "POST", "/v1/sessions", {
            "session": "y", "history": series[:180].tolist(),
        })
        assert _json(
            server, "POST", "/v1/sessions/y/observe", {"y": "NaNish"}
        )[0] == 400

    def test_unknown_route_is_404(self, server):
        assert _json(server, "GET", "/v2/nope")[0] == 404

    def test_overload_and_deadline_status_codes(self):
        from repro.exceptions import (
            DeadlineExceededError,
            ServiceOverloadedError,
            ServiceUnavailableError,
            SessionCorruptError,
            WorkerCrashedError,
        )
        from repro.serving.http import _status_for

        assert _status_for(ServiceOverloadedError(9, 8)) == 429
        assert _status_for(DeadlineExceededError(0.5)) == 503
        assert _status_for(ServiceUnavailableError("closing")) == 503
        assert _status_for(SessionCorruptError("sx")) == 503
        assert _status_for(WorkerCrashedError(1)) == 503
        assert _status_for(RuntimeError("bug")) == 500

    def test_http_429_carries_retry_after_header(
        self, bundle, series, tmp_path
    ):
        service = ForecastService(
            bundle,
            ServiceConfig(
                max_sessions=8,
                spill_dir=str(tmp_path),
                queue_limit=1,
                deadline=5.0,
            ),
        )
        srv = ForecastHTTPServer(service, port=0).start()
        try:
            _json(srv, "POST", "/v1/sessions", {
                "session": "shed", "history": series[:180].tolist(),
            })
            with gate_held(service.batcher, waiters=1):
                status, raw, headers = _request(
                    srv, "POST", "/v1/sessions/shed/observe", {"y": 1.0}
                )
            payload = json.loads(raw)
            assert status == 429
            assert payload["error"] == "ServiceOverloadedError"
            assert "Retry-After" in headers
            assert 0.05 <= float(headers["Retry-After"]) <= 5.0
            assert payload["retry_after"] == float(headers["Retry-After"])
        finally:
            srv.shutdown()


class TestDeadlineAndSeq:
    def test_observe_accepts_seq_and_is_idempotent(self, server, series):
        _json(server, "POST", "/v1/sessions", {
            "session": "sq", "history": series[:180].tolist(),
        })
        status, first = _json(
            server, "POST", "/v1/sessions/sq/observe",
            {"y": float(series[180]), "seq": 1},
        )
        assert status == 200 and first["step"] == 1
        status, replay = _json(
            server, "POST", "/v1/sessions/sq/observe",
            {"y": float(series[180]), "seq": 1},
        )
        assert status == 200 and replay["duplicate"] is True
        assert replay["forecast"] == first["forecast"]

    def test_invalid_seq_is_400(self, server, series):
        _json(server, "POST", "/v1/sessions", {
            "session": "sqbad", "history": series[:180].tolist(),
        })
        assert _json(
            server, "POST", "/v1/sessions/sqbad/observe",
            {"y": 1.0, "seq": "one"},
        )[0] == 400

    def test_deadline_body_and_header_accepted(self, server, series):
        _json(server, "POST", "/v1/sessions", {
            "session": "dl", "history": series[:180].tolist(),
        })
        status, out = _json(
            server, "POST", "/v1/sessions/dl/observe",
            {"y": float(series[180]), "deadline": 5.0},
        )
        assert status == 200 and out["step"] == 1
        status, peek = _json(
            server, "GET", "/v1/sessions/dl/predict",
            headers={"X-Deadline-Seconds": "5"},
        )
        assert status == 200 and "forecast" in peek

    def test_bad_deadline_is_400(self, server, series):
        _json(server, "POST", "/v1/sessions", {
            "session": "dlbad", "history": series[:180].tolist(),
        })
        assert _json(
            server, "POST", "/v1/sessions/dlbad/observe",
            {"y": 1.0, "deadline": -1},
        )[0] == 400
        assert _json(
            server, "GET", "/v1/sessions/dlbad/predict",
            headers={"X-Deadline-Seconds": "soon"},
        )[0] == 400


class TestCorruptSession:
    def test_corrupt_session_is_typed_503_with_retry_after(
        self, bundle, series, tmp_path
    ):
        from repro.testing import corrupt_all_snapshots

        # degraded_mode off surfaces the typed 503 instead of fallback.
        service = ForecastService(
            bundle,
            ServiceConfig(
                max_sessions=8,
                spill_dir=str(tmp_path),
                degraded_mode=False,
            ),
        )
        srv = ForecastHTTPServer(service, port=0).start()
        try:
            _json(srv, "POST", "/v1/sessions", {
                "session": "rot", "history": series[:180].tolist(),
            })
            service.store.spill_all()
            corrupt_all_snapshots(tmp_path / "rot")
            status, raw, headers = _request(
                srv, "POST", "/v1/sessions/rot/observe", {"y": 1.0}
            )
            payload = json.loads(raw)
            assert status == 503
            assert payload["error"] == "SessionCorruptError"
            assert "Retry-After" in headers
            assert float(headers["Retry-After"]) > 0
        finally:
            srv.shutdown()

    def test_degraded_mode_serves_200_with_flag(
        self, bundle, series, tmp_path
    ):
        from repro.testing import corrupt_all_snapshots

        service = ForecastService(
            bundle,
            ServiceConfig(max_sessions=8, spill_dir=str(tmp_path)),
        )
        srv = ForecastHTTPServer(service, port=0).start()
        try:
            _json(srv, "POST", "/v1/sessions", {
                "session": "deg", "history": series[:180].tolist(),
            })
            service.store.spill_all()
            corrupt_all_snapshots(tmp_path / "deg")
            status, out = _json(
                srv, "POST", "/v1/sessions/deg/observe",
                {"y": float(series[180])},
            )
            assert status == 200
            assert out["degraded"] is True and out["step"] is None
        finally:
            srv.shutdown()


class TestShutdownTelemetry:
    def test_shutdown_emits_service_shutdown_event(self, bundle, series,
                                                   tmp_path):
        sink = MemorySink()
        OBS.configure(TelemetryConfig(enabled=True), sinks=[sink])
        try:
            service = ForecastService(
                bundle,
                ServiceConfig(max_sessions=8, spill_dir=str(tmp_path)),
            )
            server = ForecastHTTPServer(service, port=0).start()
            _json(server, "POST", "/v1/sessions", {
                "session": "bye", "history": series[:180].tolist(),
            })
            _json(server, "POST", "/v1/sessions/bye/observe",
                  {"y": float(series[180])})
            server.shutdown()
            events = [
                e for e in sink.events
                if e.get("event") == "service_shutdown"
            ]
            assert events and events[0]["spilled"] == 1
            # After shutdown the server socket is closed.
            with pytest.raises(OSError):
                _json(server, "GET", "/healthz")
        finally:
            OBS.shutdown()


class TestTracing:
    def test_trace_ids_minted_adopted_and_written(
        self, bundle, series, tmp_path
    ):
        from repro.obs import assemble_trace_dir

        trace_dir = tmp_path / "traces"
        service = ForecastService(
            bundle,
            ServiceConfig(
                max_sessions=8,
                spill_dir=str(tmp_path / "spill"),
                trace_dir=str(trace_dir),
            ),
        )
        server = ForecastHTTPServer(service, port=0).start()
        pinned = "ab12cd34ef56ab78"
        try:
            status, _, headers = _request(server, "POST", "/v1/sessions", {
                "session": "tr", "history": series[:180].tolist(),
            })
            assert status == 201
            minted = headers.get("X-Trace-Id")
            assert minted and len(minted) == 16
            status, _, headers = _request(
                server, "POST", "/v1/sessions/tr/observe",
                {"y": float(series[180])},
                headers={"X-Trace-Id": pinned},
            )
            assert status == 200
            assert headers.get("X-Trace-Id") == pinned
        finally:
            server.shutdown()
        assembler = assemble_trace_dir(trace_dir)
        pinned_trace = assembler.trace(pinned)
        assert pinned_trace is not None
        root = pinned_trace.root
        assert root.name == "http.request"
        assert "service.observe" in {
            s.name for s in pinned_trace.children(root)
        }
        assert {"pool.eval", "actor.forward"} <= observe_subtree_names(
            pinned_trace
        )

    def test_untraced_service_sends_no_trace_header(self, server, series):
        status, _, headers = _request(server, "POST", "/v1/sessions", {
            "session": "plain", "history": series[:180].tolist(),
        })
        assert status == 201
        assert "X-Trace-Id" not in headers
