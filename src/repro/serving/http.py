"""Stdlib JSON-over-HTTP frontend for :class:`ForecastService`.

A thin, dependency-free adapter: every route parses JSON, calls one
service operation, and maps the service's failure taxonomy onto status
codes. All forecasting semantics (admission control, deadlines,
breaker, metrics) live in the service — the HTTP layer adds nothing but
transport.

Routes
------

==============================================  ======================
``POST   /v1/sessions``                         create a session
``POST   /v1/sessions/<id>/observe``            feed ``y_t``, get forecast
``GET    /v1/sessions/<id>/predict``            peek without advancing
``GET    /v1/sessions/<id>``                    session description
``DELETE /v1/sessions/<id>``                    close the session
``GET    /healthz``                             liveness (200/503)
``GET    /stats``                               service counters
``GET    /metrics``                             Prometheus text format
==============================================  ======================

The shard count of a supervised runtime is not an HTTP operation:
restart the server with a new ``--shards`` to change it.

Create body: ``{"session": "id", "history": [..], "mode"?, "interval"?,
"updates_per_trigger"?, "seed"?}``. Observe body: ``{"y": <number>,
"seq"?: <int>, "deadline"?: <seconds>}`` — ``seq`` is the per-session
sequence number making the observe idempotent under retries;
``deadline`` (or the ``X-Deadline-Seconds`` header, body wins) is the
client's remaining end-to-end budget, propagated through every hop.

Status mapping: 400 bad JSON / validation, 404 unknown session, 409
duplicate create, 429 queue full (back off), 503 deadline missed /
breaker open / shutting down / corrupt session state (with a
``Retry-After`` header), 500 anything else. Degraded responses (corrupt
checkpoint served from the ensemble-average fallback) are **200** with
``"degraded": true`` in the body.

Tracing: when the service runs with a ``trace_dir``, every request gets
a root ``http.request`` span, with ``http.decode`` (body read and JSON
parse) and ``http.encode`` (JSON encode and response write) children
so the frontend's own time is attributed. A client may supply its own trace id via
the ``X-Trace-Id`` header (hex, 8–32 chars; malformed ids are ignored
and a fresh trace minted); the effective id is echoed back in the
response's ``X-Trace-Id`` header either way, ready for ``repro trace``.
Behind a :class:`~repro.serving.supervisor.ShardSupervisor`,
``/metrics`` merges per-shard worker registries into one exposition and
``/healthz`` carries per-shard worker state.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    ServingError,
    SessionCorruptError,
    SessionExistsError,
    SessionNotFoundError,
    WorkerCrashedError,
)
from repro.obs import OBS, get_logger, render_prom_text
from repro.obs.trace import NOOP_TRACE_SPAN, TRACE_ID_HEADER, TRACER
from repro.serving.service import ForecastService

_LOG = get_logger("serving.http")

_MAX_BODY_BYTES = 8 * 1024 * 1024


def _status_for(error: BaseException) -> int:
    # Order matters: the retryable subtypes must be matched before the
    # ServingError catch-all turns them into client errors.
    if isinstance(error, ServiceOverloadedError):
        return 429
    if isinstance(error, (SessionCorruptError, DeadlineExceededError,
                          ServiceUnavailableError, WorkerCrashedError)):
        return 503
    if isinstance(error, SessionNotFoundError):
        return 404
    if isinstance(error, SessionExistsError):
        return 409
    if isinstance(error, (DataValidationError, ConfigurationError,
                          ServingError)):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    """One request; the service reference hangs off the server object."""

    server_version = "repro-serving/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ForecastService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _LOG.debug("%s %s", self.address_string(), format % args)

    def _ingress(self):
        """Root span of the request's distributed trace.

        Ingress either adopts a (well-formed) client ``X-Trace-Id`` or
        mints a fresh trace; the id is echoed on the response so callers
        can find their timeline with ``repro trace`` either way.
        """
        self._trace_ctx = None
        if not TRACER.enabled:
            return NOOP_TRACE_SPAN
        span = TRACER.span(
            "http.request",
            parent=TRACER.from_headers(self.headers),
            method=self.command,
            path=self.path.split("?", 1)[0],
        )
        self._trace_ctx = span.ctx
        return span

    def _send_json(
        self, status: int, payload: Any, headers: Optional[dict] = None
    ) -> None:
        with TRACER.child_span("http.encode"):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            ctx = getattr(self, "_trace_ctx", None)
            if ctx is not None:
                self.send_header(TRACE_ID_HEADER, ctx.trace_id)
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

    def _send_error_json(self, error: BaseException) -> None:
        status = _status_for(error)
        if status == 500:
            _LOG.error("internal error serving %s: %r", self.path, error)
        payload = {"error": type(error).__name__, "detail": str(error)}
        headers = None
        if isinstance(error, ServiceOverloadedError):
            # Back-off derived by the admission gate: roughly when
            # the requests waiting ahead will have run.
            payload["retry_after"] = error.retry_after
            headers = {"Retry-After": f"{error.retry_after:g}"}
        if isinstance(error, SessionCorruptError):
            # Typed 503: the session's state is corrupt, not the
            # service — tell the client when to retry.
            payload["retry_after"] = error.retry_after
            payload["session"] = error.session_id
            headers = {"Retry-After": f"{error.retry_after:g}"}
        self._send_json(status, payload, headers)

    def _deadline_seconds(self, body: Optional[dict] = None):
        """Client deadline budget: body ``deadline`` wins over the
        ``X-Deadline-Seconds`` header; None when neither is given."""
        if body is not None and "deadline" in body:
            value = body["deadline"]
            if not isinstance(value, (int, float)) or value <= 0:
                raise DataValidationError(
                    "'deadline' must be a positive number of seconds"
                )
            return float(value)
        header = self.headers.get("X-Deadline-Seconds")
        if header:
            try:
                value = float(header)
            except ValueError:
                raise DataValidationError(
                    "X-Deadline-Seconds must be a number"
                ) from None
            if value <= 0:
                raise DataValidationError(
                    "X-Deadline-Seconds must be positive"
                )
            return value
        return None

    def _read_json(self) -> Any:
        with TRACER.child_span("http.decode"):
            length = int(self.headers.get("Content-Length", 0) or 0)
            if length > _MAX_BODY_BYTES:
                raise DataValidationError(
                    f"request body too large ({length} bytes)"
                )
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise DataValidationError("request body must be JSON")
            try:
                return json.loads(raw)
            except json.JSONDecodeError as err:
                raise DataValidationError(
                    f"malformed JSON body: {err}"
                ) from None

    def _session_route(self) -> Tuple[Optional[str], Optional[str]]:
        """``/v1/sessions/<id>[/<action>]`` → (id, action)."""
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "sessions":
            session_id = parts[2]
            action = parts[3] if len(parts) > 3 else None
            return session_id, action
        return None, None

    # -- methods -------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        with self._ingress():
            try:
                path = self.path.split("?", 1)[0]
                if path == "/v1/sessions":
                    body = self._read_json()
                    if "session" not in body or "history" not in body:
                        raise DataValidationError(
                            "create body needs 'session' and 'history'"
                        )
                    kwargs = {
                        key: body[key]
                        for key in ("mode", "interval", "updates_per_trigger",
                                    "seed")
                        if key in body
                    }
                    info = self.service.create_session(
                        body["session"], body["history"], **kwargs
                    )
                    self._send_json(201, info)
                    return
                session_id, action = self._session_route()
                if session_id is not None and action == "observe":
                    body = self._read_json()
                    if "y" not in body or not isinstance(body["y"], (int, float)):
                        raise DataValidationError(
                            "observe body needs a numeric 'y'"
                        )
                    seq = body.get("seq")
                    if seq is not None and (
                        isinstance(seq, bool) or not isinstance(seq, int)
                    ):
                        raise DataValidationError(
                            "'seq' must be an integer sequence number"
                        )
                    self._send_json(
                        200,
                        self.service.observe(
                            session_id,
                            float(body["y"]),
                            seq=seq,
                            deadline=self._deadline_seconds(body),
                        ),
                    )
                    return
                self._send_json(404, {"error": "NotFound", "detail": self.path})
            except BaseException as err:  # noqa: BLE001 - becomes the response
                self._send_error_json(err)

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        with self._ingress():
            try:
                path = self.path.split("?", 1)[0]
                if path == "/healthz":
                    health = self.service.health()
                    self._send_json(
                        200 if health["status"] == "ok" else 503, health
                    )
                    return
                if path == "/stats":
                    self._send_json(200, self.service.stats())
                    return
                if path == "/metrics":
                    # ForecastService renders its own registry; the
                    # supervisor merges per-shard worker snapshots into
                    # one fleet-wide exposition.
                    metrics_text = getattr(
                        self.service, "metrics_text", None
                    )
                    text = (
                        metrics_text() if metrics_text is not None
                        else render_prom_text(OBS.registry)
                    )
                    body = text.encode("utf-8")
                    self.send_response(200)
                    self.send_header(
                        "Content-Type", "text/plain; version=0.0.4"
                    )
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                session_id, action = self._session_route()
                if session_id is not None and action == "predict":
                    self._send_json(
                        200,
                        self.service.predict(
                            session_id, deadline=self._deadline_seconds()
                        ),
                    )
                    return
                if session_id is not None and action is None:
                    self._send_json(200, self.service.session_info(session_id))
                    return
                self._send_json(404, {"error": "NotFound", "detail": self.path})
            except BaseException as err:  # noqa: BLE001 - becomes the response
                self._send_error_json(err)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib API
        with self._ingress():
            try:
                session_id, action = self._session_route()
                if session_id is not None and action is None:
                    self.service.close_session(session_id)
                    self._send_json(200, {"closed": session_id})
                    return
                self._send_json(404, {"error": "NotFound", "detail": self.path})
            except BaseException as err:  # noqa: BLE001 - becomes the response
                self._send_error_json(err)


class ForecastHTTPServer:
    """Threaded HTTP server wrapping a :class:`ForecastService` (or a
    :class:`~repro.serving.supervisor.ShardSupervisor` — both expose the
    same operations; build either with
    :func:`~repro.serving.supervisor.make_service`).

    ``port=0`` binds an ephemeral port (the tests use this); read the
    bound address back from :attr:`address`. ``serve_forever`` blocks —
    call :meth:`start` for a background thread instead.
    """

    def __init__(
        self,
        service: ForecastService,
        host: str = "127.0.0.1",
        port: int = 8321,
    ):
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ForecastHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serving-http",
            daemon=True,
        )
        self._thread.start()
        host, port = self.address
        _LOG.info("forecast service listening on http://%s:%d", host, port)
        return self

    def serve_forever(self) -> None:
        host, port = self.address
        _LOG.info("forecast service listening on http://%s:%d", host, port)
        self._httpd.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        """Stop accepting connections, then shut the service down."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.shutdown()
