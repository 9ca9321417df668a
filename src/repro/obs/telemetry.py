"""The process-global telemetry session and its no-op fast path.

A single :class:`Telemetry` instance (:data:`OBS`) lives for the whole
process; instrumented call sites hold a module-level reference and guard
every recording with one attribute check::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.registry.counter("repro_online_steps_total").inc()

so a telemetry-off run pays one boolean attribute read per call site and
allocates nothing. ``OBS.span(name)`` opens a span of the process's one
span model (:mod:`repro.obs.trace`) and returns a shared no-op context
manager while neither telemetry nor tracing is on. A configured session
binds its registry (``repro_span_seconds``) and sinks (span records)
to :data:`~repro.obs.trace.TRACER`.

Sessions are started with :func:`configure` (or the
:func:`session` context manager) and ended with :func:`shutdown`, which
flushes every sink — the :class:`~repro.obs.sinks.PromTextSink` writes
its exposition file there. :class:`TelemetryConfig` is the user-facing
knob, surfaced as ``EADRLConfig.telemetry`` and the CLI's
``--metrics-out/--trace/--log-level`` flags.

Determinism contract: telemetry only *reads* model state — it never
touches an RNG and never feeds a value back into a computation, so
telemetry-on runs are bit-identical to telemetry-off runs (enforced by
``tests/obs/test_determinism.py``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.exceptions import ConfigurationError
from repro.obs.log import LEVELS, configure_logging
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import JsonlSink, PromTextSink, Sink
from repro.obs.trace import TRACER


@dataclass
class TelemetryConfig:
    """User-facing telemetry switches.

    Attributes
    ----------
    enabled:
        Master switch; ``False`` keeps every call site on the no-op fast
        path even when sinks are configured.
    metrics_path:
        When set, a :class:`~repro.obs.sinks.PromTextSink` writes the
        Prometheus text exposition here at shutdown/flush.
    trace_path:
        When set, a :class:`~repro.obs.sinks.JsonlSink` streams
        structured run events and span records (one JSON object per
        line) here; ``repro trace`` reads the spans back.
    log_level:
        When set (``"debug"``/``"info"``/``"warning"``/``"error"``),
        :func:`repro.obs.configure_logging` is invoked at activation.
    flush_interval:
        When set (seconds, > 0), a :class:`PeriodicFlusher` daemon
        thread calls :meth:`Telemetry.flush` — which drives
        ``Sink.write_metrics`` on every sink — at this period, so
        long-lived processes (the forecasting service) publish metrics
        continuously instead of only at shutdown.
    """

    enabled: bool = True
    metrics_path: Optional[str] = None
    trace_path: Optional[str] = None
    log_level: Optional[str] = None
    flush_interval: Optional[float] = None

    def validate(self) -> None:
        if self.log_level is not None and self.log_level.lower() not in LEVELS:
            raise ConfigurationError(
                f"log_level must be one of {sorted(LEVELS)}, "
                f"got {self.log_level!r}"
            )
        if self.flush_interval is not None and self.flush_interval <= 0:
            raise ConfigurationError(
                f"flush_interval must be > 0 seconds, "
                f"got {self.flush_interval}"
            )


class PeriodicFlusher(threading.Thread):
    """Daemon thread flushing a telemetry session at a fixed period.

    Each tick calls :meth:`Telemetry.flush`, which pushes the current
    registry state through ``Sink.write_metrics`` and flushes buffered
    event output — a :class:`~repro.obs.sinks.PromTextSink` therefore
    republishes its exposition file continuously, not only at process
    end. Started by :meth:`Telemetry.configure` when
    ``TelemetryConfig.flush_interval`` is set (or constructed directly
    around any sink set); stopped by :meth:`Telemetry.shutdown`.
    """

    def __init__(self, telemetry: "Telemetry", interval: float):
        if interval <= 0:
            raise ConfigurationError(
                f"flusher interval must be > 0, got {interval}"
            )
        super().__init__(name="repro-obs-flusher", daemon=True)
        self.interval = float(interval)
        self.flush_count = 0
        self._telemetry = telemetry
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                self._telemetry.flush()
                self.flush_count += 1
            except Exception:  # pragma: no cover - never kill the app
                # A failing sink must not take the flusher thread down;
                # the final shutdown flush will surface persistent
                # problems to the caller.
                pass

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the thread to exit and join it (idempotent)."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)


class Telemetry:
    """One telemetry session: registry + sinks + run events."""

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.sinks: list = []
        self._seq = 0
        self._lock = threading.Lock()
        self._flusher: Optional[PeriodicFlusher] = None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def configure(
        self,
        config: Optional[TelemetryConfig] = None,
        sinks: Iterable[Sink] = (),
    ) -> "Telemetry":
        """Start a fresh session (flushing any previous one first)."""
        self.shutdown()
        new_sinks = list(sinks)
        enabled = bool(new_sinks)
        if config is not None:
            config.validate()
            if config.trace_path:
                new_sinks.append(JsonlSink(config.trace_path))
            if config.metrics_path:
                new_sinks.append(PromTextSink(config.metrics_path))
            if config.log_level:
                configure_logging(level=config.log_level)
            enabled = config.enabled
        self.registry = MetricsRegistry()
        self.sinks = new_sinks
        self._seq = 0
        self.enabled = enabled
        TRACER.bind(
            self.registry if enabled else None,
            self._write_record if enabled and self.sinks else None,
        )
        interval = config.flush_interval if config is not None else None
        if enabled and interval is not None and self.sinks:
            self._flusher = PeriodicFlusher(self, interval)
            self._flusher.start()
        return self

    def shutdown(self) -> None:
        """Flush metrics into every sink, close them, and disable.

        The registry is left readable so callers can inspect final
        values after shutdown. Safe to call when never configured.
        """
        self.enabled = False
        TRACER.bind(None, None)
        flusher, self._flusher = self._flusher, None
        if flusher is not None:
            flusher.stop()
        sinks, self.sinks = self.sinks, []
        for sink in sinks:
            sink.write_metrics(self.registry)
            sink.flush()
            sink.close()

    def flush(self) -> None:
        """Push buffered sink output (metrics exposition included)."""
        for sink in self.sinks:
            sink.write_metrics(self.registry)
            sink.flush()

    # ------------------------------------------------------------------
    # Recording primitives
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields) -> None:
        """Send one structured run event to every sink (enabled only)."""
        if not self.enabled:
            return
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "ts": round(time.time(), 6),
                     "event": kind}
            event.update(fields)
            for sink in self.sinks:
                sink.emit(event)

    def _write_record(self, record: dict) -> None:
        """Send one span record to every sink (the tracer's destination)."""
        with self._lock:
            for sink in self.sinks:
                sink.emit(record)

    #: ``with OBS.span("pool.fit"): ...`` — time a region as a span of
    #: the process's one span model (see :meth:`Tracer.open`).
    span = staticmethod(TRACER.open)


#: The process-global telemetry session. Never replaced — call sites may
#: cache a module-level reference; :func:`configure` mutates it in place.
OBS = Telemetry()


def configure(
    config: Optional[TelemetryConfig] = None, sinks: Iterable[Sink] = ()
) -> Telemetry:
    """Start a global telemetry session (see :class:`Telemetry`)."""
    return OBS.configure(config, sinks=sinks)


def shutdown() -> None:
    """End the global session, flushing and closing every sink."""
    OBS.shutdown()


def enabled() -> bool:
    """Whether the global session is currently recording."""
    return OBS.enabled


@contextmanager
def session(
    config: Optional[TelemetryConfig] = None, sinks: Iterable[Sink] = ()
):
    """Scoped global session: configures on entry, shuts down on exit."""
    telemetry = configure(config, sinks=sinks)
    try:
        yield telemetry
    finally:
        shutdown()
