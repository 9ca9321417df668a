"""Observability core: metrics, span tracing, run events, logging.

Dependency-free (stdlib + numpy) telemetry for the EA-DRL runtime:

- :class:`MetricsRegistry` — thread-safe counters, gauges, and
  fixed-bucket histograms with p50/p95/p99 summaries, bounded per-name
  series cardinality, and mergeable snapshots
  (:mod:`repro.obs.registry`);
- :data:`OBS` / :func:`configure` / :func:`session` — the process-global
  telemetry session with a one-attribute-check no-op fast path
  (:mod:`repro.obs.telemetry`);
- :data:`TRACER` / ``OBS.span(name)`` / :class:`TraceAssembler` — the
  one span model: nested wall-clock spans on one thread-local stack that
  feed ``repro_span_seconds``, are written as JSONL span records (a
  serve ``--trace-dir`` or the ``--trace PATH`` file), propagate across
  processes via ``X-Trace-Id`` / the RPC envelope, and are
  assembled offline into timelines (:mod:`repro.obs.trace`,
  ``repro trace`` CLI);
- :class:`JsonlSink` / :class:`PromTextSink` / :class:`MemorySink` —
  pluggable outputs (:mod:`repro.obs.sinks`);
- :func:`get_logger` / :func:`configure_logging` — the stdlib-logging
  wrapper used by library code instead of ``print``
  (:mod:`repro.obs.log`).

See ``docs/observability.md`` for the metric catalogue, the span
model, sink formats, and measured overhead.
"""

from repro.obs.log import configure_logging, get_logger, resolve_level
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    FAST_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    render_prom_snapshot,
    render_prom_text,
    sanitize_metric_name,
)
from repro.obs.sinks import JsonlSink, MemorySink, PromTextSink, Sink
from repro.obs.telemetry import (
    OBS,
    PeriodicFlusher,
    Telemetry,
    TelemetryConfig,
    configure,
    enabled,
    session,
    shutdown,
)
from repro.obs.trace import (
    NOOP_TRACE_SPAN,
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    TRACER,
    AssembledTrace,
    Span,
    SpanRecord,
    TraceAssembler,
    TraceContext,
    Tracer,
    assemble_trace_dir,
    iter_trace_records,
)

__all__ = [
    "AssembledTrace",
    "Counter",
    "DEFAULT_BUCKETS",
    "FAST_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NOOP_TRACE_SPAN",
    "OBS",
    "PARENT_SPAN_HEADER",
    "PeriodicFlusher",
    "PromTextSink",
    "Sink",
    "Span",
    "SpanRecord",
    "TRACE_ID_HEADER",
    "TRACER",
    "Telemetry",
    "TelemetryConfig",
    "TraceAssembler",
    "TraceContext",
    "Tracer",
    "assemble_trace_dir",
    "configure",
    "configure_logging",
    "enabled",
    "get_logger",
    "iter_trace_records",
    "merge_snapshots",
    "render_prom_snapshot",
    "render_prom_text",
    "resolve_level",
    "sanitize_metric_name",
    "session",
    "shutdown",
]
