"""Pluggable telemetry sinks.

A sink receives two kinds of output from the active
:class:`~repro.obs.telemetry.Telemetry` session:

- ``emit(event)`` — one structured run event (a plain dict) at a time,
  in order;
- ``write_metrics(registry)`` — the final registry state at flush /
  shutdown time.

Three implementations cover the tentpole surface: :class:`JsonlSink`
(one JSON object per line — run events and span records),
:class:`PromTextSink` (Prometheus text exposition of the registry,
rewritten on every flush), and :class:`MemorySink` (in-process capture
for tests).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, List, Optional

import numpy as np

from repro.obs.registry import MetricsRegistry, render_prom_text


def _jsonify(value):
    """JSON fallback for numpy scalars/arrays in event payloads."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    return str(value)


class Sink:
    """Interface; every hook is optional for subclasses."""

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        """Receive one structured run event."""

    def write_metrics(self, registry: MetricsRegistry) -> None:
        """Receive the registry state (flush/shutdown)."""

    def flush(self) -> None:
        """Push buffered output to its destination."""

    def close(self) -> None:
        """Release resources; the sink will not be used afterwards."""


class MemorySink(Sink):
    """Captures events and metric snapshots in-process (test sink)."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self.metric_snapshots: List[dict] = []
        self.closed = False

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def write_metrics(self, registry: MetricsRegistry) -> None:
        self.metric_snapshots.append(registry.snapshot())

    def close(self) -> None:
        self.closed = True

    def events_of(self, kind: str) -> List[dict]:
        """Captured events with ``event == kind`` (helper for asserts)."""
        return [e for e in self.events if e.get("event") == kind]


class JsonlSink(Sink):
    """Structured run events as one JSON object per line."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None

    def _ensure_open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        return self._handle

    def emit(self, event: dict) -> None:
        handle = self._ensure_open()
        handle.write(json.dumps(event, default=_jsonify) + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class PromTextSink(Sink):
    """Prometheus text exposition written to a file on flush.

    The file is rewritten atomically (write to ``<path>.tmp`` + rename)
    so a scraper never observes a half-written exposition.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def write_metrics(self, registry: MetricsRegistry) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(render_prom_text(registry), encoding="utf-8")
        tmp.replace(self.path)
