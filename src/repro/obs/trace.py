"""One span model for the process: timing, tracing and trace assembly.

Every timed region in repro is a :class:`Span` on :data:`TRACER`'s
thread-local stack: a ``repro forecast`` run's ``eadrl.fit`` →
``pool.fit`` / ``pool.prediction_matrix`` / ``ddpg.train``, each Alg. 1
``online.step``, and a served request's ``http.request`` →
``rpc.shard`` → ``worker.handle`` → ``store.restore``. When a span
closes:

- while telemetry is on (:data:`repro.obs.OBS`), its duration feeds the
  histogram ``repro_span_seconds{span=<name>}``;
- while it is traced, it is written as one JSON record::

      {"trace": ..., "span": ..., "parent": ..., "name": "rpc.shard",
       "process": "frontend", "pid": 123, "start": <unix s>,
       "dur": <s>, "attrs": {"shard": 2}}

Records go to one of two destinations. Under ``serve --trace-dir`` each
process appends to **its own** ``trace-<process>.<pid>.jsonl`` (no
cross-process synchronisation on the hot path; ``{"meta": ...}`` lines
carry the drop counters). Otherwise they go to the telemetry session's
sinks, so the ``--trace PATH`` file of ``repro forecast/table2/fig2/
report`` holds span records between its run events.

Two ways to open a span:

- ``OBS.span(name)`` (:meth:`Tracer.open`) — library regions. It nests
  under the span open on this thread. With none open it starts a trace
  only when the telemetry sinks are the destination; under a trace dir
  it times without writing, so library calls outside a request never
  mint orphan traces. A parent writes at most :data:`MAX_CHILDREN` such
  children, so a 2,000-step loop does not write 2,000 lines; the rest
  still feed the histogram and count in
  ``repro_obs_spans_dropped_total``.
- ``TRACER.span`` / ``child_span`` / ``record`` — request tracing.
  :class:`TraceContext` ``(trace_id, span_id, baggage)`` is minted at
  ingress (or adopted from an ``X-Trace-Id`` header) and propagated
  across thread hops (captured by the micro-batcher) and process hops (a
  ``trace`` dict on the shard RPC envelope).

:class:`TraceAssembler` reads any number of record files — skipping run
events and meta lines — and stitches per-request timelines back
together: parent/child trees across processes, wall-time coverage, a
critical-path breakdown, and links from coalesced requests to their
shared batch span. Surfaced as the ``repro trace`` CLI.

Disabled, every entry point costs one attribute read and returns
:data:`NOOP_TRACE_SPAN`. Spans only *read* program state, so traced
runs are bit-identical to untraced ones.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

#: HTTP header names for context propagation (request and response).
TRACE_ID_HEADER = "X-Trace-Id"
PARENT_SPAN_HEADER = "X-Parent-Span"

#: Ids are lowercase hex; anything else from a client is re-minted.
_ID_PATTERN = re.compile(r"^[0-9a-f]{8,32}$")

#: Spans recorded per process before further spans are dropped (and
#: counted — see ``Tracer.dropped``).
MAX_SPANS_PER_PROCESS = 200_000

#: ``OBS.span`` children a parent writes before further ones are
#: dropped (still timed into the histogram, and counted).
MAX_CHILDREN = 64

#: Sentinel for ``Tracer.span(parent=NEW_TRACE)``: force a fresh root
#: trace even when an ambient context is active (the shared batch span).
NEW_TRACE = object()


def new_id() -> str:
    """A fresh 64-bit lowercase-hex id (trace or span)."""
    return os.urandom(8).hex()


class TraceContext:
    """Immutable propagation token: which trace, under which span."""

    __slots__ = ("trace_id", "span_id", "baggage")

    def __init__(
        self,
        trace_id: str,
        span_id: Optional[str] = None,
        baggage: Optional[Mapping[str, str]] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.baggage = dict(baggage) if baggage else {}

    def child(self, span_id: str) -> "TraceContext":
        return TraceContext(self.trace_id, span_id, self.baggage)

    def to_wire(self) -> Dict[str, Any]:
        """Pipe/JSON-safe form for the shard RPC envelope."""
        wire: Dict[str, Any] = {"t": self.trace_id, "s": self.span_id}
        if self.baggage:
            wire["b"] = self.baggage
        return wire

    @classmethod
    def from_wire(cls, wire: Any) -> Optional["TraceContext"]:
        if not isinstance(wire, dict) or "t" not in wire:
            return None
        return cls(str(wire["t"]), wire.get("s"), wire.get("b"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id}, span={self.span_id})"


class _NoopSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    ctx: Optional[TraceContext] = None
    duration = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NOOP_TRACE_SPAN = _NoopSpan()


class Span:
    """One timed region on the thread's span stack.

    ``ctx`` is ``None`` for a span that is timed but not written (no
    destination, outside any request, or past its parent's child cap);
    its own ``OBS.span`` children are then not written either.
    """

    __slots__ = ("_tracer", "name", "ctx", "parent_id", "attrs", "start",
                 "duration", "children", "dropped", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        ctx: Optional[TraceContext],
        parent_id: Optional[str],
        attrs: Optional[Dict[str, Any]],
    ):
        self._tracer = tracer
        self.name = name
        #: The span's own context — children parent to ``ctx.span_id``.
        self.ctx = ctx
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = 0.0
        self.duration = 0.0
        #: ``OBS.span`` children written and dropped by the child cap.
        self.children = 0
        self.dropped = 0
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._tracer._stack().append(self)
        if self.ctx is not None:
            self.start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.duration = time.perf_counter() - self._t0
        self._tracer._close(self)
        return None


class Tracer:
    """The process's span stack, span recorder and trace destination.

    One instance (:data:`TRACER`) lives per process. :meth:`enable`
    points it at a JSONL file inside a shared trace directory (request
    tracing, :attr:`enabled`); :meth:`bind` attaches the telemetry
    session's registry and sinks. Contexts propagate implicitly down a
    thread (an open span is the ambient context) and explicitly across
    threads and processes (``current()`` → capture, ``parent=`` →
    restore).
    """

    def __init__(self) -> None:
        #: Request tracing on: a trace dir is the destination.
        self.enabled = False
        #: Spans do work at all (tracing, telemetry sinks or metrics) —
        #: the one flag ``OBS.span`` reads.
        self.live = False
        self.process = "main"
        self.path: Optional[Path] = None
        self.recorded = 0
        self.dropped = 0
        self.max_spans = MAX_SPANS_PER_PROCESS
        #: Registry fed ``repro_span_seconds`` while telemetry is on.
        self.registry = None
        self._handle = None
        #: Writes a record to the telemetry sinks (``--trace PATH``).
        self._sink_write: Optional[Callable[[Dict[str, Any]], None]] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._atexit_registered = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(
        self,
        trace_dir,
        process: str,
        *,
        max_spans: int = MAX_SPANS_PER_PROCESS,
    ) -> "Tracer":
        """Start appending this process's spans under ``trace_dir``.

        The file name embeds ``process`` and the pid, so a respawned
        shard worker (same role, new pid) never interleaves with its
        predecessor's file. A trace dir takes precedence over the
        telemetry sinks as the destination.
        """
        self.disable()
        directory = Path(trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        self.process = str(process)
        self.path = directory / f"trace-{self.process}.{os.getpid()}.jsonl"
        # Line-buffered append: one write per span, atomic enough for
        # same-file readers, nothing lost to a crash but the last line.
        self._handle = self.path.open("a", encoding="utf-8", buffering=1)
        self.recorded = 0
        self.dropped = 0
        self.max_spans = int(max_spans)
        self.enabled = self.live = True
        self._write({"meta": "tracer_start", "process": self.process,
                     "pid": os.getpid(), "ts": round(time.time(), 6)})
        if not self._atexit_registered:
            # Workers exit via os-level teardown paths; make sure the
            # drop counters still land in the file.
            atexit.register(self.disable)
            self._atexit_registered = True
        return self

    def disable(self) -> None:
        """Write the final drop-count meta line and close the trace file."""
        if not self.enabled:
            return
        self.enabled = False
        self._write(self._stop_meta())
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover - close race
                pass
        self.recorded = self.dropped = 0
        self.live = self.registry is not None

    def bind(self, registry, sink_write) -> None:
        """Attach the telemetry session (``None``, ``None`` detaches).

        ``registry`` receives ``repro_span_seconds`` and the drop
        counter; ``sink_write`` writes records to the session's sinks
        while no trace dir is enabled. Detaching writes the drop-count
        meta line to the old sinks when they received any span.
        """
        if (self._sink_write is not None and not self.enabled
                and (self.recorded or self.dropped)):
            self._sink_write(self._stop_meta())
        self.registry = registry
        self._sink_write = sink_write
        if not self.enabled:
            self.recorded = self.dropped = 0
        self.live = self.enabled or registry is not None

    def _stop_meta(self) -> Dict[str, Any]:
        return {"meta": "tracer_stop", "process": self.process,
                "pid": os.getpid(), "recorded": self.recorded,
                "dropped": self.dropped}

    # ------------------------------------------------------------------
    # Ambient context
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[TraceContext]:
        """The ambient context of this thread, if a traced span is open."""
        stack = self._stack()
        return stack[-1].ctx if stack else None

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def open(self, name: str):
        """A library span (``OBS.span``): nests under this thread's span.

        With no span open it starts a trace only when the telemetry
        sinks are the destination (the whole run is the trace); under a
        trace dir it is timed but not written. Past a parent's
        :data:`MAX_CHILDREN` written children it is timed and counted
        as dropped.
        """
        if not self.live:
            return NOOP_TRACE_SPAN
        stack = self._stack()
        ctx = parent_id = None
        if stack:
            parent = stack[-1]
            if parent.ctx is not None:
                if parent.children < MAX_CHILDREN:
                    parent.children += 1
                    ctx = parent.ctx.child(new_id())
                    parent_id = parent.ctx.span_id
                else:
                    parent.dropped += 1
        elif self._sink_write is not None and not self.enabled:
            ctx = TraceContext(new_id(), new_id())
        return Span(self, name, ctx, parent_id, None)

    def span(self, name: str, parent=None, **attrs):
        """Open a request span: child of ``parent`` (or the ambient context).

        ``parent=None`` uses the ambient context, minting a fresh root
        trace when there is none (service ingress). ``parent=NEW_TRACE``
        always mints a root (the shared batch span). Without request
        tracing this returns :data:`NOOP_TRACE_SPAN`.
        """
        if not self.enabled:
            return NOOP_TRACE_SPAN
        if parent is NEW_TRACE:
            parent_ctx = None
        else:
            parent_ctx = parent if parent is not None else self.current()
        span_id = new_id()
        if parent_ctx is None:
            ctx = TraceContext(new_id(), span_id, attrs.pop("baggage", None))
            parent_id = None
        else:
            ctx = parent_ctx.child(span_id)
            parent_id = parent_ctx.span_id
        return Span(self, name, ctx, parent_id, attrs)

    def child_span(self, name: str, **attrs):
        """A span only when a request trace is already active.

        Inner layers (store, pool, actor) use this so library calls
        outside any request never mint orphan single-span traces.
        """
        if not self.enabled or self.current() is None:
            return NOOP_TRACE_SPAN
        return self.span(name, **attrs)

    def record(
        self,
        name: str,
        ctx: TraceContext,
        *,
        start: float,
        duration: float,
        **attrs,
    ) -> None:
        """Record an after-the-fact span under ``ctx`` (queue waits)."""
        if not self.enabled:
            return
        self._record(
            name, ctx.trace_id, new_id(), ctx.span_id,
            start, duration, attrs,
        )

    # ------------------------------------------------------------------
    # Wire formats
    # ------------------------------------------------------------------
    def from_headers(self, headers) -> Optional[TraceContext]:
        """Adopt a client-supplied ``X-Trace-Id`` (ignored if invalid)."""
        trace_id = headers.get(TRACE_ID_HEADER)
        if not trace_id:
            return None
        trace_id = trace_id.strip().lower()
        if not _ID_PATTERN.match(trace_id):
            return None
        parent = headers.get(PARENT_SPAN_HEADER)
        if parent:
            parent = parent.strip().lower()
            if not _ID_PATTERN.match(parent):
                parent = None
        return TraceContext(trace_id, parent)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _close(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exit guard
            stack.remove(span)
        registry = self.registry
        if registry is not None:
            registry.histogram(
                "repro_span_seconds", {"span": span.name}
            ).observe(span.duration)
        if span.dropped:
            self._count_drops(span.dropped)
        ctx = span.ctx
        if ctx is not None:
            self._record(span.name, ctx.trace_id, ctx.span_id,
                         span.parent_id, span.start, span.duration,
                         span.attrs)

    def _record(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        duration: float,
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        with self._lock:
            full = self.recorded >= self.max_spans
            if not full:
                self.recorded += 1
        if full:
            self._count_drops(1)
            return
        record = {
            "trace": trace_id,
            "span": span_id,
            "parent": parent_id,
            "name": name,
            "process": self.process,
            "pid": os.getpid(),
            "start": round(start, 6),
            "dur": duration,
        }
        if attrs:
            record["attrs"] = attrs
        if self.enabled:
            self._write(record)
        elif self._sink_write is not None:
            self._sink_write(record)

    def _count_drops(self, n: int) -> None:
        with self._lock:
            self.dropped += n
        registry = self.registry
        if registry is not None:
            registry.counter("repro_obs_spans_dropped_total").inc(n)

    def _write(self, obj: Dict[str, Any]) -> None:
        handle = self._handle
        if handle is None:
            return
        try:
            with self._lock:
                handle.write(json.dumps(obj, default=str) + "\n")
        except (OSError, ValueError):  # pragma: no cover - sink gone
            pass


#: The process-global tracer. Call sites hold a module reference and
#: pay one attribute read while disabled, mirroring :data:`OBS`.
TRACER = Tracer()


# ======================================================================
# Assembly: stitch per-process files into per-request timelines
# ======================================================================

#: Span-name → critical-path category used by the breakdown; any other
#: span (``pool.fit``, ``online.step``, ...) is its own category.
SPAN_CATEGORIES = {
    "http.request": "http",
    "http.decode": "http",
    "http.encode": "http",
    "service.observe": "service",
    "service.predict": "service",
    "service.create": "service",
    "service.info": "service",
    "service.close": "service",
    "batcher.queue": "queue_wait",
    "batcher.coalesce": "coalesce_wait",
    "batcher.exec": "exec",
    "batcher.batch": "batch_exec",
    "rpc.shard": "rpc",
    "worker.handle": "worker",
    "store.restore": "restore",
    "store.spill": "spill",
    "store.checkpoint": "checkpoint",
    "checkpoint.save": "checkpoint",
    "checkpoint.restore": "restore",
    "pool.eval": "pool_eval",
    "actor.forward": "actor_forward",
}


class SpanRecord:
    """One parsed span line."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "process",
                 "pid", "start", "duration", "attrs")

    def __init__(self, record: Mapping[str, Any]):
        self.trace_id = str(record["trace"])
        self.span_id = str(record["span"])
        parent = record.get("parent")
        self.parent_id = str(parent) if parent is not None else None
        self.name = str(record.get("name", "?"))
        self.process = str(record.get("process", "?"))
        self.pid = int(record.get("pid", 0))
        self.start = float(record.get("start", 0.0))
        self.duration = float(record.get("dur", 0.0))
        self.attrs = dict(record.get("attrs") or {})

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def category(self) -> str:
        return SPAN_CATEGORIES.get(self.name, self.name)


def _union_seconds(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start)


class AssembledTrace:
    """All spans of one trace id, stitched across processes."""

    def __init__(self, trace_id: str, spans: List[SpanRecord]):
        self.trace_id = trace_id
        self.spans = sorted(spans, key=lambda s: (s.start, s.duration))
        self._by_id = {s.span_id: s for s in self.spans}

    @property
    def root(self) -> Optional[SpanRecord]:
        """Earliest span whose parent is absent from the trace."""
        roots = [
            s for s in self.spans
            if s.parent_id is None or s.parent_id not in self._by_id
        ]
        if not roots:
            return None
        return max(roots, key=lambda s: s.duration)

    @property
    def processes(self) -> List[str]:
        return sorted({s.process for s in self.spans})

    @property
    def orphans(self) -> int:
        """Spans whose recorded parent never made it to a sink."""
        return sum(
            1 for s in self.spans
            if s.parent_id is not None and s.parent_id not in self._by_id
        )

    def children(self, span: SpanRecord) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # ------------------------------------------------------------------
    def coverage(self) -> float:
        """Fraction of the root span's wall time covered by sub-spans.

        The union of every non-root span interval, clipped to the root
        interval, over the root duration — 1.0 means every moment of
        the request is attributed to some recorded stage.
        """
        root = self.root
        if root is None or root.duration <= 0:
            return 0.0
        intervals = []
        for span in self.spans:
            if span is root:
                continue
            start = max(span.start, root.start)
            end = min(span.end, root.end)
            if end > start:
                intervals.append((start, end))
        return min(1.0, _union_seconds(intervals) / root.duration)

    def breakdown(self) -> Dict[str, float]:
        """Critical-path attribution: per-category *self* seconds.

        Each span's self time is its duration minus its in-trace
        children's, so nested stages (RPC → worker → restore) never
        double-count; categories follow :data:`SPAN_CATEGORIES`.
        """
        out: Dict[str, float] = {}
        for span in self.spans:
            child_time = sum(c.duration for c in self.children(span))
            self_time = max(0.0, span.duration - child_time)
            out[span.category] = out.get(span.category, 0.0) + self_time
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def batch_links(self) -> List[Dict[str, str]]:
        """(batch_trace, batch_span) links recorded by coalesced spans."""
        links = []
        seen = set()
        for span in self.spans:
            batch_span = span.attrs.get("batch_span")
            if batch_span and batch_span not in seen:
                seen.add(batch_span)
                links.append({
                    "batch_span": str(batch_span),
                    "batch_trace": str(span.attrs.get("batch_trace", "")),
                })
        return links

    # ------------------------------------------------------------------
    def render(self, assembler: Optional["TraceAssembler"] = None) -> str:
        """Human-readable timeline tree with the breakdown footer."""
        lines: List[str] = []
        root = self.root
        if root is None:
            return f"trace {self.trace_id}: no root span recovered"
        header = (
            f"trace {self.trace_id}  {root.duration * 1e3:.2f} ms  "
            f"{root.name}"
        )
        detail = " ".join(
            f"{k}={v}" for k, v in root.attrs.items() if k != "baggage"
        )
        if detail:
            header += f"  [{detail}]"
        lines.append(header)

        def walk(span: SpanRecord, prefix: str) -> None:
            kids = sorted(self.children(span), key=lambda s: s.start)
            for i, child in enumerate(kids):
                last = i == len(kids) - 1
                branch = "└─ " if last else "├─ "
                offset = (child.start - root.start) * 1e3
                attrs = " ".join(
                    f"{k}={v}" for k, v in child.attrs.items()
                )
                lines.append(
                    f"{prefix}{branch}{child.name} "
                    f"[{child.process}]  +{offset:.2f} ms  "
                    f"{child.duration * 1e3:.2f} ms"
                    + (f"  {attrs}" if attrs else "")
                )
                walk(child, prefix + ("   " if last else "│  "))

        walk(root, "  ")
        for orphan in [
            s for s in self.spans
            if s is not root and s.parent_id is not None
            and s.parent_id not in self._by_id
        ]:
            lines.append(
                f"  ?─ {orphan.name} [{orphan.process}]  (orphan: parent "
                f"{orphan.parent_id} not recorded)"
            )
        parts = "  ".join(
            f"{category}={seconds * 1e3:.2f}ms"
            for category, seconds in self.breakdown().items()
        )
        lines.append(f"  critical path: {parts}")
        lines.append(
            f"  coverage {self.coverage() * 100:.1f}%  "
            f"spans {len(self.spans)}  processes "
            f"{','.join(self.processes)}"
        )
        links = self.batch_links()
        if links and assembler is not None:
            for link in links:
                batch = assembler.span(link["batch_span"])
                if batch is not None:
                    lines.append(
                        f"  linked batch span {link['batch_span']} "
                        f"({batch.attrs.get('requests', '?')} request(s), "
                        f"{batch.duration * 1e3:.2f} ms)"
                    )
        return "\n".join(lines)


class TraceAssembler:
    """Stitch JSONL span files from many processes into timelines."""

    def __init__(self) -> None:
        self._spans: Dict[str, List[SpanRecord]] = {}
        self._index: Dict[str, SpanRecord] = {}
        #: Per-process drop counts from ``tracer_stop`` meta lines.
        self.dropped: Dict[str, int] = {}
        self.files_read = 0
        self.malformed_lines = 0

    # ------------------------------------------------------------------
    def add_span(self, record: Mapping[str, Any]) -> None:
        if "event" in record:
            return  # a run event sharing a ``--trace PATH`` file
        if "meta" in record:
            if record.get("meta") == "tracer_stop":
                process = str(record.get("process", "?"))
                self.dropped[process] = (
                    self.dropped.get(process, 0)
                    + int(record.get("dropped", 0))
                )
            return
        span = SpanRecord(record)
        self._spans.setdefault(span.trace_id, []).append(span)
        self._index[span.span_id] = span

    def add_file(self, path) -> "TraceAssembler":
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    self.add_span(json.loads(line))
                except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                    # A torn final line from a killed process is
                    # expected; count it instead of failing assembly.
                    self.malformed_lines += 1
        self.files_read += 1
        return self

    def add_path(self, path) -> "TraceAssembler":
        """A file, or a directory of ``*.jsonl`` trace files."""
        p = Path(path)
        if p.is_dir():
            for child in sorted(p.glob("*.jsonl")):
                self.add_file(child)
        else:
            self.add_file(p)
        return self

    # ------------------------------------------------------------------
    def span(self, span_id: str) -> Optional[SpanRecord]:
        """Cross-trace span lookup (resolves batch links)."""
        return self._index.get(span_id)

    def traces(self) -> List[AssembledTrace]:
        """All assembled traces, earliest root first."""
        assembled = [
            AssembledTrace(trace_id, spans)
            for trace_id, spans in self._spans.items()
        ]
        assembled.sort(
            key=lambda t: t.root.start if t.root is not None else 0.0
        )
        return assembled

    def trace(self, trace_id: str) -> Optional[AssembledTrace]:
        spans = self._spans.get(trace_id)
        if spans is None:
            return None
        return AssembledTrace(trace_id, spans)

    @property
    def spans_dropped(self) -> int:
        """Total spans dropped across every process that reported."""
        return sum(self.dropped.values())

    def report(
        self,
        *,
        root_name: Optional[str] = None,
        limit: int = 20,
    ) -> Dict[str, Any]:
        """Machine-readable summary used by the bench gate and CLI."""
        traces = self.traces()
        if root_name is not None:
            traces = [
                t for t in traces
                if t.root is not None and t.root.name == root_name
            ]
        rows = []
        for t in traces[:limit]:
            root = t.root
            rows.append({
                "trace_id": t.trace_id,
                "root": root.name if root is not None else None,
                "duration_ms": (
                    root.duration * 1e3 if root is not None else None
                ),
                "spans": len(t.spans),
                "processes": t.processes,
                "coverage": t.coverage(),
                "orphans": t.orphans,
                "breakdown_ms": {
                    k: v * 1e3 for k, v in t.breakdown().items()
                },
                "batch_links": t.batch_links(),
            })
        return {
            "traces": rows,
            "n_traces": len(traces),
            "files_read": self.files_read,
            "malformed_lines": self.malformed_lines,
            "spans_dropped": self.spans_dropped,
            "dropped_by_process": dict(self.dropped),
        }


def assemble_trace_dir(trace_dir) -> TraceAssembler:
    """Convenience: assembler over every ``*.jsonl`` in a directory."""
    return TraceAssembler().add_path(trace_dir)


def iter_trace_records(paths: Iterable) -> Iterable[Dict[str, Any]]:
    """Raw span/meta records from files (artifact concatenation)."""
    for path in paths:
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue
