"""Distributed request tracing across the serving runtime's processes.

The PR 3 span trees (:mod:`repro.obs.spans`) time nested regions inside
*one* process. The serving stack spans several — HTTP frontend →
micro-batcher → shard RPC → worker → store/pool/actor — so explaining a
slow request needs spans that share one **trace id** across process
boundaries. This module provides exactly that, dependency-free:

- :class:`TraceContext` — ``(trace_id, span_id, baggage)`` minted at
  ingress (or adopted from an ``X-Trace-Id`` header) and propagated
  through thread hops (captured explicitly by the micro-batcher) and
  process hops (a ``trace`` dict on the shard RPC envelope);
- :class:`Tracer` / :data:`TRACER` — the process-global recorder. Each
  process appends finished spans to **its own** JSONL file
  (``trace-<process>.<pid>.jsonl`` under a shared directory), so no
  cross-process synchronisation exists on the hot path. Disabled (the
  default) every call site costs one attribute read and
  :data:`NOOP_TRACE_SPAN`;
- :class:`TraceAssembler` — reads any number of those files and
  stitches per-request timelines back together: parent/child trees
  across processes, wall-time coverage, a critical-path breakdown
  (queue wait, coalesce wait, RPC, restore/spill, pool eval, actor
  forward, checkpoint), and links from coalesced requests to their
  shared batch span. Surfaced as the ``repro trace`` CLI.

Span records are plain JSON lines::

    {"trace": ..., "span": ..., "parent": ..., "name": "rpc.shard",
     "process": "frontend", "pid": 123, "start": <unix s>,
     "dur": <s>, "attrs": {"shard": 2}}

plus ``{"meta": ...}`` lines carrying per-process drop counters, so a
truncated trace is visibly incomplete instead of silently short
(``repro_obs_spans_dropped_total{source="trace"}`` counts the same
drops in the metrics registry).

Determinism contract: tracing only *reads* request state — outputs of a
traced run are bit-identical to an untraced one, and the disabled fast
path stays inside the PR 3 overhead budget.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional

#: HTTP header names for context propagation (request and response).
TRACE_ID_HEADER = "X-Trace-Id"
PARENT_SPAN_HEADER = "X-Parent-Span"

#: Ids are lowercase hex; anything else from a client is re-minted.
_ID_PATTERN = re.compile(r"^[0-9a-f]{8,32}$")

#: Spans recorded per process before further spans are dropped (and
#: counted — see ``Tracer.dropped``).
MAX_SPANS_PER_PROCESS = 200_000

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


class _NoopTraceSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    ctx: Optional[TraceContext] = None

    def __enter__(self) -> "_NoopTraceSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NOOP_TRACE_SPAN = _NoopTraceSpan()


class TraceSpan:
    """One live cross-process span; records itself on ``__exit__``."""

    __slots__ = ("_tracer", "name", "ctx", "parent_id", "attrs",
                 "start", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        ctx: TraceContext,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ):
        self._tracer = tracer
        self.name = name
        #: The span's own context — children parent to ``ctx.span_id``.
        self.ctx = ctx
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "TraceSpan":
        self._tracer._push(self.ctx)
        self.start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self._t0
        self._tracer._pop(self.ctx)
        self._tracer._record(
            self.name, self.ctx.trace_id, self.ctx.span_id,
            self.parent_id, self.start, duration, self.attrs,
        )
        return None


class Tracer:
    """Per-process trace recorder with an ambient-context stack.

    One instance (:data:`TRACER`) lives per process; :meth:`enable`
    points it at a JSONL file inside a shared trace directory. Contexts
    propagate implicitly down a thread (``span`` pushes its context on
    a thread-local stack) and explicitly across threads and processes
    (``current()`` → capture, ``activate``/``parent=`` → restore).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.process = ""
        self.path: Optional[Path] = None
        self.recorded = 0
        self.dropped = 0
        self.max_spans = MAX_SPANS_PER_PROCESS
        self._handle = None
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
        predecessor's file.
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
        self.enabled = True
        self._write({"meta": "tracer_start", "process": self.process,
                     "pid": os.getpid(), "ts": round(time.time(), 6)})
        if not self._atexit_registered:
            # Workers exit via os-level teardown paths; make sure the
            # drop counters still land in the file.
            atexit.register(self.disable)
            self._atexit_registered = True
        return self

    def disable(self) -> None:
        """Write the final drop-count meta line and close the sink."""
        if not self.enabled:
            return
        self.enabled = False
        self._write({"meta": "tracer_stop", "process": self.process,
                     "pid": os.getpid(), "recorded": self.recorded,
                     "dropped": self.dropped})
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover - close race
                pass

    # ------------------------------------------------------------------
    # Ambient context
    # ------------------------------------------------------------------
    def _stack(self) -> List[TraceContext]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, ctx: TraceContext) -> None:
        self._stack().append(ctx)

    def _pop(self, ctx: TraceContext) -> None:
        stack = self._stack()
        if stack and stack[-1] is ctx:
            stack.pop()
        elif ctx in stack:  # pragma: no cover - unbalanced exit guard
            stack.remove(ctx)

    def current(self) -> Optional[TraceContext]:
        """The ambient context of this thread, if a span is open."""
        stack = self._stack()
        return stack[-1] if stack else None

    class _Activation:
        __slots__ = ("_tracer", "_ctx")

        def __init__(self, tracer: "Tracer", ctx: TraceContext):
            self._tracer = tracer
            self._ctx = ctx

        def __enter__(self):
            self._tracer._push(self._ctx)
            return self._ctx

        def __exit__(self, *exc_info):
            self._tracer._pop(self._ctx)
            return None

    def activate(self, ctx: TraceContext) -> "Tracer._Activation":
        """Reinstate a captured context on this thread (thread hop)."""
        return Tracer._Activation(self, ctx)

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def span(self, name: str, parent=None, **attrs):
        """Open a span: child of ``parent`` (or the ambient context).

        ``parent=None`` uses the ambient context, minting a fresh root
        trace when there is none (service ingress). ``parent=NEW_TRACE``
        always mints a root (the shared batch span). Disabled tracers
        return :data:`NOOP_TRACE_SPAN`.
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
        return TraceSpan(self, name, ctx, parent_id, attrs)

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
    def _record(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        duration: float,
        attrs: Dict[str, Any],
    ) -> None:
        with self._lock:
            if self.recorded >= self.max_spans:
                self.dropped += 1
                self._count_drop()
                return
            self.recorded += 1
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
        self._write(record)

    def _count_drop(self) -> None:
        # Imported lazily: obs.telemetry imports are cheap but this
        # module must stay importable before the registry exists.
        from repro.obs.telemetry import OBS

        if OBS.enabled:
            OBS.registry.counter(
                "repro_obs_spans_dropped_total", {"source": "trace"}
            ).inc()

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


def enable_tracing(trace_dir, process: str, **kwargs) -> Tracer:
    """Point this process's :data:`TRACER` at ``trace_dir``."""
    return TRACER.enable(trace_dir, process, **kwargs)


def disable_tracing() -> None:
    """Stop recording and flush the drop-count meta line."""
    TRACER.disable()


# ======================================================================
# Assembly: stitch per-process files into per-request timelines
# ======================================================================

#: Span-name → critical-path category used by the breakdown.
SPAN_CATEGORIES = {
    "http.request": "http",
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
        return SPAN_CATEGORIES.get(self.name, "other")


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
