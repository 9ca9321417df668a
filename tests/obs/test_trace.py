"""Distributed tracing: tracer lifecycle, propagation, assembly."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    NOOP_TRACE_SPAN,
    TRACER,
    TraceAssembler,
    TraceContext,
    Tracer,
    assemble_trace_dir,
)


@pytest.fixture(autouse=True)
def _tracer_disabled():
    TRACER.disable()
    yield
    TRACER.disable()


def _records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestTracerLifecycle:
    def test_disabled_tracer_returns_shared_noop(self):
        assert TRACER.span("anything") is NOOP_TRACE_SPAN
        assert TRACER.child_span("anything") is NOOP_TRACE_SPAN
        assert NOOP_TRACE_SPAN.ctx is None

    def test_enable_writes_meta_and_spans(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        with TRACER.span("service.observe", session="s1"):
            pass
        TRACER.disable()
        files = list(tmp_path.glob("trace-unit.*.jsonl"))
        assert len(files) == 1
        records = _records(files[0])
        metas = [r for r in records if "meta" in r]
        spans = [r for r in records if "meta" not in r]
        assert metas[0]["meta"] == "tracer_start"
        assert metas[-1]["meta"] == "tracer_stop"
        assert metas[-1]["recorded"] == 1
        assert metas[-1]["dropped"] == 0
        (span,) = spans
        assert span["name"] == "service.observe"
        assert span["process"] == "unit"
        assert span["parent"] is None
        assert span["attrs"] == {"session": "s1"}

    def test_span_cap_counts_drops(self, tmp_path):
        tracer = Tracer()
        tracer.enable(tmp_path, "capped", max_spans=2)
        for _ in range(5):
            with tracer.span("x"):
                pass
        tracer.disable()
        (path,) = tmp_path.glob("trace-capped.*.jsonl")
        stop = [r for r in _records(path) if r.get("meta") == "tracer_stop"]
        assert stop[0]["recorded"] == 2
        assert stop[0]["dropped"] == 3


class TestPropagation:
    def test_nested_spans_share_trace_and_parent(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        with TRACER.span("http.request") as root:
            with TRACER.span("service.observe") as inner:
                assert inner.ctx.trace_id == root.ctx.trace_id
                assert inner.parent_id == root.ctx.span_id

    def test_child_span_requires_ambient_context(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        assert TRACER.child_span("store.restore") is NOOP_TRACE_SPAN
        with TRACER.span("http.request"):
            assert TRACER.child_span("store.restore") is not NOOP_TRACE_SPAN

    def test_wire_round_trip(self):
        ctx = TraceContext("a" * 16, "b" * 16, {"tenant": "t1"})
        back = TraceContext.from_wire(ctx.to_wire())
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id
        assert back.baggage == {"tenant": "t1"}
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({"s": "x"}) is None

    def test_headers_adopted_only_when_valid(self):
        assert TRACER.from_headers({}) is None
        assert TRACER.from_headers({"X-Trace-Id": "NOT HEX!"}) is None
        ctx = TRACER.from_headers({"X-Trace-Id": "DEADBEEFDEADBEEF"})
        assert ctx.trace_id == "deadbeefdeadbeef"

    def test_explicit_parent_crosses_threads(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        with TRACER.span("http.request") as root:
            captured = TRACER.current()
        seen = {}

        def worker():
            with TRACER.span("worker.handle", parent=captured) as span:
                seen["trace"] = span.ctx.trace_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["trace"] == root.ctx.trace_id


class TestAssembly:
    def _write_trace(self, tmp_path):
        """Synthetic two-process trace with a known shape."""
        front = tmp_path / "trace-frontend.1.jsonl"
        shard = tmp_path / "trace-shard-0.2.jsonl"
        t0 = 1000.0
        front.write_text("\n".join(json.dumps(r) for r in [
            {"meta": "tracer_start", "process": "frontend", "pid": 1},
            {"trace": "t1", "span": "root", "parent": None,
             "name": "http.request", "process": "frontend", "pid": 1,
             "start": t0, "dur": 1.0, "attrs": {"path": "/x"}},
            {"trace": "t1", "span": "rpc", "parent": "root",
             "name": "rpc.shard", "process": "frontend", "pid": 1,
             "start": t0 + 0.02, "dur": 0.95},
            {"meta": "tracer_stop", "process": "frontend", "pid": 1,
             "recorded": 2, "dropped": 3},
        ]) + "\n")
        shard.write_text("\n".join(json.dumps(r) for r in [
            {"trace": "t1", "span": "wk", "parent": "rpc",
             "name": "worker.handle", "process": "shard-0", "pid": 2,
             "start": t0 + 0.05, "dur": 0.9},
            {"trace": "t1", "span": "rs", "parent": "wk",
             "name": "store.restore", "process": "shard-0", "pid": 2,
             "start": t0 + 0.1, "dur": 0.4},
            "not json at all",
        ]) + "\n")
        return tmp_path

    def test_cross_process_stitching(self, tmp_path):
        assembler = assemble_trace_dir(self._write_trace(tmp_path))
        trace = assembler.trace("t1")
        assert trace.root.name == "http.request"
        assert trace.processes == ["frontend", "shard-0"]
        assert trace.orphans == 0
        assert [c.name for c in trace.children(trace.root)] == ["rpc.shard"]
        assert assembler.malformed_lines == 1

    def test_coverage_and_breakdown(self, tmp_path):
        trace = assemble_trace_dir(self._write_trace(tmp_path)).trace("t1")
        # rpc.shard spans 95% of the 1s root.
        assert trace.coverage() == pytest.approx(0.95)
        breakdown = trace.breakdown()
        # Self time: rpc = 0.95 - 0.9, worker = 0.9 - 0.4, restore = 0.4.
        assert breakdown["restore"] == pytest.approx(0.4)
        assert breakdown["worker"] == pytest.approx(0.5)
        assert breakdown["rpc"] == pytest.approx(0.05)

    def test_drop_totals(self, tmp_path):
        assembler = assemble_trace_dir(self._write_trace(tmp_path))
        assert assembler.spans_dropped == 3
        assert assembler.dropped == {"frontend": 3}

    def test_report_rows(self, tmp_path):
        report = assemble_trace_dir(self._write_trace(tmp_path)).report(
            root_name="http.request"
        )
        (row,) = report["traces"]
        assert row["trace_id"] == "t1"
        assert row["duration_ms"] == pytest.approx(1000.0)
        assert row["spans"] == 4
        assert report["spans_dropped"] == 3
        assert report["malformed_lines"] == 1

    def test_render_shows_tree_and_coverage(self, tmp_path):
        assembler = assemble_trace_dir(self._write_trace(tmp_path))
        text = assembler.trace("t1").render()
        assert "http.request" in text
        assert "worker.handle [shard-0]" in text
        assert "coverage 95.0%" in text

    def test_end_to_end_live_roundtrip(self, tmp_path):
        TRACER.enable(tmp_path, "live")
        with TRACER.span("http.request", path="/v1/x"):
            with TRACER.span("service.observe"):
                with TRACER.child_span("store.restore"):
                    pass
        TRACER.disable()
        traces = assemble_trace_dir(tmp_path).traces()
        assert len(traces) == 1
        assert traces[0].root.name == "http.request"
        assert len(traces[0].spans) == 3
        assert traces[0].coverage() > 0.0
