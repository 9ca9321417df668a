"""``OBS.span``: nesting, the no-op fast path, the child cap, the histogram.

Library spans live on :data:`repro.obs.TRACER`'s one thread-local stack
and, with telemetry sinks configured, are written as span records.
"""

from __future__ import annotations

from repro.obs import (
    NOOP_TRACE_SPAN,
    OBS,
    TRACER,
    MemorySink,
    TelemetryConfig,
    configure,
    shutdown,
)
from repro.obs.trace import MAX_CHILDREN


def _records(sink):
    return [e for e in sink.events if "span" in e and "trace" in e]


def _span_counts(snapshot):
    return {
        row["labels"]["span"]: row["count"]
        for row in snapshot["histograms"]
        if row["name"] == "repro_span_seconds"
    }


class TestSpanTracker:
    def test_nesting_builds_tree(self):
        sink = MemorySink()
        configure(sinks=[sink])
        try:
            with OBS.span("outer") as outer:
                with OBS.span("inner"):
                    pass
                with OBS.span("inner2"):
                    pass
        finally:
            shutdown()
        records = {r["name"]: r for r in _records(sink)}
        assert set(records) == {"outer", "inner", "inner2"}
        root = records["outer"]
        assert root["parent"] is None
        for name in ("inner", "inner2"):
            assert records[name]["trace"] == root["trace"]
            assert records[name]["parent"] == root["span"]
        assert outer.duration >= max(
            records["inner"]["dur"], records["inner2"]["dur"]
        )

    def test_on_close_sees_every_span(self):
        sink = MemorySink()
        configure(sinks=[sink])
        try:
            with OBS.span("outer"):
                with OBS.span("inner"):
                    pass
        finally:
            shutdown()
        # Records are written as spans close: innermost first.
        assert [r["name"] for r in _records(sink)] == ["inner", "outer"]

    def test_child_cap_counts_dropped(self):
        sink = MemorySink()
        configure(sinks=[sink])
        try:
            with OBS.span("root"):
                for _ in range(MAX_CHILDREN + 10):
                    with OBS.span("step"):
                        with OBS.span("inside"):
                            pass
            dropped = OBS.registry.counter(
                "repro_obs_spans_dropped_total"
            ).value
        finally:
            shutdown()
        names = [r["name"] for r in _records(sink)]
        assert names.count("step") == MAX_CHILDREN
        # A dropped step's own children are not written either.
        assert names.count("inside") == MAX_CHILDREN
        assert dropped == 10
        # The drop count also lands in the file, so a short trace is
        # visibly incomplete.
        (stop,) = [e for e in sink.events if e.get("meta") == "tracer_stop"]
        assert stop["dropped"] == 10
        # Every span, dropped or not, fed the histogram.
        counts = _span_counts(sink.metric_snapshots[-1])
        assert counts["step"] == MAX_CHILDREN + 10
        assert counts["inside"] == MAX_CHILDREN + 10

    def test_to_dict_shape(self):
        sink = MemorySink()
        configure(sinks=[sink])
        try:
            with OBS.span("x"):
                pass
        finally:
            shutdown()
        (record,) = _records(sink)
        assert set(record) == {"trace", "span", "parent", "name",
                               "process", "pid", "start", "dur"}
        assert record["name"] == "x"
        assert record["dur"] >= 0.0


class TestGlobalSpanPath:
    def test_disabled_returns_shared_noop(self):
        shutdown()
        TRACER.disable()
        span = OBS.span("anything")
        assert span is NOOP_TRACE_SPAN
        with span:
            pass  # no state, no record, no histogram
        assert span.duration == 0.0

    def test_enabled_emits_tree_and_histogram(self):
        sink = MemorySink()
        configure(sinks=[sink])
        try:
            with OBS.span("outer"):
                with OBS.span("inner"):
                    pass
        finally:
            shutdown()
        records = {r["name"]: r for r in _records(sink)}
        assert records["inner"]["parent"] == records["outer"]["span"]
        assert _span_counts(sink.metric_snapshots[-1]) == {
            "outer": 1, "inner": 1,
        }

    def test_metrics_only_session_writes_nothing(self):
        # Registry on, no sinks: timed, never written.
        configure(TelemetryConfig())
        try:
            with OBS.span("solo") as span:
                assert TRACER.current() is None
            counts = _span_counts(OBS.registry.snapshot())
        finally:
            shutdown()
        assert span.ctx is None
        assert counts == {"solo": 1}

    def test_trace_dir_keeps_library_spans_out_of_root_traces(self, tmp_path):
        TRACER.enable(tmp_path, "unit")
        try:
            with OBS.span("checkpoint.save") as orphan:
                pass
            with TRACER.span("http.request") as request:
                with OBS.span("checkpoint.save") as child:
                    pass
        finally:
            TRACER.disable()
        assert orphan.ctx is None
        assert child.ctx.trace_id == request.ctx.trace_id
        assert child.parent_id == request.ctx.span_id
