"""Unit tests of the ledger's own logic (no server, no timing thresholds).

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/ledger``.
"""

from __future__ import annotations

import numpy as np
import pytest

import analysis
import compare
import loadgen
import run
import workloads
from analysis import Node, SpanIndex, breakdown


def span(sid, name, start, end, parent=None, rid=None, pid=1):
    return {"id": f"{pid}:{sid}", "parent": f"{pid}:{parent}" if parent
            else None, "name": name, "start": start, "end": end,
            "rid": rid, "pid": pid, "tid": 1}


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, q, ok", [
    (1000, 99, True), (999, 99, False), (450, 97, True), (333, 97, False),
    (200, 95, True), (199, 95, False), (20, 50, True), (19, 50, False),
])
def test_percentile_needs_ten_samples_beyond_it(n, q, ok):
    assert analysis.supports(n, q) is ok


def test_ledger_tail_is_supported_by_its_smallest_sample():
    seconds = run.SPEC["run_seconds"]
    open_loop = int(run.OPEN_RATE * seconds * (1 - run.CLOSED_SHARE))
    online_steps = 100 * len(workloads.PAPER_DATASETS)
    for n in (open_loop, online_steps):
        assert analysis.supports(n, analysis.TAIL)


# ----------------------------------------------------------------------
# Self time and unattributed time
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert analysis.covered([(1, 3), (2, 4), (8, 12)], 0, 10) == 5
    assert analysis.covered([], 0, 10) == 0


def test_breakdown_self_times_add_up_to_root():
    leaf = Node("models", 2, 3)
    mid = Node("rl", 1, 5, [leaf, Node("rl", 4, 4.5)])
    root = Node(analysis.UNATTRIBUTED, 0, 10, [mid, Node("core", 6, 7)])
    parts = breakdown(root)
    assert parts == pytest.approx(
        {analysis.UNATTRIBUTED: 5.0, "rl": 3.0, "models": 1.0, "core": 1.0})
    assert sum(parts.values()) == pytest.approx(10.0)


def test_paper_units_leave_uncovered_time_unattributed():
    records = [span(1, "models.fit", 1, 4),
               span(2, "rl.update", 2, 3, parent=1),
               span(3, "core.rolling_forecast_online", 5, 9),
               span(4, "session.apply_forecast", 6, 6.5, parent=3),
               span(5, "models.fit", 11, 12)]
    index = SpanIndex(records)
    units = analysis.paper_units(index, [(0, 10), (10, 13)])
    total = {}
    for unit in units:
        for layer, seconds in breakdown(unit).items():
            total[layer] = total.get(layer, 0.0) + seconds
    assert total == pytest.approx({
        analysis.UNATTRIBUTED: 5.0, "models": 3.0, "rl": 1.0,
        "core": 3.5, "session": 0.5})


def served(pid=1, front="service", rid="t#1"):
    """One request through service -> batcher -> executed work."""
    return [
        span(1, f"{front}.observe", 2, 8, rid=rid, pid=pid),
        span(2, "batcher.submit", 2, 2.5, parent=1, rid=rid, pid=pid),
        span(3, "service.exec", 3.5, 7, parent=1, rid=rid, pid=pid),
        span(4, "store.acquire", 4, 5, parent=3, rid=rid, pid=pid),
        span(5, "session.observe", 5, 6.5, parent=3, rid=rid, pid=pid),
        span(6, "models.predict_next_with_mask", 5.2, 6, parent=5,
             rid=rid, pid=pid),
    ]


def test_request_tree_derives_http_and_batcher_wait():
    index = SpanIndex(served())
    units, per_request = analysis.serving_units(
        index, [{"rid": "t#1", "op": "observe", "send": 0, "recv": 10}])
    parts = breakdown(units[0])
    assert parts == pytest.approx({
        "http": 4.0, "service": 2.0, "batcher": 1.5, "store": 1.0,
        "session": 0.7, "models": 0.8})
    assert per_request[0]["wait"] == pytest.approx(1.0)
    assert not per_request[0]["grouped"]


def test_request_tree_splits_rpc_from_worker_time():
    front = [span(1, "supervisor.observe", 1, 9, rid="t#1", pid=7)]
    index = SpanIndex(front + served(pid=8))
    tree = index.request_tree("t#1", "observe", 0, 10)
    parts = breakdown(tree)
    assert parts["http"] == pytest.approx(2.0)
    assert parts["supervisor"] == pytest.approx(2.0)
    assert sum(parts.values()) == pytest.approx(10.0)


def test_missing_server_span_is_unattributed():
    index = SpanIndex(served(rid="t#1"))
    tree = index.request_tree("t#2", "observe", 0, 3)
    assert breakdown(tree) == {analysis.UNATTRIBUTED: 3.0}


def test_batched_group_counts_in_every_request_it_served():
    records = [
        span(1, "service.observe", 0, 10, rid="a#1"),
        span(2, "batcher.submit", 0, 1, parent=1, rid="a#1"),
        span(3, "service.observe", 0, 10, rid="b#1"),
        span(4, "batcher.submit", 0, 1, parent=3, rid="b#1"),
        span(5, "service.group", 3, 9, rid=["a#1", "b#1"]),
        span(6, "models.predict_next_batch_with_mask", 4, 8, parent=5,
             rid=["a#1", "b#1"]),
    ]
    index = SpanIndex(records)
    calls = [{"rid": r, "op": "observe", "send": 0, "recv": 10}
             for r in ("a#1", "b#1")]
    units, per_request = analysis.serving_units(index, calls)
    for unit, parts in zip(units, per_request):
        assert breakdown(unit)["models"] == pytest.approx(4.0)
        assert parts["grouped"] and parts["wait"] == pytest.approx(2.0)
    metrics = analysis.layer_metrics(index, units, [(0, 10)], 2,
                                     per_request=per_request)
    assert metrics["batcher.batch_size_mean"] == 2.0
    assert metrics["models.self_s"] == pytest.approx(8.0)
    assert metrics["coverage"] == 1.0


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_verdict_within_bound_and_worse():
    assert compare.verdict(BASE, [x * 1.05 for x in BASE], "lower",
                           0.1) == "within bound"
    assert compare.verdict(BASE, [x * 1.2 for x in BASE], "lower",
                           0.1) == "worse"
    assert compare.verdict(BASE, [x * 0.8 for x in BASE], "higher",
                           0.1) == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    wide = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(BASE, wide, "lower", 0.1) == "unresolved"
    # ... unless every head run beats every base run.
    assert compare.verdict(BASE, [x * 0.5 for x in wide], "lower",
                           0.1) == "within bound"


def test_gain_needs_nine_tenths_of_pairs_and_a_median_gap():
    base = {s: 100.0 + s for s in range(10)}
    better = {s: 90.0 + s for s in range(10)}
    assert compare.pair_wins(base, better, "lower") == (10, 10)
    assert compare.is_gain(base, better, "lower")
    one_loss = {**better, 0: 200.0, 1: 200.0}
    assert compare.pair_wins(base, one_loss, "lower") == (8, 10)
    assert not compare.is_gain(base, one_loss, "lower")
    ties = dict(base)
    assert compare.pair_wins(base, ties, "lower") == (0, 10)
    small = {s: v - 0.5 for s, v in base.items()}
    assert not compare.is_gain(base, small, "lower")


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_from_due_and_reports_lateness():
    clock = FakeClock()
    service = 0.3

    def fire():
        sent = clock()
        clock.now += service
        return {"send": sent, "recv": clock()}

    dues = [0.2 * k for k in range(5)]
    records = loadgen.run_schedule(dues, fire, clock=clock,
                                   sleep=clock.sleep)
    assert [r["late"] for r in records] == pytest.approx(
        [0.0, 0.1, 0.2, 0.3, 0.4])
    assert [r["latency"] for r in records] == pytest.approx(
        [0.3, 0.4, 0.5, 0.6, 0.7])


def test_open_loop_never_fires_early():
    clock = FakeClock()
    fired = []

    def fire():
        fired.append(clock())
        return {"send": clock(), "recv": clock() + 0.01}

    records = loadgen.run_schedule([1.0, 2.0], fire, clock=clock,
                                   sleep=clock.sleep)
    assert fired == [1.0, 2.0]
    assert [r["late"] for r in records] == [0.0, 0.0]


class FakeClient:
    def __init__(self):
        self.calls = []

    def call(self, method, path, body=None):
        self.calls.append((method, path, body))
        return 200, {"forecast": 1.0, "step": len(self.calls)}


@pytest.mark.parametrize("predict_share, round_robin", [
    (0.25, False), (0.0, True), (0.0, False)])
def test_tenants_stay_on_one_lane_with_gapless_seq(
        predict_share, round_robin):
    n = 6
    tenants = [loadgen.Tenant(f"t{i}", np.arange(50.0), 10)
               for i in range(n)]
    seqs = {tenant.sid: [] for tenant in tenants}
    for lane in range(loadgen.LANES):
        stream = loadgen.OpStream(lane, n, predict_share, round_robin, 3)
        client = FakeClient()
        for _ in range(40):
            index, op = stream.next()
            assert index % loadgen.LANES == lane
            loadgen.send(client, tenants[index], op)
        for _, path, body in client.calls:
            sid = path.split("/")[3]
            assert int(sid[1:]) % loadgen.LANES == lane
            if body is not None:
                seqs[sid].append(body["seq"])
    for got in seqs.values():
        assert got == list(range(1, len(got) + 1))


def test_op_stream_is_a_function_of_the_seed():
    a = loadgen.OpStream(0, 64, 0.25, False, 5)
    b = loadgen.OpStream(0, 64, 0.25, False, 5)
    assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]


# ----------------------------------------------------------------------
# The benchmark definition matches what the runner reports
# ----------------------------------------------------------------------
def test_benchmark_json_matches_reported_metrics():
    assert {m["name"] for m in run.SPEC["end_to_end"]} == {
        "setup_s", "wall_s", "throughput_rps", "p50_ms", "peak_rss_mb"}
    index = SpanIndex(served())
    units, per_request = analysis.serving_units(
        index, [{"rid": "t#1", "op": "observe", "send": 0, "recv": 10}])
    reported = analysis.layer_metrics(index, units, [(0, 10)], 1,
                                      per_request=per_request)
    assert [m["name"] for m in run.SPEC["per_layer"]] == list(reported)
    assert [w["name"] for w in run.SPEC["workloads"]] == list(
        workloads.WORKLOADS)
