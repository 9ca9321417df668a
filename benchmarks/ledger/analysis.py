"""Pure analysis of ledger runs: percentiles, span trees, layer metrics.

Self time: a span's duration minus the part of it its children cover.
Each span belongs to the layer named by the first part of its name; the
self times of all layers plus ``unattributed`` add up to the
end-to-end time:

- ``paper``: the child's time inside each dataset; what no top-level
  span covers (data generation, splitting, glue) is unattributed;
- serving: the sum of client latencies. A request's tree is built from
  its id: the client call, whose self time is ``http`` (transport, HTTP
  parsing and encoding), then the frontend call (``supervisor`` self
  time is the shard RPC), then the service call, the batcher hop
  (``batcher.submit`` plus the wait until execution starts) and the
  executed work with everything nested in it. A request whose server
  span is missing leaves its time unattributed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

LAYERS = ("http", "supervisor", "service", "batcher", "store",
          "checkpoint", "session", "models", "rl", "core")
UNATTRIBUTED = "unattributed"
#: Tail percentile of every latency metric: a run holds 360-600 samples
#: per metric, so at least ten samples lie beyond it.
TAIL = 97
EXEC_NAMES = ("service.exec", "service.group")
LOOP_NAMES = ("core.rolling_forecast_from_matrix",
              "core.rolling_forecast_online")


def supports(n: int, q: float, beyond: int = 10) -> bool:
    """Whether ``n`` samples leave at least ``beyond`` above percentile
    ``q`` (the highest percentile worth reporting has ten beyond it)."""
    return n * (100.0 - q) / 100.0 >= beyond


def pct(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Node:
    """One interval of a span tree; ``layer`` receives its self time."""

    __slots__ = ("layer", "start", "end", "children")

    def __init__(self, layer: str, start: float, end: float, children=()):
        self.layer, self.start, self.end = layer, start, end
        self.children = list(children)

    def own(self) -> float:
        return self.end - self.start - covered(
            [(c.start, c.end) for c in self.children], self.start, self.end)


def breakdown(node: Node, memo: Optional[dict] = None) -> Dict[str, float]:
    """Self time per layer over ``node``'s tree.

    ``memo`` lets trees that share a subtree (a batch serving several
    requests) compute it once.
    """
    memo = {} if memo is None else memo
    hit = memo.get(id(node))
    if hit is not None and hit[0] is node:
        return hit[1]
    out = {node.layer: node.own()}
    for child in node.children:
        for layer, seconds in breakdown(child, memo).items():
            out[layer] = out.get(layer, 0.0) + seconds
    memo[id(node)] = (node, out)
    return out


class SpanIndex:
    """Span records (as ``spans.Recorder.flush`` writes them) by id,
    parent and request id."""

    def __init__(self, records: List[dict]):
        self.records = records
        self.by_id = {rec["id"]: rec for rec in records}
        self.children: Dict[str, list] = {}
        self.by_rid: Dict[tuple, dict] = {}
        self.groups: Dict[str, dict] = {}
        for rec in records:
            if rec["parent"] is not None:
                self.children.setdefault(rec["parent"], []).append(rec)
            rid = rec["rid"]
            if isinstance(rid, list):
                if rec["name"] == "service.group":
                    for one in rid:
                        self.groups[one] = rec
            elif rid is not None:
                self.by_rid.setdefault((rec["name"], rid), rec)
        self._nodes: Dict[str, Node] = {}

    def node(self, rec: dict, extra: Optional[list] = None) -> Node:
        """Tree of ``rec`` and its descendants; ``extra`` grafts children
        onto a fresh copy for one request."""
        if extra is None and rec["id"] in self._nodes:
            return self._nodes[rec["id"]]
        kids = [self.node(c) for c in self.children.get(rec["id"], ())]
        node = Node(rec["name"].split(".")[0], rec["start"], rec["end"],
                    kids + (extra or []))
        if extra is None:
            self._nodes[rec["id"]] = node
        return node

    def own(self, rec: dict) -> float:
        return self.node(rec).own()

    def find(self, rid: str, *names) -> Optional[dict]:
        for name in names:
            rec = self.by_rid.get((name, rid))
            if rec is not None:
                return rec
        return None

    def hop(self, service: dict):
        """``(work, wait)`` of one service call: the executed span (its
        own or its batch's) and the batcher wait before it started."""
        kids = self.children.get(service["id"], ())
        work = next((c for c in kids if c["name"] == "service.exec"),
                    self.groups.get(service["rid"]))
        submit = next((c for c in kids if c["name"] == "batcher.submit"),
                      None)
        if work is None or submit is None:
            return work, None
        return work, max(0.0, work["start"] - submit["end"])

    def service_node(self, service: dict) -> Node:
        work, wait = self.hop(service)
        extra = []
        if work is not None and work["name"] == "service.group":
            extra.append(self.node(work))
        if wait:
            extra.append(Node("batcher", work["start"] - wait, work["start"]))
        return self.node(service, extra=extra)

    def request_tree(self, rid: str, op: str, send: float,
                     recv: float) -> Node:
        """A served request as one tree rooted at the client call."""
        front = self.find(rid, f"supervisor.{op}", f"service.{op}")
        if front is None:
            return Node(UNATTRIBUTED, send, recv)
        if front["name"].startswith("supervisor."):
            worker = self.find(rid, f"service.{op}")
            top = (Node("supervisor", front["start"], front["end"],
                        [self.service_node(worker)])
                   if worker is not None
                   else Node(UNATTRIBUTED, front["start"], front["end"]))
        else:
            top = self.service_node(front)
        return Node("http", send, recv, [top])

    def outermost(self, recs: list, prefix: str) -> list:
        """``recs`` minus those nested directly in a ``prefix`` span."""
        return [r for r in recs
                if not self.by_id.get(r["parent"], {"name": ""})["name"]
                .startswith(prefix)]


def serving_units(index: SpanIndex, calls: List[dict]):
    """Request trees plus per-request layer times (seconds) and waits.

    ``calls`` are the client records: ``rid``, ``op``, ``send``, ``recv``.
    """
    memo: dict = {}
    units, per_request = [], []
    for call in calls:
        tree = index.request_tree(call["rid"], call["op"], call["send"],
                                  call["recv"])
        parts = dict(breakdown(tree, memo))
        service = index.find(call["rid"], f"service.{call['op']}")
        work, wait = index.hop(service) if service else (None, None)
        parts["wait"] = wait
        parts["grouped"] = bool(work and work["name"] == "service.group")
        units.append(tree)
        per_request.append(parts)
    return units, per_request


def paper_units(index: SpanIndex, windows: List[tuple]) -> List[Node]:
    """One tree per dataset window, rooted at its unattributed time."""
    tops = [r for r in index.records if r["parent"] is None]
    return [Node(UNATTRIBUTED, lo, hi,
                 [index.node(r) for r in tops if lo <= r["start"] <= hi])
            for lo, hi in windows]


def layer_metrics(index: SpanIndex, units: List[Node], windows: List[tuple],
                  requests: int, per_request: Optional[List[dict]] = None,
                  late: Iterable[float] = ()) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``units`` are the trees whose self times make up the end-to-end
    time; ``windows`` the timed phases; ``requests`` the work count the
    ``*_per_req`` ratios divide by; ``per_request`` the serving request
    breakdowns; ``late`` the open-loop generator lateness (seconds).
    """
    timed = [r for r in index.records
             if any(lo <= r["start"] <= hi for lo, hi in windows)]

    def named(*names):
        return [r for r in timed if r["name"] in names]

    def ms(recs):
        return [(r["end"] - r["start"]) * 1e3 for r in recs]

    def total(recs):
        return float(sum(r["end"] - r["start"] for r in recs))

    memo: dict = {}
    layer_s = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
    unit_unattributed = []
    for unit in units:
        parts = breakdown(unit, memo)
        for layer, seconds in parts.items():
            layer_s[layer] += seconds
        unit_unattributed.append(parts.get(UNATTRIBUTED, 0.0))
    e2e = float(sum(unit.end - unit.start for unit in units))
    per_request = per_request or []

    def per_req(key):
        return [p[key] * 1e3 for p in per_request if p.get(key) is not None]

    work = named(*EXEC_NAMES)
    busy = sum(covered([(r["start"], r["end"]) for r in work], lo, hi)
               for lo, hi in windows)
    span_time = sum(hi - lo for lo, hi in windows)
    restores = index.outermost(
        named("checkpoint.load", "checkpoint.restore_latest"), "checkpoint.")
    evals = named("models.predict_next_with_mask",
                  "models.predict_next_batch_with_mask")
    loops = named(*LOOP_NAMES)
    loop_ids = {r["id"] for r in loops}
    steps = [r for r in named("rl.policy_weights") if r["parent"] in loop_ids]
    loop_self = float(sum(index.own(r) for r in loops))
    n = max(requests, 1)
    metrics = {
        "trace.e2e_s": e2e,
        "coverage": 1.0 - layer_s[UNATTRIBUTED] / e2e if e2e else 0.0,
        "unattributed_s": layer_s[UNATTRIBUTED],
        "unattributed_ms_p50": pct([x * 1e3 for x in unit_unattributed], 50),
        f"client.late_ms_p{TAIL}": pct([x * 1e3 for x in late], TAIL),
        "http.self_ms_p50": pct(per_req("http"), 50),
        f"http.self_ms_p{TAIL}": pct(per_req("http"), TAIL),
        "supervisor.rpc_ms_p50": pct(per_req("supervisor"), 50),
        f"supervisor.rpc_ms_p{TAIL}": pct(per_req("supervisor"), TAIL),
        "service.self_ms_p50": pct(per_req("service"), 50),
        "service.busy_share": busy / span_time if span_time else 0.0,
        "batcher.wait_ms_p50": pct(per_req("wait"), 50),
        f"batcher.wait_ms_p{TAIL}": pct(per_req("wait"), TAIL),
        "batcher.batch_size_mean": (
            sum(len(r["rid"]) if isinstance(r["rid"], list) else 1
                for r in work) / len(work) if work else 0.0),
        "batcher.grouped_share": (
            sum(p["grouped"] for p in per_request) / len(per_request)
            if per_request else 0.0),
        "store.acquire_ms_p50": pct(ms(named("store.acquire")), 50),
        f"store.acquire_ms_p{TAIL}": pct(ms(named("store.acquire")), TAIL),
        "store.restores_per_req": len(restores) / n,
        "checkpoint.save_ms_p50": pct(ms(named("checkpoint.save")), 50),
        "checkpoint.saves_per_req": len(named("checkpoint.save")) / n,
        "checkpoint.load_ms_p50": pct(ms(restores), 50),
        "session.apply_ms_p50": pct(ms(named("session.apply_forecast")), 50),
        "models.fit_s": total(named("models.fit")),
        "models.matrix_s": total(index.outermost(
            named("models.prediction_matrix",
                  "models.prediction_matrix_with_mask"),
            "models.prediction_matrix")),
        "models.eval_ms_p50": pct(ms(evals), 50),
        "models.eval_calls_per_req": len(evals) / n,
        "rl.update_s": total(named("rl.update")),
        "rl.update_calls": float(len(named("rl.update"))),
        "rl.train_self_s": float(sum(index.own(r)
                                     for r in named("rl.train"))),
        "rl.act_s": total(named("rl.act")),
        "rl.act_calls": float(len(named("rl.act"))),
        "rl.forward_ms_p50": pct(ms(named("rl.policy_weights",
                                          "rl.policy_weights_batch")), 50),
        "core.loop_self_s": loop_self,
        "core.online_step_us": loop_self / len(steps) * 1e6 if steps else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_s[layer]
    return metrics
