"""Load generator of the serving workloads: one process, two lanes.

Each lane is one thread with at most one connection open and one
request in flight (so at most two threads and two connections). Tenant
``i`` always travels on lane ``i % 2``, so every tenant's ``seq`` stays
strictly increasing with no gaps.

- closed loop: callers that wait for their reply. Each lane keeps one
  keep-alive connection and sends its next request when the previous
  one is answered, for a fixed duration.
- open loop: independent users. Requests are due on a uniform schedule
  at a fixed total rate, alternating lanes, each on a new connection (a
  kept-alive connection would carry the kernel's delayed-ACK state from
  one request into the next). A request is timed from its due time, so
  a stall also delays the requests queued behind it, and ``sent - due``
  is the generator's lateness.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, List

import numpy as np

LANES = 2


class Tenant:
    """Client-side state of one session: its inputs and what it saw."""

    def __init__(self, sid: str, series: np.ndarray, history: int):
        self.sid = sid
        self.history = series[:history]
        self.stream = series[history:]
        self.observed = 0
        self.predicts = 0
        self.log: list = []  # (op, y, response) in send order

    def next_observe(self):
        """``(seq, y)`` of the tenant's next observation."""
        y = float(self.stream[self.observed])
        self.observed += 1
        return self.observed, y


class OpStream:
    """The deterministic request sequence of one lane."""

    def __init__(self, lane: int, tenants: int, predict_share: float,
                 round_robin: bool, seed: int):
        self.mine = list(range(lane, tenants, LANES))
        self.predict_share = predict_share
        self.round_robin = round_robin
        self.rng = np.random.default_rng([seed, lane])
        self.cursor = 0

    def next(self):
        """``(tenant index, op)``; op is ``"observe"`` or ``"predict"``."""
        if self.round_robin:
            index = self.mine[self.cursor % len(self.mine)]
            self.cursor += 1
        else:
            index = self.mine[int(self.rng.integers(len(self.mine)))]
        op = ("predict" if self.predict_share
              and self.rng.random() < self.predict_share else "observe")
        return index, op


class Client:
    """One HTTP/1.1 connection to the server under test."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=30)

    def call(self, method: str, path: str, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = json.loads(response.read() or b"null")
        return response.status, data

    def close(self) -> None:
        self.conn.close()


def send(client: Client, tenant: Tenant, op: str,
         clock: Callable[[], float] = time.perf_counter) -> dict:
    """One observe or predict; returns the call record."""
    if op == "observe":
        seq, y = tenant.next_observe()
        rid = f"{tenant.sid}#{seq}"
        send_at = clock()
        status, data = client.call(
            "POST", f"/v1/sessions/{tenant.sid}/observe", {"y": y, "seq": seq})
    else:
        tenant.predicts += 1
        y = None
        rid = f"{tenant.sid}#p{tenant.predicts}"
        send_at = clock()
        status, data = client.call(
            "GET", f"/v1/sessions/{tenant.sid}/predict")
    recv_at = clock()
    tenant.log.append((op, y, data if status == 200 else None))
    return {"rid": rid, "op": op, "send": send_at, "recv": recv_at,
            "ok": status == 200}


def run_schedule(dues: List[float], fire: Callable[[], dict],
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep) -> List[dict]:
    """Fire one request per due time, never early; record lateness.

    ``due`` is when the request should have been sent, ``late`` how far
    behind the schedule the generator sent it, ``latency`` the time from
    due to answer.
    """
    records = []
    for due in dues:
        now = clock()
        if now < due:
            sleep(due - now)
        record = fire()
        record["due"] = due
        record["late"] = max(0.0, record["send"] - due)
        record["latency"] = record["recv"] - due
        records.append(record)
    return records


def run_lanes(target, args_per_lane) -> None:
    errors: list = []

    def guarded(*args):
        try:
            target(*args)
        except BaseException as err:  # noqa: BLE001 - re-raised below
            errors.append(err)

    threads = [threading.Thread(target=guarded, args=args)
               for args in args_per_lane]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(port: int, streams: List[OpStream], tenants: List[Tenant],
                seconds: float) -> List[dict]:
    """Both lanes back to back on keep-alive connections for ``seconds``."""
    out: List[list] = [[] for _ in streams]
    end = time.perf_counter() + seconds

    def drive(lane: int) -> None:
        client = Client(port)
        try:
            while time.perf_counter() < end:
                index, op = streams[lane].next()
                out[lane].append(send(client, tenants[index], op))
        finally:
            client.close()

    run_lanes(drive, [(lane,) for lane in range(len(streams))])
    return [r for records in out for r in records]


def open_loop(port: int, streams: List[OpStream], tenants: List[Tenant],
              count: int, rate: float) -> List[dict]:
    """``count`` requests due at ``rate`` per second, alternating lanes
    (request ``k`` goes on lane ``k % 2``), one connection each."""
    t0 = time.perf_counter() + 0.05
    out: List[list] = [[] for _ in streams]

    def drive(lane: int) -> None:
        dues = [t0 + k / rate for k in range(lane, count, len(streams))]

        def fire():
            index, op = streams[lane].next()
            client = Client(port)
            try:
                return send(client, tenants[index], op)
            finally:
                client.close()

        out[lane] = run_schedule(dues, fire)

    run_lanes(drive, [(lane,) for lane in range(len(streams))])
    return sorted((r for records in out for r in records),
                  key=lambda r: r["due"])
