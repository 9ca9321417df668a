"""Bench SERVING — multi-tenant one-step forecasting under concurrency.

Drives a :class:`repro.serving.ForecastService` in-process with many
concurrent client threads, each feeding realised values into its own
online session, and reports sustained throughput plus one-step latency
percentiles (p50/p95/p99). The LRU store is deliberately smaller than
the tenant count so the run continuously exercises the checkpoint
spill/restore path, and a twin always-resident session double-checks
the acceptance criterion that an evicted-then-restored session stays
bit-identical.

Acceptance gates (hard at full scale, reported-only under ``--quick``
where noted):

- >= 100 concurrent sessions served with every request answered
  (full scale; ``--quick`` runs a smaller fleet for CI smoke);
- eviction/restore bit-identity (gated in both modes);
- a clean ``shutdown()`` spilling every resident session (both modes).

An HTTP smoke phase then starts the stdlib frontend on an ephemeral
port, runs one session through create/observe/predict/delete plus a
``/metrics`` scrape, and shuts the server down — proving the wire path
end to end. A distributed-tracing phase follows: the 4-shard supervised
runtime is driven over HTTP with tracing on, the per-process JSONL
trace files are assembled, and every observe trace must cover >= 95%
of its request wall time with spans from both sides of the process
boundary (frontend and shard worker), in one tree that holds the
request's own ``pool.eval`` and ``actor.forward`` (gated in both
modes). Results land in
``BENCH_serving.json`` (plus the raw ``BENCH_serving_traces.jsonl``
artifact) for CI upload.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.core import EADRL, EADRLConfig
from repro.models.base import (
    MeanForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
)
from repro.models.ets import SimpleExpSmoothing
from repro.rl.ddpg import DDPGConfig
from repro.serving import (
    ForecastHTTPServer,
    ForecastService,
    ModelBundle,
    ServiceConfig,
)

import tempdirs

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"
MIN_SESSIONS_FULL = 104


def make_bundle(seed: int = 7) -> tuple:
    """Fit a small EADRL on synthetic data; returns (bundle, series)."""
    rng = np.random.default_rng(seed)
    t = np.arange(320)
    series = (
        12.0 + 0.02 * t + 2.5 * np.sin(2 * np.pi * t / 12)
        + rng.normal(0, 0.4, t.size)
    )
    model = EADRL(
        models=[
            NaiveForecaster(),
            MeanForecaster(),
            SeasonalNaiveForecaster(12),
            SimpleExpSmoothing(),
        ],
        config=EADRLConfig(
            window=8, episodes=3, max_iterations=20,
            ddpg=DDPGConfig(seed=0, warmup_steps=16, batch_size=8),
        ),
    )
    model.fit(series[:200])
    return ModelBundle.from_estimator(model, mode="drift"), series


def run_load(service, series, *, sessions: int, steps: int) -> dict:
    """One client thread per session; returns latency/throughput stats."""
    for i in range(sessions):
        service.create_session(f"tenant-{i:04d}", series[:200])

    latencies = [[] for _ in range(sessions)]
    failures = []
    start_barrier = threading.Barrier(sessions + 1)

    def client(worker: int) -> None:
        sid = f"tenant-{worker:04d}"
        rng = np.random.default_rng(worker)
        start_barrier.wait()
        for step in range(steps):
            value = float(series[200 + step] + rng.normal(0, 0.05))
            t0 = time.perf_counter()
            try:
                service.observe(sid, value)
            except Exception as err:  # noqa: BLE001 - recorded, reported
                failures.append((sid, step, repr(err)))
                return
            latencies[worker].append(time.perf_counter() - t0)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(sessions)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0

    flat = np.array([s for per in latencies for s in per])
    completed = int(flat.size)
    return {
        "sessions": sessions,
        "steps_per_session": steps,
        "requests_completed": completed,
        "requests_failed": len(failures),
        "failures_sample": failures[:5],
        "elapsed_seconds": elapsed,
        "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "p50": float(np.percentile(flat, 50) * 1e3),
            "p95": float(np.percentile(flat, 95) * 1e3),
            "p99": float(np.percentile(flat, 99) * 1e3),
            "max": float(flat.max() * 1e3),
        } if completed else None,
    }


def check_spill_bit_identity(bundle, series, *, steps: int) -> dict:
    """Acceptance: evicted-then-restored == always-resident, exactly."""
    resident = bundle.create_session("twin", series[:200])
    workdir = tempdirs.mkdtemp("bench-serving-spill-")
    service = ForecastService(
        bundle, ServiceConfig(max_sessions=2, spill_dir=workdir)
    )
    evictions = 0
    try:
        service.create_session("twin", series[:200])
        mismatches = 0
        for i in range(steps):
            value = float(series[200 + i])
            if i % 5 == 2:
                # Churn two fillers through the 2-slot store so "twin"
                # keeps round-tripping through disk.
                for filler in ("churn-a", "churn-b"):
                    if filler not in service.store:
                        service.create_session(filler, series[:200])
                    service.predict(filler)
            via_service = service.observe("twin", value)["forecast"]
            if via_service != resident.observe(value):
                mismatches += 1
        evictions = service.store.stats()["evictions"]
    finally:
        service.shutdown()
    return {
        "steps": steps,
        "evictions": int(evictions),
        "mismatches": mismatches,
        "bit_identical": mismatches == 0 and evictions > 0,
    }


def check_batched_bit_identity(
    bundle, series, *, sessions: int = 12, steps: int = 30
) -> dict:
    """Acceptance: served observes == the serial step, exactly.

    A service and one twin session per tenant (built with
    ``bundle.create_session``, stepped by ``SeriesSession.observe``) are
    driven in lockstep: every step, all tenants submit concurrently to
    the service (its admission gate runs them one at a time, each on
    its caller's thread) and serially to their twins. Forecasts are compared
    bitwise per step, and at the end every checkpoint array of every
    session (policy network parameters, replay ring, state window, RNG
    state) must match to the byte.
    """
    service = ForecastService(bundle, ServiceConfig(
        max_sessions=sessions + 4,
        spill_dir=tempdirs.mkdtemp("bench-serving-batched-"),
        queue_limit=max(64, 4 * sessions),
    ))
    ids = [f"pair-{i:03d}" for i in range(sessions)]
    twins = {}
    forecast_mismatches = 0
    state_mismatches = 0
    failures = []
    try:
        for sid in ids:
            service.create_session(sid, series[:200])
            twins[sid] = bundle.create_session(sid, series[:200])
        for step in range(steps):
            value = float(series[200 + step])
            batched_out: dict = {}
            barrier = threading.Barrier(sessions)

            def client(sid: str) -> None:
                barrier.wait()
                try:
                    batched_out[sid] = service.observe(sid, value)
                except Exception as err:  # noqa: BLE001 - recorded
                    failures.append((sid, step, repr(err)))

            threads = [
                threading.Thread(target=client, args=(sid,))
                for sid in ids
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for sid in ids:
                serial_fc = twins[sid].observe(value)
                if sid not in batched_out:
                    continue
                if np.float64(batched_out[sid]["forecast"]) != np.float64(
                    serial_fc
                ):
                    forecast_mismatches += 1
        for sid in ids:
            with service.store.acquire(sid) as session:
                arrays1, _ = session.checkpoint_state()
            arrays2, _ = twins[sid].checkpoint_state()
            for key in set(arrays1) | set(arrays2):
                if key not in arrays1 or key not in arrays2 or (
                    not np.array_equal(arrays1[key], arrays2[key])
                ):
                    state_mismatches += 1
        served_requests = sessions * steps - len(failures)
    finally:
        service.shutdown()
    return {
        "sessions": sessions,
        "steps": steps,
        "served_requests": int(served_requests),
        "forecast_mismatches": forecast_mismatches,
        "state_mismatches": state_mismatches,
        "request_failures": len(failures),
        "failures_sample": failures[:5],
        "bit_identical": (
            forecast_mismatches == 0
            and state_mismatches == 0
            and len(failures) == 0
            and served_requests > 0
        ),
    }


def _is_one_tree(trace) -> bool:
    """One root, no orphaned span, and the served work (``pool.eval``,
    ``actor.forward``, any ``store.*``) inside the request's own tree."""
    roots = [s for s in trace.spans if s.parent_id is None]
    names = {s.name for s in trace.spans}
    return (
        trace.orphans == 0
        and len(roots) == 1
        and {"pool.eval", "actor.forward"} <= names
    )


def check_trace_coverage(
    bundle,
    series,
    *,
    sessions: int = 8,
    steps: int = 6,
    shards: int = 4,
    artifact: Path = None,
) -> dict:
    """Acceptance: assembled traces explain the supervised request path.

    Runs the shard-supervised runtime behind the HTTP frontend with
    ``trace_dir`` set, drives concurrent observes (one with a pinned
    ``X-Trace-Id``), then assembles the per-process trace files and
    checks that every observe trace covers >= 95% of its request wall
    time, crosses the frontend/worker process boundary, and is one tree
    holding its own served work.
    """
    from repro.obs import assemble_trace_dir, iter_trace_records
    from repro.serving import make_service

    trace_dir = tempdirs.mkdtemp("bench-serving-traces-")
    service = make_service(bundle, ServiceConfig(
        shards=shards,
        max_sessions=max(16, sessions),
        spill_dir=tempdirs.mkdtemp("bench-serving-shards-"),
        queue_limit=max(256, 4 * sessions),
        deadline=30.0,
        trace_dir=trace_dir,
    ))
    server = ForecastHTTPServer(service, port=0).start()
    host, port = server.address
    base = f"http://{host}:{port}"
    pinned_id = "feedbeefcafef00d"

    def post(path, body, headers=None):
        req = urllib.request.Request(
            base + path, data=json.dumps(body).encode()
        )
        req.add_header("Content-Type", "application/json")
        for key, value in (headers or {}).items():
            req.add_header(key, value)
        with urllib.request.urlopen(req, timeout=30) as resp:
            return json.loads(resp.read()), dict(resp.headers)

    failures = []
    echoed = False
    try:
        for i in range(sessions):
            post("/v1/sessions", {
                "session": f"trace-{i:03d}",
                "history": series[:200].tolist(),
            })
        barrier = threading.Barrier(sessions)

        def client(i: int) -> None:
            sid = f"trace-{i:03d}"
            barrier.wait()
            for step in range(steps):
                try:
                    post(f"/v1/sessions/{sid}/observe",
                         {"y": float(series[200 + step]), "seq": step})
                except Exception as err:  # noqa: BLE001 - recorded
                    failures.append((sid, step, repr(err)))
                    return

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # A client-supplied trace id must be adopted and echoed back.
        _, headers = post(
            "/v1/sessions/trace-000/observe",
            {"y": float(series[200 + steps]), "seq": steps},
            headers={"X-Trace-Id": pinned_id},
        )
        echoed = headers.get("X-Trace-Id") == pinned_id
    finally:
        server.shutdown()

    assembler = assemble_trace_dir(trace_dir)
    observes = [
        t for t in assembler.traces()
        if t.root is not None and t.root.name == "http.request"
        and str(t.root.attrs.get("path", "")).endswith("/observe")
    ]
    coverages = [t.coverage() for t in observes]
    worst = min(coverages) if coverages else 0.0
    cross_process = sum(1 for t in observes if len(t.processes) >= 2)
    one_tree = sum(1 for t in observes if _is_one_tree(t))
    if artifact is not None:
        files = sorted(Path(trace_dir).glob("*.jsonl"))
        with artifact.open("w", encoding="utf-8") as handle:
            for record in iter_trace_records(files):
                handle.write(json.dumps(record) + "\n")
    result = {
        "sessions": sessions,
        "steps": steps,
        "shards": shards,
        "observe_traces": len(observes),
        "request_failures": len(failures),
        "failures_sample": failures[:5],
        "coverage_min": worst,
        "coverage_mean": (
            sum(coverages) / len(coverages) if coverages else 0.0
        ),
        "cross_process_traces": cross_process,
        "one_tree_traces": one_tree,
        "pinned_trace_found": assembler.trace(pinned_id) is not None,
        "trace_id_echoed": echoed,
        "spans_dropped": assembler.spans_dropped,
        "malformed_lines": assembler.malformed_lines,
        "trace_artifact": str(artifact) if artifact is not None else None,
    }
    result["ok"] = (
        len(failures) == 0
        and len(observes) > 0
        and worst >= 0.95
        and cross_process == len(observes)
        and one_tree == len(observes)
        and result["pinned_trace_found"]
        and echoed
        and assembler.spans_dropped == 0
    )
    return result


def http_smoke(bundle, series) -> dict:
    """Create/observe/predict/delete + /metrics over the wire."""
    service = ForecastService(
        bundle,
        ServiceConfig(
            max_sessions=8,
            spill_dir=tempdirs.mkdtemp("bench-serving-http-"),
        ),
    )
    server = ForecastHTTPServer(service, port=0).start()
    host, port = server.address
    base = f"http://{host}:{port}"

    def call(method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(base + path, data=data, method=method)
        if data is not None:
            req.add_header("Content-Type", "application/json")
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read()

    try:
        checks = {}
        status, _ = call("POST", "/v1/sessions", {
            "session": "wire", "history": series[:200].tolist(),
        })
        checks["create"] = status == 201
        status, raw = call("POST", "/v1/sessions/wire/observe",
                           {"y": float(series[200])})
        checks["observe"] = bool(
            status == 200 and np.isfinite(json.loads(raw)["forecast"])
        )
        status, _ = call("GET", "/v1/sessions/wire/predict")
        checks["predict"] = status == 200
        status, raw = call("GET", "/metrics")
        checks["metrics"] = status == 200
        status, _ = call("DELETE", "/v1/sessions/wire")
        checks["delete"] = status == 200
        status, _ = call("GET", "/healthz")
        checks["healthz"] = status == 200
    finally:
        server.shutdown()
    checks["ok"] = all(checks.values())
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=120,
                        help="concurrent tenant sessions (default 120)")
    parser.add_argument("--steps", type=int, default=25,
                        help="observations per session (default 25)")
    parser.add_argument("--max-resident", type=int, default=64,
                        help="LRU capacity; < sessions forces spill "
                        "churn during the load phase (default 64)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small fleet, the >=100-"
                        "session gate is not enforced")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    if args.quick:
        args.sessions = min(args.sessions, 24)
        args.steps = min(args.steps, 10)
        args.max_resident = min(args.max_resident, 16)

    cores = len(os.sched_getaffinity(0))
    print(f"sessions={args.sessions} steps={args.steps} "
          f"max_resident={args.max_resident} cores={cores}")

    t0 = time.perf_counter()
    bundle, series = make_bundle()
    fit_seconds = time.perf_counter() - t0
    print(f"model fitted in {fit_seconds:.2f}s")

    service = ForecastService(bundle, ServiceConfig(
        max_sessions=args.max_resident,
        spill_dir=tempdirs.mkdtemp("bench-serving-load-"),
        queue_limit=max(512, 4 * args.sessions),
        deadline=30.0,
    ))
    try:
        load = run_load(
            service, series, sessions=args.sessions, steps=args.steps
        )
        store_stats = service.store.stats()
    finally:
        shutdown_summary = service.shutdown()
    clean_shutdown = (
        shutdown_summary.get("spilled", -1)
        == store_stats["resident"]
    )
    if load["latency_ms"]:
        print(f"throughput {load['throughput_rps']:8.1f} req/s   "
              f"p50 {load['latency_ms']['p50']:7.2f}ms   "
              f"p95 {load['latency_ms']['p95']:7.2f}ms   "
              f"p99 {load['latency_ms']['p99']:7.2f}ms")
    print(f"evictions {store_stats['evictions']}  "
          f"restores {store_stats['restores']}  "
          f"shutdown spilled {shutdown_summary.get('spilled')} "
          f"(clean={clean_shutdown})")

    spill = check_spill_bit_identity(
        bundle, series, steps=30 if args.quick else 60
    )
    print(f"spill bit-identity: evictions={spill['evictions']} "
          f"mismatches={spill['mismatches']}")

    batched = check_batched_bit_identity(
        bundle, series,
        sessions=8 if args.quick else 12,
        steps=15 if args.quick else 30,
    )
    print(f"served bit-identity: "
          f"served_requests={batched['served_requests']} "
          f"forecast_mismatches={batched['forecast_mismatches']} "
          f"state_mismatches={batched['state_mismatches']}")

    http = http_smoke(bundle, series)
    print(f"http smoke: {'ok' if http['ok'] else 'FAILED'} ({http})")

    trace = check_trace_coverage(
        bundle, series,
        sessions=6 if args.quick else 10,
        steps=4 if args.quick else 8,
        artifact=args.output.parent / "BENCH_serving_traces.jsonl",
    )
    print(f"trace coverage: {'ok' if trace['ok'] else 'FAILED'} "
          f"(observe_traces={trace['observe_traces']} "
          f"min={trace['coverage_min']:.3f} "
          f"mean={trace['coverage_mean']:.3f} "
          f"one_tree={trace['one_tree_traces']})")

    all_served = load["requests_failed"] == 0 and (
        load["requests_completed"]
        == load["sessions"] * load["steps_per_session"]
    )
    result = {
        "bench": "serving",
        "quick": args.quick,
        "cpu_count": cores,
        "python": platform.python_version(),
        "fit_seconds": fit_seconds,
        "load": load,
        "store": store_stats,
        "clean_shutdown": clean_shutdown,
        "all_requests_served": all_served,
        "spill_bit_identity": spill,
        "batched_bit_identity": batched,
        "http_smoke": http,
        "trace_coverage": trace,
        "min_sessions_gate": None if args.quick else MIN_SESSIONS_FULL,
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = []
    if not all_served:
        failed.append(
            f"{load['requests_failed']} request(s) failed during load"
        )
    if not spill["bit_identical"]:
        failed.append("evicted/restored session diverged from resident twin")
    if not batched["bit_identical"]:
        failed.append(
            "served observes diverged from the serial session step "
            "(or no dispatch ran)"
        )
    if not clean_shutdown:
        failed.append("shutdown did not spill every resident session")
    if not http["ok"]:
        failed.append("http smoke phase failed")
    if not trace["ok"]:
        failed.append(
            "distributed-trace phase failed (coverage < 95%, missing "
            "cross-process spans, or an observe trace in several trees)"
        )
    if not args.quick and args.sessions < MIN_SESSIONS_FULL:
        failed.append(
            f"full-scale run needs >= {MIN_SESSIONS_FULL} sessions, "
            f"got {args.sessions}"
        )
    if failed:
        for message in failed:
            print(f"ERROR: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(tempdirs.run(main))
