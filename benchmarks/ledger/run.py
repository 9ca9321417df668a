"""One ledger run: a workload, its metrics, its output check.

Run from the repository root::

    python3 benchmarks/ledger/run.py --workload paper --seed 0 \
        --seconds 16 --trace 0

Workloads: ``paper`` (the offline Table-II/III path in one child
process) and ``serve_resident`` / ``serve_spill`` / ``serve_sharded``
(HTTP serving against a server process started from ``server.py``).
``--seed`` generates the inputs only. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics, timed from
outside by the wrappers in ``spans.py``; a traced run also writes every
span to ``benchmarks/ledger/out/trace-<workload>.jsonl``.

Standard output ends with one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). Every run appends a
row to ``history.jsonl`` (or ``--history``). Exit status 0 when the
outputs check out, 1 when they do not, 2 when the program under test is
missing.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import loadgen
import workloads
from analysis import (TAIL, SpanIndex, layer_metrics, paper_units, pct,
                      serving_units, supports)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Open-loop arrival rate (requests/s): below the ~41 rps closed-loop
#: ceiling, so the schedule keeps up and the latency is the service's.
OPEN_RATE = 30.0
#: Share of ``--seconds`` spent in the closed loop; the rest is open loop.
CLOSED_SHARE = 0.25
#: A forecast worse than this multiple of the uniform ensemble's RMSE on
#: any dataset fails the paper check (seeds without a pinned digest).
RMSE_SANITY = 2.0
CHILD_TIMEOUT = 170.0

#: Metric names and units come from the benchmark definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Process helpers
# ----------------------------------------------------------------------
def tree_pids(pid: int) -> list:
    """``pid`` and all its descendants (via /proc children lists)."""
    pids, queue = [], [pid]
    while queue:
        current = queue.pop()
        pids.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as handle:
                    queue.extend(int(p) for p in handle.read().split())
            except FileNotFoundError:
                pass
    return pids


def peak_rss_mb(pid: int) -> float:
    """Summed VmHWM over the process tree rooted at ``pid``."""
    total_kb = 0
    for child in tree_pids(pid):
        try:
            with open(f"/proc/{child}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except FileNotFoundError:
            pass
    return total_kb / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)


def read_spans(paths) -> list:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle)
    return records


def keep_trace(workload: str, records: list) -> None:
    with open(OUT / f"trace-{workload}.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


# ----------------------------------------------------------------------
# paper
# ----------------------------------------------------------------------
def paper_child(seed: int, trace: int, out: Path, setup_only: bool):
    cmd = [sys.executable, str(HERE / "paper.py"), "--seed", str(seed),
           "--trace", str(trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        stop(proc)
    if code != 0:
        raise RuntimeError(f"paper child exited with {code}")
    result = json.loads(out.read_text())
    return result, result["ready"] - launched


def run_paper(seed: int, trace: int, workdir: Path) -> dict:
    # Set-up is measured three times, before and after the pipeline, so
    # its median does not hinge on the host's load at one moment.
    setups = [paper_child(seed, 0, workdir / "before.json", True)[1]]
    out = workdir / "paper.json"
    result, setup = paper_child(seed, trace, out, False)
    setups.append(setup)
    setups.append(paper_child(seed, 0, workdir / "after.json", True)[1])
    datasets = result["datasets"]
    steps_ms = [s * 1e3 for s in result["steps"]]
    failed = sum(
        1 for d in datasets
        if not d["finite"]
        or d["rmse_online"] > RMSE_SANITY * d["rmse_uniform"])
    expected = json.loads((HERE / "expected.json").read_text())
    pinned = expected["paper_digest"].get(str(seed))
    if pinned is not None and pinned != result["digest"]:
        log(f"paper: forecast digest {result['digest']} != pinned {pinned}")
        failed = len(datasets)
    run = {
        "attempted": len(datasets), "failed": failed,
        "digest": result["digest"], "samples": len(steps_ms),
        "tail_ms": pct(steps_ms, TAIL),
        "e2e": {
            "setup_s": statistics.median(setups),
            "wall_s": datasets[-1]["end"] - datasets[0]["start"],
            # Median over datasets: each online loop lasts only ~60 ms,
            # so one host hiccup would swing a pooled rate.
            "throughput_rps": statistics.median(
                d["online_steps"] / d["online_s"] for d in datasets),
            "p50_ms": pct(steps_ms, 50),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        },
    }
    if trace:
        records = read_spans([str(out) + ".spans.jsonl"])
        keep_trace("paper", records)
        index = SpanIndex(records)
        windows = [(d["start"], d["end"]) for d in datasets]
        run["layers"] = layer_metrics(
            index, paper_units(index, windows), windows,
            requests=len(steps_ms))
    return run


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def wait_ready(proc: subprocess.Popen, timeout: float) -> int:
    """Port from the server's ``READY <port>`` line."""
    deadline = time.monotonic() + timeout
    line = ""
    while not line.endswith("\n"):
        left = deadline - time.monotonic()
        if left <= 0 or proc.poll() is not None:
            raise RuntimeError("server did not become ready")
        readable, _, _ = select.select([proc.stdout], [], [], left)
        if readable:
            chunk = os.read(proc.stdout.fileno(), 256).decode()
            if not chunk:
                raise RuntimeError("server closed its output before ready")
            line += chunk
    word, port = line.split()
    if word != "READY":
        raise RuntimeError(f"unexpected server output {line!r}")
    return int(port)


def set_up_tenants(port: int, tenants) -> None:
    """Create every tenant, then one untimed warm-up observe each; tenant
    ``i`` on lane ``i % 2`` so its ``seq`` stream stays ordered."""
    def drive(lane: int) -> None:
        mine = tenants[lane::loadgen.LANES]
        client = loadgen.Client(port)
        try:
            for tenant in mine:
                status, body = client.call(
                    "POST", "/v1/sessions",
                    {"session": tenant.sid,
                     "history": tenant.history.tolist()})
                if status != 201:
                    raise RuntimeError(
                        f"create {tenant.sid}: {status} {body}")
            for tenant in mine:
                if not loadgen.send(client, tenant, "observe")["ok"]:
                    raise RuntimeError(
                        f"warm-up observe of {tenant.sid} failed")
        finally:
            client.close()

    loadgen.run_lanes(drive, [(lane,) for lane in range(loadgen.LANES)])


def replay_twins(tenants) -> int:
    """Replay every tenant's stream through a local twin session built
    from an identically fitted bundle; count responses that differ."""
    bundle = workloads.fit_bundle()
    mismatches = 0
    for tenant in tenants:
        twin = bundle.create_session(tenant.sid, tenant.history)
        for op, y, response in tenant.log:
            forecast = twin.observe(y) if op == "observe" else twin.predict()
            if response is None:
                break  # counted as failed; the twin cannot follow on
            if (response["forecast"] != float(forecast)
                    or op == "observe" and response["step"] != twin.step):
                mismatches += 1
    return mismatches


def run_serving(workload: str, seed: int, seconds: float, trace: int,
                workdir: Path) -> dict:
    shape = workloads.SERVING[workload]
    tenants = [loadgen.Tenant(workloads.tenant_id(i), series,
                              workloads.HISTORY)
               for i, series in enumerate(
                   workloads.tenant_series(seed, shape.tenants))]
    streams = [loadgen.OpStream(c, shape.tenants, shape.predict_share,
                                shape.round_robin, seed)
               for c in range(loadgen.LANES)]
    server_log = open(workdir / "server.log", "w")
    launched = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "server.py"), "--workload", workload,
         "--workdir", str(workdir), "--trace", str(trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=server_log,
        env=child_env(), cwd=ROOT)
    try:
        port = wait_ready(proc, CHILD_TIMEOUT / 2)
        set_up_tenants(port, tenants)
        setup = time.perf_counter() - launched
        closed_s = seconds * CLOSED_SHARE
        closed_start = time.perf_counter()
        closed = loadgen.closed_loop(port, streams, tenants, closed_s)
        closed_end = time.perf_counter()
        opened = loadgen.open_loop(port, streams, tenants,
                                   int(OPEN_RATE * (seconds - closed_s)),
                                   OPEN_RATE)
        open_end = max(r["recv"] for r in opened)
        rss = peak_rss_mb(proc.pid)
        proc.stdin.write(b"stop\n")
        proc.stdin.close()
        code = proc.wait(timeout=60)
        if code != 0:
            raise RuntimeError(f"server exited with {code}")
    finally:
        stop(proc)
        server_log.close()
    calls = closed + opened
    failed = sum(1 for r in calls if not r["ok"])
    mismatches = replay_twins(tenants)
    if mismatches:
        log(f"{workload}: {mismatches} response(s) differ from the twin")
    latency_ms = [r["latency"] * 1e3 for r in opened]
    run = {
        "attempted": len(calls), "failed": failed + mismatches,
        "samples": len(latency_ms),
        "tail_ms": pct(latency_ms, TAIL),
        "late_ms": pct([r["late"] * 1e3 for r in opened], TAIL),
        "e2e": {
            "setup_s": setup,
            "wall_s": (closed_end - closed_start)
            + (open_end - opened[0]["due"]),
            "throughput_rps": len(closed) / (closed_end - closed_start),
            "p50_ms": pct(latency_ms, 50),
            "peak_rss_mb": rss,
        },
    }
    if trace:
        records = read_spans(sorted(workdir.glob("spans-*.jsonl")))
        keep_trace(workload, records)
        index = SpanIndex(records)
        units, per_request = serving_units(index, calls)
        windows = [(closed_start, closed_end),
                   (opened[0]["due"], open_end)]
        run["layers"] = layer_metrics(
            index, units, windows, requests=len(calls),
            per_request=per_request, late=[r["late"] for r in opened])
    return run


# ----------------------------------------------------------------------
def code_version() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_digest": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--history", default=str(HERE / "history.jsonl"),
                        help="JSONL file this run appends its row to")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        log(f"no program under test: {SRC / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "paper":
            run = run_paper(args.seed, args.trace, workdir)
        else:
            run = run_serving(args.workload, args.seed, args.seconds,
                              args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not supports(run["samples"], TAIL):
        log(f"only {run['samples']} latency samples: p{TAIL} has fewer "
            "than ten beyond it")
    values = run["layers"] if args.trace else run["e2e"]
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError("reported metrics differ from BENCHMARK.json")
    correct = run["failed"] == 0
    row = {
        **code_version(), "cpu_count": os.cpu_count(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "correct": correct, "attempted": run["attempted"],
        "failed": run["failed"],
        "samples": run["samples"], "digest": run.get("digest"),
        f"p{TAIL}_ms": run["tail_ms"], f"late_ms_p{TAIL}": run.get("late_ms"),
        "e2e": run["e2e"],
        "layers": run.get("layers"),
    }
    with open(args.history, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
