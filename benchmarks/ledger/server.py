"""Server launcher of the serving workloads (mirrors ``repro serve``).

Run by ``run.py`` as its own process::

    python3 benchmarks/ledger/server.py --workload serve_spill \
        --workdir DIR --trace 0

Fits the served bundle, builds the service with ``make_service`` behind
``ForecastHTTPServer`` on an ephemeral port, prints ``READY <port>`` and
serves until its standard input closes or reads ``stop``. Then it shuts
down gracefully. With ``--trace 1`` the span wrappers are installed
before the fit and before ``make_service``, so forked shard workers
inherit them; every process writes ``DIR/spans-<pid>.jsonl``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.SERVING),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)
    shape = workloads.SERVING[args.workload]

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder, args.workdir)

    from repro.serving import ForecastHTTPServer, ServiceConfig, make_service

    bundle = workloads.fit_bundle()
    service = make_service(bundle, ServiceConfig(
        max_sessions=shape.max_sessions,
        spill_dir=os.path.join(args.workdir, "spill"),
        shards=shape.shards,
        executor="process" if shape.shards else "thread",
    ))
    server = ForecastHTTPServer(service, host="127.0.0.1", port=0).start()
    print(f"READY {server.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        server.shutdown()
        if recorder is not None:
            recorder.flush(
                os.path.join(args.workdir, f"spans-{os.getpid()}.jsonl"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
