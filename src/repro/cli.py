"""Command-line interface for the EA-DRL reproduction.

Four subcommands map to the main workflows::

    python -m repro.cli list                      # show the dataset registry
    python -m repro.cli forecast --dataset 9      # fit EA-DRL, report RMSE
    python -m repro.cli table2 --datasets 1,4,9   # regenerate Table II
    python -m repro.cli fig2 --dataset 9          # regenerate Figure 2
    python -m repro.cli serve --port 8321         # online forecasting service
    python -m repro.cli trace traces/             # assemble request traces

Every subcommand accepts ``--length/--episodes/--pool`` to trade speed
against fidelity (see ``--help`` per subcommand).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--length", type=int, default=400,
                        help="series length (default 400)")
    parser.add_argument("--episodes", type=int, default=20,
                        help="DDPG training episodes (paper: 100)")
    parser.add_argument("--iterations", type=int, default=60,
                        help="max iterations per episode (paper: 100)")
    parser.add_argument("--pool", choices=("small", "medium", "full"),
                        default="small", help="base-model pool preset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--agent", default="ddpg",
                        help="policy agent learning the ensemble weights: "
                             "ddpg (paper default), td3, sac, or any name "
                             "registered via repro.rl.agents (validated "
                             "against the registry, exit 2 on unknown)")


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="enable crash-safe auto-checkpointing into DIR "
                             "(atomic, checksummed snapshots of training and "
                             "the online forecast loops)")
    parser.add_argument("--checkpoint-every", type=int, default=50,
                        metavar="N",
                        help="online-loop snapshot period in steps "
                             "(default 50; training snapshots every episode)")
    parser.add_argument("--resume", action="store_true",
                        help="continue from the newest valid snapshot in "
                             "--checkpoint-dir; the resumed run is "
                             "bit-identical to an uninterrupted one")


def _checkpoint(args) -> "Optional[CheckpointConfig]":
    from repro.core import CheckpointConfig

    if args.checkpoint_dir is None:
        if args.resume:
            raise SystemExit("--resume requires --checkpoint-dir")
        return None
    return CheckpointConfig(
        directory=args.checkpoint_dir,
        every=args.checkpoint_every,
        resume=args.resume,
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write final metrics in Prometheus text "
                             "exposition format to PATH")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="stream structured run events and span "
                             "records as JSON lines to PATH (read the "
                             "spans back with 'repro trace PATH')")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="explicit log level (overrides -v/-q)")
    parser.add_argument("--metrics-flush-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="republish --metrics-out/--trace sinks every "
                             "SECONDS while running (default: only at exit)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="raise log verbosity (-v=debug for the CLI)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only log errors")


def _protocol(args) -> "ProtocolConfig":
    from repro.evaluation import ProtocolConfig

    return ProtocolConfig(
        series_length=args.length,
        pool_size=args.pool,
        episodes=args.episodes,
        max_iterations=args.iterations,
        seed=args.seed,
        agent=args.agent,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )


def cmd_list(args) -> int:
    from repro.datasets import list_datasets
    from repro.evaluation import format_table

    rows = [
        [str(info.dataset_id), info.name, info.source, info.cadence]
        for info in list_datasets()
    ]
    print(format_table(["id", "name", "source", "cadence"], rows,
                       title="Benchmark datasets (paper Table I stand-ins)"))
    return 0


def cmd_forecast(args) -> int:
    from repro.core import EADRL, EADRLConfig, RuntimeGuardConfig
    from repro.datasets import get_info, load
    from repro.metrics import rmse
    from repro.obs import get_logger
    from repro.preprocessing import train_test_split
    from repro.rl.ddpg import DDPGConfig

    logger = get_logger("cli")
    info = get_info(args.dataset)
    series = load(args.dataset, n=args.length)
    train, test = train_test_split(series)
    logger.info("dataset %s (%s): %d train / %d test",
                args.dataset, info.name, train.size, test.size)
    guards = None
    if args.guard:
        guards = RuntimeGuardConfig(
            timeout=args.guard_timeout,
            failure_threshold=args.guard_threshold,
        )
    model = EADRL(
        pool_size=args.pool,
        config=EADRLConfig(
            episodes=args.episodes,
            max_iterations=args.iterations,
            agent=args.agent,
            ddpg=DDPGConfig(seed=args.seed),
            runtime_guards=guards,
            checkpoint=_checkpoint(args),
        ),
    )
    model.fit(train)
    preds = model.rolling_forecast(series, start=train.size)
    matrix = model.pool.prediction_matrix(series, train.size)
    print(f"EA-DRL RMSE : {rmse(preds, test):.4f}")
    print(f"uniform RMSE: {rmse(matrix.mean(axis=1), test):.4f}")
    if args.guard:
        # One coherent report: guard counters and per-member fit/predict
        # timings share the same lines (PoolHealth.report).
        print(model.health().report())
    if args.save_policy:
        model.save_policy(args.save_policy)
        logger.info("policy saved to %s", args.save_policy)
    return 0


def cmd_table2(args) -> int:
    from repro.evaluation import run_table2

    ids = [int(x) for x in args.datasets.split(",")]
    result = run_table2(
        dataset_ids=ids,
        config=_protocol(args),
        include_singles=not args.no_singles,
    )
    print(result.render())
    return 0


def cmd_fig2(args) -> int:
    from repro.evaluation import ascii_curve, run_fig2

    result = run_fig2(dataset_id=args.dataset, config=_protocol(args))
    rank = result.rank_curve()
    nrmse = result.nrmse_curve()
    print(ascii_curve(rank.episode_rewards, label="rank reward (Fig 2b)"))
    print()
    print(ascii_curve(nrmse.episode_rewards, label="1-NRMSE reward (Fig 2a)"))
    print(f"\nrank : improvement={rank.improvement():+.3f} "
          f"tail-std={rank.tail_stability():.3f}")
    print(f"nrmse: improvement={nrmse.improvement():+.3f} "
          f"tail-std={nrmse.tail_stability():.3f}")
    return 0


def cmd_report(args) -> int:
    from repro.evaluation.report import write_report

    ids = [int(x) for x in args.datasets.split(",")]
    text = write_report(
        args.output,
        dataset_ids=ids,
        config=_protocol(args),
        include_singles=not args.no_singles,
    )
    print(f"report written to {args.output} ({len(text.splitlines())} lines)")
    return 0


def cmd_export_data(args) -> int:
    from repro.datasets import export_registry_csv

    paths = export_registry_csv(args.output_dir, n=args.length)
    print(f"wrote {len(paths)} CSV files to {args.output_dir}")
    return 0


def cmd_serve(args) -> int:
    from repro.core import EADRL, EADRLConfig
    from repro.datasets import load
    from repro.obs import get_logger
    from repro.preprocessing import train_test_split
    from repro.rl.ddpg import DDPGConfig
    from repro.serving import (
        ForecastHTTPServer,
        GracefulShutdown,
        ModelBundle,
        ServiceConfig,
        make_service,
    )

    logger = get_logger("cli")
    series = load(args.dataset, n=args.length)
    train, _ = train_test_split(series)
    logger.info("fitting EA-DRL on dataset %d before serving", args.dataset)
    model = EADRL(
        pool_size=args.pool,
        config=EADRLConfig(
            episodes=args.episodes,
            max_iterations=args.iterations,
            agent=args.agent,
            ddpg=DDPGConfig(seed=args.seed),
        ),
    )
    model.fit(train)
    bundle = ModelBundle.from_estimator(
        model,
        mode=args.session_mode,
        interval=args.session_interval,
    )
    service = make_service(bundle, ServiceConfig(
        agent=args.agent,
        max_sessions=args.max_sessions,
        spill_dir=args.spill_dir,
        queue_limit=args.queue_limit,
        deadline=args.deadline,
        shards=args.shards,
        durable=args.durable,
        trace_dir=args.trace_dir,
    ))
    server = ForecastHTTPServer(
        service, host=args.host, port=args.port
    ).start()
    host, port = server.address
    if args.shards:
        runtime = f"{args.shards} shard worker(s)"
    else:
        runtime = "in-process service"
    print(f"forecast service on http://{host}:{port} [{runtime}] "
          f"(SIGINT/SIGTERM for graceful shutdown)")
    # The main thread parks on the latch; the first signal wakes it and
    # the drain below flushes session checkpoints and telemetry sinks.
    latch = GracefulShutdown().install()
    latch.on_shutdown(server.shutdown)
    try:
        latch.wait()
        logger.info("shutting down (%s)", latch.signal_name)
        latch.drain()
    finally:
        latch.restore()
    return 0


def cmd_trace(args) -> int:
    import json as _json

    from repro.obs import TraceAssembler

    assembler = TraceAssembler()
    for path in args.paths:
        assembler.add_path(path)
    if args.trace_id:
        trace = assembler.trace(args.trace_id)
        if trace is None:
            print(f"trace {args.trace_id} not found", file=sys.stderr)
            return 1
        print(trace.render(assembler))
        return 0
    report = assembler.report(root_name=args.root, limit=args.limit)
    if args.json:
        print(_json.dumps(report, indent=2))
        return 0
    traces = assembler.traces()
    if args.root:
        traces = [
            t for t in traces
            if t.root is not None and t.root.name == args.root
        ]
    for trace in traces[:args.limit]:
        print(trace.render(assembler))
        print()
    print(f"{report['n_traces']} trace(s) from {report['files_read']} "
          f"file(s); {report['spans_dropped']} span(s) dropped, "
          f"{report['malformed_lines']} malformed line(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EA-DRL reproduction (ICDE 2021) command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_list = subparsers.add_parser("list", help="show the dataset registry")
    p_list.set_defaults(func=cmd_list)

    p_forecast = subparsers.add_parser(
        "forecast", help="fit EA-DRL on one dataset and report test RMSE"
    )
    p_forecast.add_argument("--dataset", type=int, default=9)
    p_forecast.add_argument("--save-policy", default=None,
                            help="path to save the trained policy (.npz)")
    p_forecast.add_argument("--guard", action="store_true",
                            help="run the pool under the fault-tolerant "
                                 "runtime and print the health report")
    p_forecast.add_argument("--guard-timeout", type=float, default=None,
                            help="per-member prediction budget in seconds "
                                 "(default: no timeout)")
    p_forecast.add_argument("--guard-threshold", type=int, default=3,
                            help="consecutive failures before a member's "
                                 "circuit breaker opens (default 3)")
    _add_scale_arguments(p_forecast)
    _add_checkpoint_arguments(p_forecast)
    _add_telemetry_arguments(p_forecast)
    p_forecast.set_defaults(func=cmd_forecast)

    p_table2 = subparsers.add_parser(
        "table2", help="regenerate the paper's Table II"
    )
    p_table2.add_argument("--datasets", default="1,4,6,9,15,18",
                          help="comma-separated dataset ids")
    p_table2.add_argument("--no-singles", action="store_true",
                          help="skip the slow standalone baselines")
    _add_scale_arguments(p_table2)
    _add_checkpoint_arguments(p_table2)
    _add_telemetry_arguments(p_table2)
    p_table2.set_defaults(func=cmd_table2)

    p_fig2 = subparsers.add_parser(
        "fig2", help="regenerate the paper's Figure 2 learning curves"
    )
    p_fig2.add_argument("--dataset", type=int, default=9)
    _add_scale_arguments(p_fig2)
    _add_checkpoint_arguments(p_fig2)
    _add_telemetry_arguments(p_fig2)
    p_fig2.set_defaults(func=cmd_fig2)

    p_report = subparsers.add_parser(
        "report", help="regenerate every experiment into a markdown report"
    )
    p_report.add_argument("--datasets", default="1,4,6,9,15,18")
    p_report.add_argument("--output", default="report.md")
    p_report.add_argument("--no-singles", action="store_true")
    _add_scale_arguments(p_report)
    _add_checkpoint_arguments(p_report)
    _add_telemetry_arguments(p_report)
    p_report.set_defaults(func=cmd_report)

    p_export = subparsers.add_parser(
        "export-data", help="write all 20 benchmark datasets as CSV"
    )
    p_export.add_argument("--output-dir", default="datasets_csv")
    p_export.add_argument("--length", type=int, default=None)
    p_export.set_defaults(func=cmd_export_data)

    p_serve = subparsers.add_parser(
        "serve",
        help="fit EA-DRL and serve multi-tenant online forecasts over HTTP",
    )
    p_serve.add_argument("--dataset", type=int, default=9,
                         help="dataset the served policy is fitted on")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--max-sessions", type=int, default=128,
                         help="resident-session bound; excess sessions "
                              "spill to --spill-dir (default 128)")
    p_serve.add_argument("--spill-dir", default=None, metavar="DIR",
                         help="checkpoint directory for evicted sessions "
                              "(default: fresh temp dir)")
    p_serve.add_argument("--queue-limit", type=int, default=256,
                         help="admission bound: requests beyond this get "
                              "HTTP 429; a micro-batch takes whatever is "
                              "queued, never waiting (default 256)")
    p_serve.add_argument("--deadline", type=float, default=2.0,
                         help="per-request latency budget in seconds; "
                              "missed deadlines get HTTP 503 (default 2)")
    p_serve.add_argument("--session-mode", default="drift",
                         choices=("periodic", "drift", "none"),
                         help="per-session policy-update trigger "
                              "(default drift)")
    p_serve.add_argument("--session-interval", type=int, default=25,
                         help="steps between periodic updates (default 25)")
    p_serve.add_argument("--shards", type=int, default=0, metavar="N",
                         help="supervised shard worker processes; 0 runs "
                              "the in-process service (default 0). "
                              "Workers are crash-supervised: a killed "
                              "shard restarts and recovers its sessions "
                              "from the spill tier")
    p_serve.add_argument("--durable", action="store_true",
                         help="acknowledge observe only after the session "
                              "checkpoint hits disk (always on inside "
                              "shard workers)")
    p_serve.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="enable distributed request tracing: every "
                              "runtime process appends its spans to a "
                              "JSONL file under DIR; assemble per-request "
                              "timelines later with 'repro trace DIR'")
    _add_scale_arguments(p_serve)
    _add_telemetry_arguments(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_trace = subparsers.add_parser(
        "trace",
        help="stitch per-process trace files into per-request timelines",
    )
    p_trace.add_argument("paths", nargs="+", metavar="PATH",
                         help="trace JSONL files and/or directories "
                              "(a serve run's --trace-dir)")
    p_trace.add_argument("--root", default=None, metavar="NAME",
                         help="only traces rooted at span NAME "
                              "(e.g. http.request)")
    p_trace.add_argument("--trace-id", default=None, metavar="ID",
                         help="render one trace by id instead of listing")
    p_trace.add_argument("--limit", type=int, default=20,
                         help="max traces rendered/reported (default 20)")
    p_trace.add_argument("--json", action="store_true",
                         help="emit the machine-readable report (coverage, "
                              "critical-path breakdown, drop counts) "
                              "instead of timelines")
    p_trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro import obs

    # The CLI defaults to INFO so progress lines stay visible on stderr;
    # -v raises to DEBUG, -q drops to ERROR, --log-level wins outright.
    obs.configure_logging(
        level=getattr(args, "log_level", None),
        verbosity=getattr(args, "verbose", 0) + 1,
        quiet=getattr(args, "quiet", False),
    )
    metrics_out = getattr(args, "metrics_out", None)
    trace = getattr(args, "trace", None)
    if metrics_out or trace:
        obs.configure(obs.TelemetryConfig(
            metrics_path=metrics_out, trace_path=trace,
            flush_interval=getattr(args, "metrics_flush_interval", None),
        ))
    latch = None
    if args.command != "serve":
        # Long fit/forecast runs: treat SIGTERM like Ctrl-C so the
        # except/finally below flush telemetry sinks; the crash-safe
        # loop checkpoints already persist forecast state continuously.
        from repro.serving import GracefulShutdown

        latch = GracefulShutdown(interrupt=True).install()
    try:
        return args.func(args)
    except ConfigurationError as err:
        # Bad flag combinations (e.g. --agent bogus) are usage errors:
        # one line on stderr, conventional exit code 2, no traceback.
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        signal_name = latch.signal_name if latch is not None else None
        obs.OBS.emit(
            "service_shutdown",
            reason="signal",
            signal=signal_name or "KeyboardInterrupt",
        )
        obs.get_logger("cli").warning(
            "interrupted (%s); flushed checkpoints and telemetry sinks",
            signal_name or "KeyboardInterrupt",
        )
        return 130
    finally:
        if latch is not None:
            latch.restore()
        obs.shutdown()


if __name__ == "__main__":
    sys.exit(main())
