"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_forecast_defaults(self):
        args = build_parser().parse_args(["forecast"])
        assert args.dataset == 9
        assert args.pool == "small"
        assert args.episodes == 20

    def test_table2_dataset_parsing(self):
        args = build_parser().parse_args(["table2", "--datasets", "1,2,3"])
        assert args.datasets == "1,2,3"

    def test_invalid_pool_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["forecast", "--pool", "giant"])

    @pytest.mark.parametrize("argv", [
        ["serve", "--shards", "auto"],
        ["serve", "--min-shards", "2"],
        ["forecast", "--executor", "thread"],
        ["forecast", "--jobs", "2"],
    ])
    def test_removed_options_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_serve_shards_is_an_integer(self):
        assert build_parser().parse_args(["serve"]).shards == 0
        assert build_parser().parse_args(["serve", "--shards", "2"]).shards == 2

    def test_telemetry_flags(self):
        args = build_parser().parse_args([
            "forecast", "--metrics-out", "m.prom", "--trace", "t.jsonl",
            "--log-level", "debug", "-vv", "-q",
        ])
        assert args.metrics_out == "m.prom"
        assert args.trace == "t.jsonl"
        assert args.log_level == "debug"
        assert args.verbose == 2
        assert args.quiet is True

    def test_invalid_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["forecast", "--log-level", "loud"])

    @pytest.mark.parametrize("command", ["forecast", "table2", "fig2", "report"])
    def test_checkpoint_flags(self, command):
        args = build_parser().parse_args([
            command, "--checkpoint-dir", "ckpt", "--checkpoint-every", "25",
            "--resume",
        ])
        assert args.checkpoint_dir == "ckpt"
        assert args.checkpoint_every == 25
        assert args.resume is True

    def test_checkpoint_defaults_off(self):
        args = build_parser().parse_args(["forecast"])
        assert args.checkpoint_dir is None
        assert args.checkpoint_every == 50
        assert args.resume is False

    def test_resume_without_dir_rejected(self):
        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main(["forecast", "--dataset", "15", "--length", "200",
                  "--episodes", "1", "--iterations", "5", "--resume"])


class TestExecution:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "taxi_demand_1" in out
        assert "water_consumption" in out

    def test_forecast_runs_quick(self, capsys, tmp_path):
        policy_path = str(tmp_path / "p.npz")
        code = main([
            "forecast", "--dataset", "15", "--length", "200",
            "--episodes", "2", "--iterations", "10",
            "--save-policy", policy_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "EA-DRL RMSE" in out
        assert (tmp_path / "p.npz").exists()

    def test_forecast_unknown_agent_exits_2(self, capsys):
        code = main([
            "forecast", "--dataset", "15", "--length", "200",
            "--episodes", "2", "--iterations", "10",
            "--agent", "dreamer",
        ])
        assert code == 2
        err = capsys.readouterr().err
        # The usage error names every registered agent, no traceback.
        for name in ("ddpg", "td3", "sac"):
            assert name in err

    def test_forecast_runs_with_td3(self, capsys):
        code = main([
            "forecast", "--dataset", "15", "--length", "200",
            "--episodes", "2", "--iterations", "10",
            "--agent", "td3",
        ])
        assert code == 0
        assert "EA-DRL RMSE" in capsys.readouterr().out

    def test_fig2_runs_quick(self, capsys):
        code = main([
            "fig2", "--dataset", "9", "--length", "200",
            "--episodes", "3", "--iterations", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rank reward" in out

    def test_export_data(self, capsys, tmp_path):
        out_dir = str(tmp_path / "csvs")
        assert main(["export-data", "--output-dir", out_dir,
                     "--length", "100"]) == 0
        import os

        assert len(os.listdir(out_dir)) == 20

    def test_report_runs_quick(self, capsys, tmp_path):
        out = str(tmp_path / "r.md")
        code = main([
            "report", "--datasets", "9", "--length", "200",
            "--episodes", "2", "--iterations", "10",
            "--no-singles", "--output", out,
        ])
        assert code == 0
        with open(out) as handle:
            assert "## Table II" in handle.read()

    def test_table2_runs_quick(self, capsys):
        code = main([
            "table2", "--datasets", "9", "--length", "200",
            "--episodes", "2", "--iterations", "10", "--no-singles",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "EA-DRL" in out

    def test_forecast_writes_metrics_and_trace(self, capsys, tmp_path):
        import json

        from repro.obs import enabled

        metrics_path = tmp_path / "m.prom"
        trace_path = tmp_path / "t.jsonl"
        code = main([
            "forecast", "--dataset", "15", "--length", "200",
            "--episodes", "2", "--iterations", "10",
            "--metrics-out", str(metrics_path), "--trace", str(trace_path),
        ])
        assert code == 0
        assert not enabled()  # main() shuts the session down

        text = metrics_path.read_text()
        assert "# TYPE repro_online_steps_total counter" in text
        assert "# TYPE repro_ddpg_episodes_total counter" in text
        assert "repro_span_seconds_bucket" in text

        lines = [json.loads(line) for line in trace_path.open()]
        events = [e for e in lines if "event" in e]
        kinds = {e["event"] for e in events}
        # The trace covers pool fit, training episodes, online steps,
        # and the span records timing them.
        assert {"fit_start", "fit_done", "train_episode",
                "online_step"} <= kinds
        spans = {e["name"] for e in lines if "trace" in e}
        assert {"eadrl.fit", "pool.fit", "ddpg.train", "online.step"} <= spans
        steps = [e for e in events if e["event"] == "online_step"]
        assert all("weights" in e and "seconds" in e for e in steps)

    def test_trace_reads_a_forecast_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "t.jsonl"
        assert main([
            "forecast", "--dataset", "15", "--length", "200",
            "--episodes", "2", "--iterations", "10",
            "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["malformed_lines"] == 0
        fits = [t for t in report["traces"] if t["root"] == "eadrl.fit"]
        assert len(fits) >= 1

        from repro.obs import TraceAssembler

        assembler = TraceAssembler().add_path(trace_path)
        trace = assembler.trace(fits[0]["trace_id"])
        children = {s.name for s in trace.children(trace.root)}
        assert {"pool.fit", "pool.prediction_matrix", "ddpg.train"} <= children

    def test_forecast_checkpoints_and_resumes(self, capsys, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        argv = [
            "forecast", "--dataset", "15", "--length", "200",
            "--episodes", "2", "--iterations", "10",
            "--checkpoint-dir", str(checkpoint_dir),
            "--checkpoint-every", "20",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(checkpoint_dir.glob("train-*.json"))
        assert list(checkpoint_dir.glob("rolling-*.json"))

        # Resuming a finished run replays it entirely from snapshots.
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert ("EA-DRL RMSE" in second
                and first.splitlines()[-1] == second.splitlines()[-1])

    def test_forecast_quiet_silences_info_logs(self, capsys, tmp_path):
        code = main([
            "forecast", "--dataset", "15", "--length", "200",
            "--episodes", "2", "--iterations", "10", "--quiet",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "EA-DRL RMSE" in captured.out
        assert "dataset 15" not in captured.err
