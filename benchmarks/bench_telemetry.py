"""Bench TEL — telemetry overhead on the online forecasting loop.

Measures the cost of the observability layer (:mod:`repro.obs`) on the
latency-sensitive path it instruments most densely:
``EADRL.rolling_forecast_online(mode="none")``. Three configurations are
timed against a bench-local *reference* reimplementation of the same
loop with no telemetry code at all:

- ``disabled`` — instrumented loop, global session off (the no-op fast
  path every library user pays by default);
- ``memory``   — session on, events captured in-process;
- ``jsonl``    — session on, events streamed to a JSONL trace file.

The acceptance budget is **disabled-mode overhead <= 2%** versus the
reference loop (best-of-rounds, so scheduler noise cancels); the
instrumented disabled run must also reproduce the reference forecasts
bit-for-bit. Results are written as JSON for CI artifact upload,
together with a sample JSONL trace from the ``jsonl`` run.

Run directly::

    PYTHONPATH=src python benchmarks/bench_telemetry.py
    PYTHONPATH=src python benchmarks/bench_telemetry.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.baselines.drift import PageHinkley
from repro.core import EADRL, EADRLConfig
from repro.core.eadrl import _make_reward
from repro.obs import JsonlSink, MemorySink, configure, shutdown
from repro.rl.mdp import Transition

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_telemetry.json"
DEFAULT_TRACE = REPO_ROOT / "BENCH_telemetry_trace.jsonl"
OVERHEAD_BUDGET_PCT = 2.0


def make_matrix(n_rows: int, n_members: int, seed: int = 2024):
    """Synthetic (T, m) prediction matrix + truth (member 1 is best)."""
    rng = np.random.default_rng(seed)
    truth = np.sin(np.arange(n_rows) * 0.25) * 2.0 + 5.0
    noise_scale = np.linspace(0.1, 1.2, n_members)
    predictions = (
        truth[:, None] + noise_scale[None, :] * rng.standard_normal(
            (n_rows, n_members)
        )
    )
    return predictions, truth


def train_model(meta_predictions, meta_truth) -> EADRL:
    config = EADRLConfig(window=10, episodes=2, max_iterations=25)
    config.ddpg.batch_size = 16
    model = EADRL(config=config, pool_size="small")
    model.fit_policy_from_matrix(meta_predictions, meta_truth)
    return model


def reference_online_loop(
    model: EADRL,
    predictions,
    truth,
    mode: str = "none",
    interval: int = 25,
    updates_per_trigger: int = 10,
) -> np.ndarray:
    """``rolling_forecast_online`` minus every telemetry line.

    This is the pre-instrumentation loop body, hoisted into the bench so
    the overhead comparison has a true zero-telemetry baseline: policy
    inference, masked combination, the weight log, Eq. 3/4 reward +
    replay push, drift detection, and the update-trigger bookkeeping —
    everything the production loop did before spans and events were
    added, and nothing else.
    """
    omega = model.config.window
    reward_fn = _make_reward(model.config)
    scaled_predictions = model._scaler.transform(predictions)
    scaled_truth = model._scaler.transform(truth)
    scaled_boot = model._scaler.transform(model._matrix_bootstrap[-omega:])
    n_members = predictions.shape[1]
    healthy = np.isfinite(predictions)
    state = scaled_boot @ np.full(n_members, 1.0 / n_members)
    detector = PageHinkley(delta=0.05, threshold=3.0)
    outputs = np.empty(predictions.shape[0])
    weight_log = np.empty_like(predictions)
    steps_since_update = 0
    for i in range(predictions.shape[0]):
        weights = model.agent.policy_weights(state)
        scaled_out, weights = model._combine_masked(
            scaled_predictions[i], weights, healthy[i], i
        )
        weight_log[i] = weights
        outputs[i] = model._scaler.inverse_transform(scaled_out)
        if i >= omega and healthy[i - omega : i].all():
            reward = reward_fn(
                scaled_predictions[i - omega : i],
                scaled_truth[i - omega : i],
                weights,
            )
            next_state = np.append(state[1:], scaled_out)
            model.agent.buffer.push(
                Transition(state, weights, reward, next_state, False)
            )
        state = np.append(state[1:], scaled_out)
        steps_since_update += 1
        error = abs(float(outputs[i]) - float(truth[i]))
        drifted = detector.update(error)
        periodic_due = mode == "periodic" and steps_since_update >= interval
        drift_due = mode == "drift" and drifted
        if periodic_due or drift_due:
            for _ in range(updates_per_trigger):
                model.agent.update()
            steps_since_update = 0
    return outputs


def interleaved_best_of(rounds: int, timed_fns: dict) -> dict:
    """Best-of-``rounds`` wall time per mode, modes interleaved.

    Each round times every mode once, back to back, so slow drift in the
    host (frequency scaling, noisy neighbours) hits all modes equally
    instead of biasing whichever block ran in the quiet window. Every
    mode gets one untimed warm-up call first.
    """
    for fn in timed_fns.values():
        fn()
    best = {label: float("inf") for label in timed_fns}
    for _ in range(rounds):
        for label, fn in timed_fns.items():
            t0 = time.perf_counter()
            fn()
            best[label] = min(best[label], time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2000,
                        help="online steps per timed round (default 2000)")
    parser.add_argument("--members", type=int, default=6)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: shorter loop, 8 rounds")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--trace-output", type=Path, default=DEFAULT_TRACE)
    args = parser.parse_args(argv)

    if args.quick:
        # Still real measurements: per-round loops below ~50ms sit under
        # the noise floor of small CI boxes, so quick mode trims the
        # step count only moderately and keeps enough interleaved
        # rounds for the best-of to converge.
        args.steps = min(args.steps, 1000)
        args.rounds = 8

    meta_rows = 400
    predictions, truth = make_matrix(meta_rows + args.steps, args.members)
    model = train_model(predictions[:meta_rows], truth[:meta_rows])
    test_pred, test_truth = predictions[meta_rows:], truth[meta_rows:]

    def instrumented():
        return model.rolling_forecast_online(
            test_pred, test_truth, mode="none"
        )

    def run_reference():
        shutdown()
        return reference_online_loop(model, test_pred, test_truth)

    def run_disabled():
        shutdown()
        return instrumented()

    def run_memory():
        configure(sinks=[MemorySink()])
        out = instrumented()
        shutdown()
        return out

    def run_jsonl():
        configure(sinks=[JsonlSink(str(args.trace_output))])
        out = instrumented()
        shutdown()
        return out

    cores = len(os.sched_getaffinity(0))
    print(f"steps={args.steps} members={args.members} rounds={args.rounds} "
          f"cores={cores}")

    # Bit-identity first (untimed): the instrumented loop with telemetry
    # off must reproduce the reference loop exactly.
    identical = bool(np.array_equal(run_reference(), run_disabled()))

    best = interleaved_best_of(args.rounds, {
        "reference": run_reference,
        "disabled": run_disabled,
        "memory": run_memory,
        "jsonl": run_jsonl,
    })
    reference_s = best["reference"]
    disabled_s, memory_s, jsonl_s = (
        best["disabled"], best["memory"], best["jsonl"]
    )
    overhead_pct = (disabled_s - reference_s) / reference_s * 100.0

    def row(label, seconds):
        per_step = seconds / args.steps * 1e6
        pct = (seconds - reference_s) / reference_s * 100.0
        print(f"{label:<10} {seconds:8.4f}s  {per_step:8.1f}us/step  "
              f"{pct:+6.2f}% vs reference")
        return {"seconds": seconds, "us_per_step": per_step,
                "overhead_pct": pct}

    print(f"reference  {reference_s:8.4f}s  "
          f"{reference_s / args.steps * 1e6:8.1f}us/step")
    results = {
        "disabled": row("disabled", disabled_s),
        "memory": row("memory", memory_s),
        "jsonl": row("jsonl", jsonl_s),
    }

    within_budget = overhead_pct <= OVERHEAD_BUDGET_PCT
    result = {
        "bench": "telemetry",
        "steps": args.steps,
        "members": args.members,
        "rounds": args.rounds,
        "quick": args.quick,
        "cpu_count": cores,
        "python": platform.python_version(),
        "reference_seconds": reference_s,
        "reference_us_per_step": reference_s / args.steps * 1e6,
        "modes": results,
        "disabled_overhead_pct": overhead_pct,
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        "within_budget": within_budget,
        "outputs_bit_identical": identical,
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(f"wrote {args.trace_output} (sample JSONL trace)")

    if not identical:
        print("ERROR: instrumented loop diverged from the reference outputs",
              file=sys.stderr)
        return 1
    if not within_budget:
        # Timing noise on small CI boxes swamps a 2% margin at quick-mode
        # loop sizes, so the budget is a hard gate only for full runs;
        # quick mode still reports the measurement and fails on the
        # deterministic bit-identity check above.
        message = (f"disabled-mode overhead {overhead_pct:.2f}% exceeds "
                   f"the {OVERHEAD_BUDGET_PCT}% budget")
        if args.quick:
            print(f"WARNING: {message} (not enforced in --quick mode)",
                  file=sys.stderr)
        else:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
