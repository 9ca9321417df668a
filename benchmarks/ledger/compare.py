"""Compare two sets of ledger runs, metric by metric and workload by workload.

::

    python3 benchmarks/ledger/compare.py BASE.jsonl HEAD.jsonl

Each file holds run rows as ``run.py`` appends them (``--history``).
For every (workload, end-to-end metric) it prints each side's median and
quartiles and a verdict against the bound in ``BENCHMARK.json``:

- ``within bound``: the head median is not worse than the base median by
  more than the bound;
- ``worse``: it is;
- ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, unless every head run beats every base run.

``gain`` marks a metric where the head wins at least nine tenths of the
pairs (runs with the same seed; ties count for neither) and the medians
differ by more than the base's own quartile distance. Traced rows are
left out of the verdicts; when a side has both, the tracing overhead
(traced minus untraced median) is printed per workload. Exit status 1
when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WIN_SHARE = 0.9


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(base, head, better: str, bound: float) -> str:
    base_median, head_median = quartiles(base)[1], quartiles(head)[1]
    if max(spread(base), spread(head)) > bound and not all(
            beats(h, b, better) for h in head for b in base):
        return "unresolved"
    change = (head_median - base_median) / abs(base_median)
    worse = change > bound if better == "lower" else -change > bound
    return "worse" if worse else "within bound"


def pair_wins(base_by_seed: dict, head_by_seed: dict, better: str):
    """``(head wins, pairs)`` over seeds both sides ran."""
    seeds = sorted(set(base_by_seed) & set(head_by_seed))
    wins = sum(beats(head_by_seed[s], base_by_seed[s], better) for s in seeds)
    return wins, len(seeds)


def is_gain(base_by_seed: dict, head_by_seed: dict, better: str) -> bool:
    wins, pairs = pair_wins(base_by_seed, head_by_seed, better)
    base = list(base_by_seed.values())
    q1, base_median, q3 = quartiles(base)
    head_median = quartiles(list(head_by_seed.values()))[1]
    return (pairs > 0 and wins >= WIN_SHARE * pairs
            and abs(head_median - base_median) > q3 - q1)


def load_rows(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_workload(rows: list, traced: int) -> dict:
    out: dict = {}
    for row in rows:
        if row["trace"] == traced:
            out.setdefault(row["workload"], []).append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sides = [load_rows(args.base), load_rows(args.head)]
    base, head = (by_workload(rows, 0) for rows in sides)
    any_worse = False
    print(f"{'workload':15s} {'metric':15s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s}  verdict")
    for workload in sorted(set(base) & set(head)):
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            b = {r["seed"]: r["e2e"][name] for r in base[workload]}
            h = {r["seed"]: r["e2e"][name] for r in head[workload]}
            result = verdict(list(b.values()), list(h.values()), better,
                             metric["bound"])
            any_worse |= result == "worse"
            if is_gain(b, h, better):
                result += ", gain"
            cells = []
            for values in (list(b.values()), list(h.values())):
                q1, median, q3 = quartiles(values)
                cells.append(
                    f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:15s} {name:15s} {cells[0]:>32s} "
                  f"{cells[1]:>32s}  {result}")
        for label, runs in zip(("base", "head"),
                               (base[workload], head[workload])):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"{workload:15s} {'error_rate':15s} {label}: "
                  f"{failed}/{attempted} failed")
    for label, rows in zip(("base", "head"), sides):
        traced, untraced = by_workload(rows, 1), by_workload(rows, 0)
        for workload in sorted(set(traced) & set(untraced)):
            deltas = []
            for metric in metrics:
                name = metric["name"]
                t = statistics.median(r["e2e"][name] for r in traced[workload])
                u = statistics.median(r["e2e"][name]
                                      for r in untraced[workload])
                deltas.append(f"{name} {t - u:+.4g}")
            print(f"tracing overhead ({label}, {workload}): "
                  + ", ".join(deltas))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
