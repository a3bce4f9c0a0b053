#!/usr/bin/env python3
"""Compare two sets of benchmark runs (README.md, "Comparing commits").

    python3 bench/perf/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/perf/compare.py --self-test

Each directory holds at least ten results sets: the results.json files
of run.py runs (searched recursively), best made in alternation with the
other side.  The i-th set of one side is paired with the i-th of the
other, in file-path order.  For every (workload, end-to-end metric) the
report gives each side's median and quartiles, the share of pairs the
change won, and a verdict:

  improved    the change won at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the distance
              between the parent's quartiles
  regressed   the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, and not every change run beats every
              parent run
  unchanged   otherwise

A workload's row carries the worst verdict of its metrics.  Exit status
1 when a row regressed, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_SETS = 10
SEVERITY = ["unchanged", "improved", "unresolved", "regressed"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], higher_better: bool,
            bound: float) -> dict:
    """Verdict for one (workload, metric) from the two sides' values."""
    sign = 1.0 if higher_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs)
    worse_by = sign * (p_med - c_med) / p_med
    spread = (p_q3 - p_q1) / p_med
    every_run_better = (min(change) > max(parent) if higher_better
                        else max(change) < min(parent))
    if win_share >= 0.9 and sign * (c_med - p_med) > p_q3 - p_q1:
        result = "improved"
    elif worse_by > bound:
        result = "regressed"
    elif spread > bound and not every_run_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {"verdict": result, "parent": [p_q1, p_med, p_q3],
            "change": [c_q1, c_med, c_q3], "win_share": win_share,
            "worse_by": worse_by, "parent_spread": spread}


def compare(parent_sets: list[dict], change_sets: list[dict],
            spec: dict) -> dict:
    """{workload: {"verdict": worst, "metrics": {metric: verdict()}}}."""
    for side, sets in (("parent", parent_sets), ("change", change_sets)):
        if len(sets) < MIN_SETS:
            raise ValueError(f"{side}: {len(sets)} results sets, "
                             f"need at least {MIN_SETS}")
    rows = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        metrics = {}
        for metric in spec["end_to_end"]:
            def values(sets: list[dict]) -> list[float]:
                return [s["workloads"][name]["end_to_end"][metric["name"]]
                        ["value"] for s in sets if name in s["workloads"]]
            parent, change = values(parent_sets), values(change_sets)
            if len(parent) < MIN_SETS or len(change) < MIN_SETS:
                continue
            metrics[metric["name"]] = verdict(
                parent, change, metric["better"] == "higher", metric["bound"])
        if metrics:
            worst = max((m["verdict"] for m in metrics.values()),
                        key=SEVERITY.index)
            rows[name] = {"verdict": worst, "metrics": metrics}
    return rows


def load_sets(directory: Path) -> list[dict]:
    sets = []
    for path in sorted(directory.rglob("results.json")):
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    return sets


def report(rows: dict) -> None:
    for name, row in rows.items():
        print(f"{name:<11} {row['verdict'].upper()}")
        for metric, m in row["metrics"].items():
            print(f"  {metric:<13} {m['verdict']:<10} parent "
                  f"{m['parent'][1]:.6g} [{m['parent'][0]:.6g}, "
                  f"{m['parent'][2]:.6g}]  change {m['change'][1]:.6g} "
                  f"[{m['change'][0]:.6g}, {m['change'][2]:.6g}]  "
                  f"won {m['win_share']:.0%}  worse by {m['worse_by']:+.2%}"
                  f"  parent spread {m['parent_spread']:.2%}")


def self_test() -> int:
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [
                {"name": "rate", "better": "higher", "bound": 0.1},
                {"name": "time", "better": "lower", "bound": 0.25}]}

    def sets(rates: list[float], times: list[float]) -> list[dict]:
        return [{"workloads": {"w": {"end_to_end": {
            "rate": {"value": r}, "time": {"value": t}}}}}
            for r, t in zip(rates, times)]

    steady = [100.0 + (i % 5) * 0.5 for i in range(12)]
    times = [1.0 + (i % 3) * 0.01 for i in range(12)]
    cases = [
        ("same code", sets(steady, times), sets(steady[::-1], times[::-1]),
         {"rate": "unchanged", "time": "unchanged"}, "unchanged"),
        ("faster", sets(steady, times), sets([v * 1.2 for v in steady], times),
         {"rate": "improved", "time": "unchanged"}, "improved"),
        ("faster median, 7 of 12 pairs won", sets(steady, times),
         sets([v + 3 if i < 7 else v - 1 for i, v in enumerate(steady)],
              times),
         {"rate": "unchanged", "time": "unchanged"}, "unchanged"),
        ("slower", sets(steady, times), sets([v * 0.8 for v in steady], times),
         {"rate": "regressed", "time": "unchanged"}, "regressed"),
        ("slower set-up", sets(steady, times),
         sets(steady, [t * 1.5 for t in times]),
         {"rate": "unchanged", "time": "regressed"}, "regressed"),
        ("noisy parent", sets([60.0, 140.0] * 6, times),
         sets([100.0] * 12, times),
         {"rate": "unresolved", "time": "unchanged"}, "unresolved"),
    ]
    failures = 0
    for label, parent, change, expected, row in cases:
        got = compare(parent, change, spec)["w"]
        verdicts = {k: v["verdict"] for k, v in got["metrics"].items()}
        if verdicts != expected or got["verdict"] != row:
            print(f"FAIL {label}: {verdicts} row {got['verdict']}")
            failures += 1
    try:
        compare(sets(steady[:9], times[:9]), sets(steady, times), spec)
        print("FAIL too few sets accepted")
        failures += 1
    except ValueError:
        pass
    print("compare.py self-test:", "ok" if failures == 0 else "FAILED")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    root = Path(__file__).resolve().parents[2]
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        rows = compare(load_sets(args.parent), load_sets(args.change), spec)
    except (ValueError, KeyError, OSError) as err:
        print(f"compare.py: {err}", file=sys.stderr)
        return 2
    report(rows)
    return 1 if any(r["verdict"] == "regressed" for r in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
