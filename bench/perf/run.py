#!/usr/bin/env python3
"""The repository benchmark (README.md).

    python3 bench/perf/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/perf/run.py [--seed S] [--seconds T] [--out DIR] [--quick]

Builds build/perf from source, runs each workload in its own fifoms_perf
process, prints every metric by name with its unit, and writes
DIR/results.json plus DIR/trace-<W>.json for each traced workload.
Without --workload it runs all four, traced.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}; its
metrics are the end-to-end ones, or with --trace 1 the per-layer ones
(all metrics keyed "<workload>/<metric>" when every workload ran).

Exit status: 0 when every check held, 1 when a check failed, 2 when the
build or a run broke (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD_DIR = ROOT / "build" / "perf"
BINARY = BUILD_DIR / "fifoms_perf"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_command(cmd: list[str], timeout: float, log=None) -> str:
    """Run cmd in its own process group; on timeout kill the whole group
    (a build's compilers too) and wait for it."""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=log if log else subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out after {timeout:.0f} s: {cmd[0]}")
    if proc.returncode != 0:
        detail = err if err else ""
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}\n"
                         f"{out}{detail}")
    return out


def build() -> None:
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(BUILD_DIR / "build.log", "w", encoding="utf-8") as log:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            run_command(["cmake", "-S", "bench/perf", "-B", "build/perf"],
                        BUILD_TIMEOUT_S, log)
        run_command(["cmake", "--build", "build/perf", "--target",
                     "fifoms_perf", "-j", jobs], BUILD_TIMEOUT_S, log)


def git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return run_command(["git", "--git-dir", str(ROOT / ".git"),
                            "--work-tree", str(ROOT), *args], 30)
    except (BenchError, OSError):
        return None


def provenance(seed: int, sample: dict) -> dict:
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {
        "git_sha": sha.strip() if sha else "unknown",
        "dirty": None if status is None else bool(status.strip()),
        "compiler": sample["compiler"],
        "build_type": sample["build_type"],
        "fifoms_audit": sample["fifoms_audit"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def summary(values: list[float], scale: float = 1.0) -> dict:
    """Median, quartiles and count of scaled samples."""
    values = [v * scale for v in values]
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else values * 2)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def median_wall_s(reps: list[dict]) -> float:
    """A rep's wall time with each chunk at its median over the reps.
    Chunk i is the same input in every rep, so this filters a slowdown
    of the shared host that hits a few chunks, where a median of whole
    reps would take it in as soon as it touches half of them."""
    chunks = [rep["chunks_ns"] for rep in reps]
    if any(len(c) != len(chunks[0]) for c in chunks):
        raise BenchError("reps were cut into different chunks")
    return sum(statistics.median(column) for column in zip(*chunks)) / 1e9


def end_to_end(raw: dict) -> dict:
    """The end-to-end metrics from fifoms_perf's untraced reps: the value
    is the rate at median_wall_s(); q1, q3 and n describe the reps."""
    walls = [sum(rep["chunks_ns"]) / 1e9 for rep in raw["reps"]]
    wall = median_wall_s(raw["reps"])
    result = {}
    for name, count in (("slots_per_s", raw["slots"]),
                        ("copies_per_s", raw["copies"])):
        result[name] = summary([count / w for w in walls])
        result[name]["value"] = count / wall
    result["setup_s"] = summary([rep["setup_ns"] for rep in raw["reps"]],
                                1e-9)
    result["peak_rss_mb"] = summary(
        [rep["peak_rss_kb"] for rep in raw["reps"]], 1 / 1024)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, metrics: dict) -> dict:
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(0 if quick else seconds),
           "--trace", "1" if trace else "0",
           "--work-dir", str(BUILD_DIR / "work")]
    if quick:
        cmd.append("--quick")
    raw = json.loads(run_command(cmd, RUN_TIMEOUT_S))
    result = {"threads": raw["threads"], "attempted": raw["attempted"],
              "failed": raw["failed"], "failures": raw["failures"],
              "error_rate": raw["failed"] / raw["attempted"],
              "end_to_end": end_to_end(raw)}
    for metric in metrics["end_to_end"]:
        result["end_to_end"][metric["name"]]["unit"] = metric["unit"]
    if trace:
        layers = raw["per_layer"]
        missing = [m["name"] for m in metrics["per_layer"]
                   if m["name"] not in layers]
        if missing:
            raise BenchError(f"{name}: no per-layer value for {missing}")
        result["per_layer"] = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in metrics["per_layer"]}
        result["spans"] = raw["spans"]
    result["sample"] = raw
    return result


def print_metrics(name: str, kind: str, values: dict) -> None:
    for metric, entry in values.items():
        spread = ""
        if entry.get("n", 1) > 1:
            spread = (f"  ({entry['n']} reps, "
                      f"q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g})")
        print(f"{name:<11} {kind:<9} {metric:<28} {entry['value']:>14.6g} "
              f"{entry['unit']}{spread}")


def main() -> int:
    metrics = spec()
    names = [w["name"] for w in metrics["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=metrics["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        default=BUILD_DIR / "results")
    parser.add_argument("--quick", action="store_true",
                        help="every workload at 1/20 size, one rep")
    args = parser.parse_args()
    everything = args.workload is None
    trace = everything or args.trace == 1
    selected = names if everything else [args.workload]

    try:
        build()
        load_before = os.getloadavg()
        results = {}
        for name in selected:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         trace, args.quick, metrics)
        load_after = os.getloadavg()
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    first = next(iter(results.values()))["sample"]
    record = {"provenance": provenance(args.seed, first), "workloads": {}}
    record["provenance"].update(
        threads=max(r["threads"] for r in results.values()),
        load_before=load_before, load_after=load_after,
        seconds=args.seconds, quick=args.quick, finished=time.time())
    final = {}
    attempted = failed = 0
    for name, result in results.items():
        sample = result.pop("sample")
        spans = result.pop("spans", None)
        record["workloads"][name] = result
        attempted += result["attempted"]
        failed += result["failed"]
        for failure in result["failures"]:
            print(f"{name}: CHECK FAILED: {failure}", file=sys.stderr)
        print_metrics(name, "e2e", result["end_to_end"])
        chosen = dict(result["end_to_end"])
        if "per_layer" in result:
            print_metrics(name, "layer", result["per_layer"])
            if not everything:
                chosen = {}
            chosen.update(result["per_layer"])
            trace_file = {"workload": name, "seed": args.seed,
                          "slots": sample["slots"],
                          "traced_wall_ns": [sum(rep["chunks_ns"]) for rep
                                             in sample["traced_reps"]],
                          "spans": spans, "per_layer": result["per_layer"]}
            with open(args.out / f"trace-{name}.json", "w",
                      encoding="utf-8") as handle:
                json.dump(trace_file, handle, indent=1)
        for metric, entry in chosen.items():
            key = f"{name}/{metric}" if everything else metric
            final[key] = {"value": entry["value"], "unit": entry["unit"]}
    record["error_rate"] = failed / attempted
    with open(args.out / "results.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
