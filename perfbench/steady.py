"""Steadiness check: run workloads repeatedly and summarise each metric.

    python3 perfbench/steady.py --runs 10 --seconds 15
    python3 perfbench/steady.py --runs 5 --workloads tpch_nested --trace 1

Each run is a fresh ``run.py`` process with its own seed (1, 2, ...);
the order of the workloads alternates between repetitions, so
drift on the machine does not always hit the same workload.  For every
workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), min and max, and the spread
``(Q3 - Q1) / median``.  For end-to-end metrics it also prints the bound
from ``BENCHMARK.json`` and flags a spread at or above a third of it
(``setup_s`` excepted: its spread is not bounded, only its median).
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=900)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    middle = statistics.median(values)
    if len(values) >= 2:
        first, _, third = statistics.quantiles(values, n=4)
    else:
        first = third = values[0]
    return {"median": middle, "q1": first, "q3": third, "min": min(values),
            "max": max(values),
            "spread": (third - first) / abs(middle) if middle else float("inf")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}

    runs: dict[str, list[dict]] = {workload: [] for workload in args.workloads}
    for index in range(args.runs):
        order = args.workloads if index % 2 == 0 else args.workloads[::-1]
        for workload in order:
            result = run_once(workload, index + 1, seconds, args.trace)
            runs[workload].append(result)
            print(f"run {index + 1}/{args.runs} {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    unsteady = 0
    for workload, results in runs.items():
        shares = {result["failed"] / result["attempted"] for result in results}
        print(f"\n{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [result["metrics"][name]["value"] for result in results]
            stats = summarise(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] >= bound / 3:
                flag = "  UNSTEADY"
                unsteady += 1
            print(f"  {name:36s} {stats['median']:12.4f} {stats['q1']:12.4f} "
                  f"{stats['q3']:12.4f} {stats['min']:12.4f} {stats['max']:12.4f} "
                  f"{stats['spread']:8.3f} {'' if bound is None else bound:>6}{flag}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
