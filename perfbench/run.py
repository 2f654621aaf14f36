"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload tpch_flat --seed 1 --seconds 12 --trace 0

Workloads: ``tpch_flat``, ``tpch_nested``, ``platform_cycle``, or ``all``
(the three in turn).  A TPC-H workload runs as three worker processes, one
after the other (``--part``, see ``tpch.run``).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; for ``all`` its metric
names carry a ``<workload>/`` prefix.  Run it from the repository root; it
imports the program from ``src/`` and writes only under
``.perfbench_work/``, which it removes when done.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tpch_flat", "tpch_nested", "platform_cycle")


def _import_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"the program's sources are not at {source}: "
                         "run from a checkout of the repository")
    sys.path[:0] = [str(HERE), str(source)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    import catalog
    import platform_cycle
    import tpch

    if workload == "platform_cycle":
        parent = os.path.join(os.getcwd(), ".perfbench_work")
        outcome = platform_cycle.run(seed, seconds, trace,
                                     os.path.join(parent, str(os.getpid())))
        try:
            os.rmdir(parent)
        except OSError:  # another run's directory is still there
            pass
    else:
        outcome = tpch.run(workload, seed, seconds, trace)
    outcome.metrics = catalog.complete(outcome.metrics, trace)
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one worker share of a TPC-H workload, print its raw data.
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.part is not None:
        import tpch

        raw = tpch.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.part)
        print(json.dumps(raw), flush=True)
        return 0

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(f"== {workload}: correct={outcome.correct} attempted={outcome.attempted} "
              f"failed={outcome.failed}")
        for name, (value, unit) in outcome.metrics.items():
            print(f"   {name:36s} {value:14.4f} {unit}")
        for problem in outcome.problems:
            print(f"   problem: {problem}", file=sys.stderr)
        result = outcome.to_json()
        if len(workloads) == 1:
            summary = result
            break
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{workload}/{name}": value
                                   for name, value in result["metrics"].items()})
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
