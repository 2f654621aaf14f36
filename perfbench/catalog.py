"""The query sets and operators the workloads measure, and the metric order.

Metric names, units and directions live in ``BENCHMARK.json`` at the
repository root only; :func:`complete` reads them from there.  A workload
that does not exercise a per-layer metric's layer reports it as 0 (no
work done there).
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

FLAT_QUERIES = (1, 3, 5, 6, 7, 8, 9, 10, 12, 13, 14)
NESTED_QUERIES = (2, 4, 11, 15, 16, 17, 18, 20, 22)
OPERATORS = ("scan", "filter", "join", "aggregate", "order", "project")


def complete(metrics: dict, trace: bool) -> dict:
    """Order ``metrics`` as ``BENCHMARK.json`` lists them, filling
    unexercised layers with 0.

    Raises when a workload reported a name ``BENCHMARK.json`` does not
    list, reported it in another unit, or left out an end-to-end metric.
    """
    listed = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    completed = {}
    for name, unit in units.items():
        if name in metrics:
            if metrics[name][1] != unit:
                raise ValueError(f"{name} measured in {metrics[name][1]}, "
                                 f"BENCHMARK.json says {unit}")
            completed[name] = metrics[name]
        elif trace:
            completed[name] = (0.0, unit)
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
    return completed
