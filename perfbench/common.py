"""Helpers shared by the workloads: statistics, memory, the result record."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: set-ups per run (on TPC-H one per worker process); ``setup_s`` is their median.
SETUPS = 3


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_timed(function, *args, **kwargs):
    """Call ``function`` and return ``(result, CPU seconds of this thread)``.

    On a shared virtual machine the wall clock also counts the time other
    guests hold the CPU: a fixed 100 ms loop read 87-191 ms of wall time
    but 87-127 ms of thread CPU time.  Single-threaded work is therefore
    timed in CPU time.
    """
    started = time.thread_time()
    result = function(*args, **kwargs)
    return result, time.thread_time() - started


def process_timed(function, *args, **kwargs):
    """Call ``function`` and return ``(result, CPU seconds of all threads)``."""
    started = time.process_time()
    result = function(*args, **kwargs)
    return result, time.process_time() - started


def repeat_setup(build, teardown=None):
    """Build the set-up :data:`SETUPS` times; keep the last, report the median.

    Every earlier build is torn down and collected before the next starts,
    so each one pays the same cold costs.  Each build is timed in process
    CPU time.
    """
    durations = []
    state = None
    for attempt in range(SETUPS):
        if state is not None and teardown is not None:
            teardown(state)
        state = None
        gc.collect()
        state, seconds = process_timed(build)
        durations.append(seconds)
    return state, median(durations)


@dataclass
class Outcome:
    """What one workload run reports."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def wrong(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }
