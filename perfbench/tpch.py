"""The two TPC-H workloads: ``tpch_flat`` and ``tpch_nested``.

Protocol, the same for both.  A run is :data:`~common.SETUPS` worker
processes in turn; each does:

* set-up (timed; ``setup_s`` is the median over the workers): populate the
  database, create the row and column engines (``workers=1``), prepare
  every query cold on both, and execute each once to warm lazy state
  (columnar views, dictionaries, zone indexes).  The first worker checks
  the warm-up output against the SQLite oracle.
* timed part: rounds until its share of ``--seconds`` has passed (at least
  one).  A round runs every (query, engine) pair once, in an order
  shuffled by the seed, so drift on a shared machine hits every query
  alike.  Queries faster than :data:`MIN_SLICE_S` execute several times
  back to back within their slot so their median has samples.
* ``--trace 1`` adds one traced execution (``Engine.execute(trace=True)``)
  after each untraced slot; operator self times come from those spans.

Executions are timed in thread CPU time (see :func:`common.cpu_timed`).
Per-query medians pool the samples of all workers.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

from common import SETUPS, Outcome, cpu_timed, geomean, median, peak_rss_mb, process_timed
from catalog import FLAT_QUERIES, NESTED_QUERIES, OPERATORS
from layers import operator_self_seconds, scan_chunks
from oracle import SQLiteOracle

from repro.data import populate_tpch
from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.sqlparser.parser import parse_select
from repro.tpch import QUERIES

#: the TPC-H generator's own default seed, used where data must not vary.
DEFAULT_DATA_SEED = 20190113

WORKLOADS = {
    # subquery-free queries; data generated from the run's seed.
    "tpch_flat": {"queries": FLAT_QUERIES, "scale_factor": 0.01, "seeded_data": True},
    # subquery queries at a smaller scale: their per-row subquery work is
    # O(n^2).  The data use one fixed seed: at SF 0.001 Q17's brand and
    # container filter selects ~0.2 parts on average, so the seed alone
    # would decide whether Q17 takes 5 ms or 1 s.
    "tpch_nested": {"queries": NESTED_QUERIES, "scale_factor": 0.001,
                    "seeded_data": False},
}

#: checked against the oracle, kept out of the means (returns no rows
#: in ~0.2 ms at SF 0.001, so its time is noise).
CHECK_ONLY = {20}
MIN_SLICE_S = 0.02
MAX_REPEATS = 25


@dataclass
class Setup:
    database: Database
    engines: dict           # {"row": engine, "column": engine}
    plans: dict             # {(kind, query): plan}
    warm: dict              # {(kind, query): (seconds, rows)}
    populate_s: float
    prepare_s: dict         # {(kind, query): seconds}
    warmup_s: float


def _build(spec: dict, data_seed: int) -> Setup:
    database = Database(name="tpch")
    _, populate_s = cpu_timed(populate_tpch, database,
                              scale_factor=spec["scale_factor"], seed=data_seed)
    engines = {"row": RowEngine(database),
               "column": ColumnEngine(database, options=EngineOptions(workers=1))}
    plans, prepare_s = {}, {}
    for kind, engine in engines.items():
        for query in spec["queries"]:
            plans[kind, query], prepare_s[kind, query] = cpu_timed(engine.prepare,
                                                                   QUERIES[query])
    warm = {}
    started = time.thread_time()
    for kind, engine in engines.items():
        for query in spec["queries"]:
            result, seconds = cpu_timed(engine.execute, plans[kind, query])
            warm[kind, query] = (seconds, result.rows)
    warmup_s = time.thread_time() - started
    return Setup(database, engines, plans, warm, populate_s, prepare_s, warmup_s)


def _key(pair) -> str:
    return f"{pair[0]}:{pair[1]}"


def measure(workload: str, seed: int, seconds: float, trace: bool, part: int) -> dict:
    """One worker process's share of a run: one set-up, then timed rounds.

    Returns the raw samples as a JSON-friendly dict.  Part 0 also checks
    the warm-up outputs against the SQLite oracle (every part builds the
    same data).
    """
    spec = WORKLOADS[workload]
    data_seed = seed if spec["seeded_data"] else DEFAULT_DATA_SEED
    setup, setup_s = process_timed(_build, spec, data_seed)
    raw = {"setup_s": setup_s, "populate_s": setup.populate_s,
           "prepare_s": list(setup.prepare_s.values()), "warmup_s": setup.warmup_s,
           "attempted": 0, "failed": 0, "problems": [], "wrong": [],
           "samples": {}, "traced": {},
           "self_seconds": {}, "chunks": {}}
    pairs = [(kind, query) for kind in setup.engines for query in spec["queries"]]
    repeats = {pair: max(1, min(MAX_REPEATS,
                                math.ceil(MIN_SLICE_S / max(setup.warm[pair][0], 1e-6))))
               for pair in pairs}
    samples = {pair: [] for pair in pairs}
    traced = {pair: [] for pair in pairs}
    self_seconds = {pair: [] for pair in pairs}
    expected_rows = {pair: len(setup.warm[pair][1]) for pair in pairs}
    order = random.Random(f"{seed}/{part}")

    started = time.perf_counter()
    rounds = 0
    while rounds < 1 or time.perf_counter() - started < seconds:
        order.shuffle(pairs)
        for pair in pairs:
            engine, plan = setup.engines[pair[0]], setup.plans[pair]
            for _ in range(repeats[pair]):
                raw["attempted"] += 1
                try:
                    result, elapsed = cpu_timed(engine.execute, plan)
                except Exception as exc:  # counted, reported, run goes on
                    raw["failed"] += 1
                    raw["problems"].append(f"{pair}: {type(exc).__name__}: {exc}")
                    continue
                samples[pair].append(elapsed)
                if len(result.rows) != expected_rows[pair]:
                    raw["wrong"].append(f"{pair}: {len(result.rows)} rows, warm-up "
                                        f"had {expected_rows[pair]}")
            if trace:
                result, elapsed = cpu_timed(engine.execute, plan, trace=True)
                traced[pair].append(elapsed)
                self_seconds[pair].append(operator_self_seconds(result.trace))
                raw["chunks"][_key(pair)] = scan_chunks(result.trace)
        rounds += 1
    raw["peak_rss_mb"] = peak_rss_mb()
    for pair in pairs:
        raw["samples"][_key(pair)] = samples[pair]
        raw["traced"][_key(pair)] = traced[pair]
        raw["self_seconds"][_key(pair)] = self_seconds[pair]
    if trace:
        raw["parse_s"] = [cpu_timed(parse_select, QUERIES[query])[1]
                          for query in spec["queries"]]
    if part == 0:
        # correctness: every warm-up output against SQLite (not timed).
        oracle = SQLiteOracle(setup.database)
        try:
            for pair in sorted(pairs):
                problem = oracle.check(QUERIES[pair[1]], setup.warm[pair][1])
                if problem:
                    raw["wrong"].append(f"{pair[0]} Q{pair[1]}: {problem}")
        finally:
            oracle.close()
    return raw


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run the workload as :data:`~common.SETUPS` worker processes in turn.

    Each worker builds its own set-up and measures an equal share of
    ``seconds``.  Spreading a run over several processes averages out the
    per-process differences (memory layout, cache placement) that made a
    single process's medians of the same query differ by up to 30%
    between processes on a shared 2-vCPU machine.
    """
    spec = WORKLOADS[workload]
    parts = [run_worker(workload, seed, seconds / SETUPS, trace, part)
             for part in range(SETUPS)]
    outcome = Outcome()
    for raw in parts:
        outcome.attempted += raw["attempted"]
        outcome.failed += raw["failed"]
        outcome.problems.extend(raw["problems"])
        for problem in raw["wrong"]:
            outcome.wrong(problem)
    pairs = [(kind, query) for kind in ("row", "column") for query in spec["queries"]]

    def pooled(field: str, pair) -> list:
        return [value for raw in parts for value in raw[field][_key(pair)]]

    medians = {pair: median(pooled("samples", pair)) * 1000 for pair in pairs}
    measured = [query for query in spec["queries"] if query not in CHECK_ONLY]
    if not trace:
        outcome.metric("setup_s", median(raw["setup_s"] for raw in parts), "s")
        for kind in ("row", "column"):
            # the arithmetic mean: a geomean gives ~1 ms queries, whose CPU
            # time moves by up to 30% between processes, the weight of a
            # 1 s query.
            outcome.metric(f"{kind}_query_ms",
                           fmean(medians[kind, query] for query in measured), "ms")
        # one task: one query on one engine; a round at median times.
        outcome.metric("tasks_per_s", len(pairs) / sum(medians.values()) * 1000, "1/s")
        outcome.metric("peak_rss_mb", median(raw["peak_rss_mb"] for raw in parts), "MB")
        return outcome

    outcome.metric("data.populate_s", median(raw["populate_s"] for raw in parts), "s")
    outcome.metric("engine.prepare_ms",
                   median(value for raw in parts for value in raw["prepare_s"]) * 1000, "ms")
    outcome.metric("engine.warmup_s", median(raw["warmup_s"] for raw in parts), "s")
    outcome.metric("sqlparser.parse_ms",
                   median(value for raw in parts for value in raw["parse_s"]) * 1000, "ms")
    for (kind, query), value in medians.items():
        outcome.metric(f"{kind}.q{query:02d}_ms", value, "ms")
    for kind in ("row", "column"):
        for operator in OPERATORS:
            total = sum(median(split[operator] for split in pooled("self_seconds", (kind, query)))
                        for query in spec["queries"])
            outcome.metric(f"{kind}.{operator}_self_ms", total * 1000, "ms")
    chunks = parts[0]["chunks"]
    outcome.metric("column.chunks_scanned",
                   sum(chunks[_key(("column", query))][0] for query in spec["queries"]),
                   "count")
    outcome.metric("column.chunks_skipped",
                   sum(chunks[_key(("column", query))][1] for query in spec["queries"]),
                   "count")
    timed_pairs = [pair for pair in pairs if pair[1] not in CHECK_ONLY]
    plain = geomean(medians[pair] for pair in timed_pairs)
    with_trace = geomean(median(pooled("traced", pair)) * 1000 for pair in timed_pairs)
    outcome.metric("obs.trace_overhead_pct", (with_trace / plain - 1) * 100, "%")
    return outcome


def run_worker(workload: str, seed: int, seconds: float, trace: bool, part: int) -> dict:
    """Run :func:`measure` in a fresh interpreter and return its raw dict."""
    command = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--part", str(part)]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} worker {part} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])
