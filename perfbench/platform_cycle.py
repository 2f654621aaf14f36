"""The ``platform_cycle`` workload: the paper's loop at platform scale.

1. Build (repeated, median reported as ``setup_s``): a tiny TPC-H database,
   a file-backed store with its default flush policy (WAL,
   ``synchronous=NORMAL``), a project and an experiment on a Q1 baseline
   without its ORDER BY (grammar extraction), a pool morphed to
   :data:`POOL_SIZE` variants, the variants enqueued for both engines, and
   the HTTP server started in a background thread.
2. Drain over real HTTP: one ``BatchRunner`` per engine, in turn, each a
   closed loop of one client claiming batches of :data:`BATCH`.
3. Build the owner's analytics from the committed results: once for the
   checks, and :data:`REPORTS` more times, timed, in the traced run.
4. Check the platform's properties: exactly-once completion, reconciled
   counters, row counts against SQLite, one speedup point per variant
   measured on both engines, one history node per variant.

``--trace 1`` first drains an untraced copy (for the overhead figure), then
drains a copy built with the timing wrappers of :mod:`layers` and platform
telemetry enabled, and reports the per-layer split.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import time
from collections import Counter

from common import Outcome, cpu_timed, geomean, median, peak_rss_mb, repeat_setup
from layers import (Recorder, TimedClient, TimedEngine, TimedService, TimedStore,
                    TimingMiddleware)
from oracle import SQLiteOracle

from repro.analytics import (component_report, experiment_history, speedup_report,
                             stitch_timelines)
from repro.data import populate_tpch
from repro.driver.client import HTTPClient
from repro.driver.config import DriverConfig
from repro.driver.runner import BatchRunner
from repro.engine import ColumnEngine, Database, EngineOptions, RowEngine
from repro.obs import TelemetryConfig
from repro.platform.service import PlatformService
from repro.platform.store import Store
from repro.platform.webapp import PlatformServer, create_wsgi_app
from repro.pool.morph import Morpher
from repro.sqlparser.parser import parse_select
from repro.tpch import QUERIES

SCALE_FACTOR = 0.0002
POOL_SIZE = 800
BATCH = 10
REPEATS = 1
REPORTS = 7
#: Q1 without its ORDER BY: the grammar of the full Q1 can drop a GROUP BY
#: column while keeping it in ORDER BY, which makes ~31% of variants invalid.
BASELINE = QUERIES[1][:QUERIES[1].lower().rindex("order by")].rstrip() + "\n"
#: span buffers large enough to keep every span of a traced drain.
TRACE_TELEMETRY = TelemetryConfig(enabled=True, span_capacity=500_000,
                                  flight_capacity=32)


class Cycle:
    """One built platform: service, server, experiment, pool and engines."""

    def __init__(self, workdir: str, seed: int, traced: bool):
        self.recorder = Recorder()
        self.traced = traced
        self.path = os.path.join(workdir, f"store-{time.monotonic_ns()}.db")
        self.database = Database(name="tpch")
        _, self.populate_s = cpu_timed(populate_tpch, self.database,
                                       scale_factor=SCALE_FACTOR, seed=seed)
        self.engines = [RowEngine(self.database),
                        ColumnEngine(self.database, options=EngineOptions(workers=1))]
        telemetry = TRACE_TELEMETRY if traced else TelemetryConfig.disabled()
        if traced:
            store = TimedStore(self.path)
            self.service = TimedService(store=store, telemetry=telemetry)
        else:
            self.service = PlatformService(store=Store(self.path), telemetry=telemetry)
        service = self.service
        self.owner = service.register_user("owner", "owner@example.org")
        self.contributor = service.register_user("contributor", "contributor@example.org")
        self.host = service.register_host("bench", cpu="generic", memory_gb=8, os="linux")
        dbms = [service.register_dbms(engine.name, engine.version, dialect=engine.name)
                for engine in self.engines]
        project = service.create_project(self.owner, "q1-morphs")
        service.invite_contributor(self.owner, project, self.contributor)
        self.experiment, self.grammar_s = cpu_timed(
            service.add_experiment, self.owner, project, "q1", BASELINE,
            dbms=dbms[0], host=self.host, repeats=REPEATS, timeout_seconds=120.0)
        started = time.thread_time()
        self.pool = service.build_pool(self.experiment, seed=seed)
        self.pool.seed_baseline()
        self.pool.seed_random(POOL_SIZE // 3)
        Morpher(self.pool, seed=seed).grow_to(POOL_SIZE)
        self.morph_s = time.thread_time() - started
        started = time.thread_time()
        for engine in self.engines:
            service.enqueue_pool(self.owner, self.experiment, self.pool,
                                 dbms_label=engine.label, host_name=self.host.name)
        self.enqueue_s = time.thread_time() - started
        application = None
        if traced:
            application = TimingMiddleware(create_wsgi_app(service), self.recorder)
            store.recorder = self.recorder
            service.recorder = self.recorder
        self.server = PlatformServer(service, application=application).start()
        self.runners: list[BatchRunner] = []
        #: per engine strategy: thread CPU seconds of each Engine.execute.
        self.execute_cpu: dict[str, list[float]] = {}

    def close(self) -> None:
        self.server.stop()
        self.service.store.close()
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(self.path + suffix):
                os.remove(self.path + suffix)

    def drain(self) -> tuple[int, float, float]:
        """Drain both engines' tasks over HTTP.

        Returns the tasks executed, the wall seconds and the process CPU
        seconds (driver and server threads) of the drain.
        """
        key = self.contributor.contributor_key
        started, cpu = time.perf_counter(), time.process_time()
        executed = 0
        for engine in self.engines:
            config = DriverConfig(key=key, dbms=engine.label, host=self.host.name,
                                  repeats=REPEATS, timeout=120.0, batch_size=BATCH,
                                  trace_tasks=self.traced,
                                  telemetry=TRACE_TELEMETRY if self.traced
                                  else TelemetryConfig.disabled())
            if self.traced:
                client = TimedClient(self.server.url, key)
                client.recorder = self.recorder
            else:
                client = HTTPClient(self.server.url, key)
            runner = BatchRunner(client=client, engine=TimedEngine(engine, self.recorder),
                                 config=config)
            self.runners.append(runner)
            before = len(self.recorder.durations.get("engine.execute_cpu", ()))
            executed += runner.run_all(self.experiment.id)
            self.execute_cpu[engine.strategy()] = \
                self.recorder.durations.get("engine.execute_cpu", [])[before:]
        return executed, time.perf_counter() - started, time.process_time() - cpu

    def report(self, recorder: Recorder | None = None) -> dict:
        """Build the owner's analytics from the committed store once."""
        def step(name, function, *args, **kwargs):
            value, seconds = cpu_timed(function, *args, **kwargs)
            if recorder is not None:
                recorder.add(name, seconds)
            return value

        row, column = (engine.label for engine in self.engines)
        records = self.service.results(self.experiment, viewer=self.owner)
        by_sql = {entry.sql: entry for entry in self.pool.entries()}
        for entry in by_sql.values():
            entry.observations.clear()
        for record in records:
            entry = by_sql.get(record.query_sql)
            if entry is not None:
                self.pool.record(entry, record.dbms_label, record.best or 0.0,
                                 error=record.error, repeats=record.times,
                                 metadata=record.extras)
        return {
            "speedup": step("analytics.speedup", speedup_report, self.pool,
                            baseline=column, comparison=row),
            "components": step("analytics.components", component_report, self.pool,
                               system=row),
            "history": step("analytics.history", experiment_history, self.pool,
                            system=row),
            "discriminative": step("analytics.discriminative",
                                   self.pool.discriminative, column, row),
            "csv": step("analytics.csv", self.service.export_results_csv,
                        self.experiment, viewer=self.owner),
        }

    def store_bytes(self) -> int:
        """Size of the store's file after a WAL checkpoint."""
        connection = sqlite3.connect(self.path)
        try:
            connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        finally:
            connection.close()
        return os.path.getsize(self.path)


def _check(cycle: Cycle, outcome: Outcome, reports: dict) -> None:
    """The platform's exactly-once and analytics properties."""
    store = cycle.service.store
    tasks = store.tasks(cycle.experiment.id)
    results = store.results(cycle.experiment.id)
    per_task = Counter(result.task_id for result in results if result.error is None)
    outcome.attempted += len(tasks)
    for task in tasks:
        if task.status != "done" or task.attempts != 1 or per_task[task.id] != 1:
            outcome.failed += 1
            outcome.problems.append(
                f"task {task.id}: status {task.status}, {task.attempts} attempts, "
                f"{per_task[task.id]} accepted results")
    expected = len(cycle.pool) * len(cycle.engines)
    counters = cycle.service.metrics.snapshot().get("counters", {})
    books = {name: counters.get(name, 0)
             for name in ("tasks.enqueued", "tasks.dispatched", "results.accepted")}
    if len(tasks) != expected or set(books.values()) != {expected}:
        outcome.wrong(f"{len(tasks)} tasks for {expected} variant-engine pairs; "
                      f"counters {books}")
    oracle = SQLiteOracle(cycle.database, tables=["lineitem"])
    try:
        counts: dict[str, int] = {}
        for result in results:
            if result.error is not None:
                continue
            if result.query_sql not in counts:
                counts[result.query_sql] = oracle.count(result.query_sql)
            rows = (result.extras or {}).get("rows")
            if rows != counts[result.query_sql]:
                outcome.wrong(f"result {result.id}: {rows} rows, SQLite has "
                              f"{counts[result.query_sql]} for {result.query_sql!r}")
    finally:
        oracle.close()
    labels = {engine.label for engine in cycle.engines}
    measured = {}
    for result in results:
        if result.error is None and result.times:
            measured.setdefault(result.query_sql, set()).add(result.dbms_label)
    both = sum(1 for systems in measured.values() if systems == labels)
    if len(reports["speedup"].points) != both:
        outcome.wrong(f"speedup report has {len(reports['speedup'].points)} points "
                      f"for {both} variants measured on both engines")
    if len(reports["history"].nodes) != len(cycle.pool):
        outcome.wrong(f"history has {len(reports['history'].nodes)} nodes for "
                      f"{len(cycle.pool)} variants")


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    outcome = Outcome()
    os.makedirs(workdir, exist_ok=True)
    try:
        if trace:
            _run_traced(seed, workdir, outcome)
        else:
            _run_plain(seed, workdir, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def _run_plain(seed: int, workdir: str, outcome: Outcome) -> None:
    cycle, setup_s = repeat_setup(lambda: Cycle(workdir, seed, traced=False),
                                  teardown=Cycle.close)
    try:
        executed, _wall_s, cpu_s = cycle.drain()
        rss = peak_rss_mb()
        reports = cycle.report()
        _check(cycle, outcome, reports)
    finally:
        cycle.close()
    outcome.metric("setup_s", setup_s, "s")
    for kind, seconds in cycle.execute_cpu.items():
        # one execution per variant (repeats=1): geomean over the variants.
        outcome.metric(f"{kind}_query_ms", geomean(value * 1000 for value in seconds), "ms")
    outcome.metric("tasks_per_s", executed / cpu_s, "1/s")
    outcome.metric("peak_rss_mb", rss, "MB")


def _run_traced(seed: int, workdir: str, outcome: Outcome) -> None:
    plain = Cycle(workdir, seed, traced=False)
    try:
        plain_executed, _wall_s, plain_cpu_s = plain.drain()
    finally:
        plain.close()
    cycle = Cycle(workdir, seed, traced=True)
    recorder = cycle.recorder
    try:
        recorder.counts.clear()
        recorder.durations.clear()
        executed, drain_s, cpu_s = cycle.drain()
        task_rows = recorder.counts.get("store.task_rows_read", 0)
        claimed = recorder.counts.get("service.claimed", 0)
        report_recorder = Recorder()
        cycle.service.store.recorder = report_recorder
        for _ in range(REPORTS):
            _, seconds = cpu_timed(cycle.report, report_recorder)
            report_recorder.add("report", seconds)
        cycle.service.store.recorder = None
        reports = cycle.report()
        _check(cycle, outcome, reports)
        store_bytes = cycle.store_bytes()
        tasks = cycle.service.store.tasks(cycle.experiment.id)
        results = cycle.service.store.results(cycle.experiment.id)
        timelines = [timeline for timeline in stitch_timelines(
            tasks=tasks, results=results,
            span_sources=[cycle.service.spans, *(runner.spans for runner in cycle.runners)])
            if timeline.task_id is not None]
        parse_s = [cpu_timed(parse_select, entry.sql)[1] for entry in cycle.pool.entries()]
    finally:
        cycle.close()

    claim_s = recorder.total("client.claim")
    submit_s = recorder.total("client.submit")
    engine_s = recorder.total("engine.prepare") + recorder.total("engine.execute")
    # other_s is the remainder, so the four parts sum to the drain by
    # construction; what can fail is that the timed parts overlap or
    # outlast the drain's wall time.
    other_s = drain_s - claim_s - submit_s - engine_s
    if other_s < 0:
        outcome.wrong(f"drain split does not reconcile: claim {claim_s} + engine "
                      f"{engine_s} + submit {submit_s} exceeds wall {drain_s}")
    metric = outcome.metric
    metric("data.populate_s", cycle.populate_s, "s")
    metric("sqlparser.parse_ms", median(parse_s) * 1000, "ms")
    metric("engine.prepare_ms", recorder.median_ms("engine.prepare"), "ms")
    metric("core.grammar_ms", cycle.grammar_s * 1000, "ms")
    metric("pool.morph_s", cycle.morph_s, "s")
    metric("service.enqueue_s", cycle.enqueue_s, "s")
    metric("driver.claim_s", claim_s, "s")
    metric("driver.engine_s", engine_s, "s")
    metric("driver.submit_s", submit_s, "s")
    metric("driver.other_s", other_s, "s")
    metric("driver.prepare_ms_p50", recorder.median_ms("engine.prepare"), "ms")
    metric("driver.execute_ms_p50", recorder.median_ms("engine.execute"), "ms")
    claim_server = recorder.durations.get("http./api/tasks", [])
    claim_client = recorder.durations.get("client.claim", [])
    metric("claim_ms_p50", recorder.median_ms("client.claim"), "ms")
    metric("claim_ms_p90", recorder.quantile_ms("client.claim", 0.9), "ms")
    metric("submit_ms_p50", recorder.median_ms("client.submit"), "ms")
    metric("http.claim_server_ms_p50", recorder.median_ms("http./api/tasks"), "ms")
    metric("http.submit_server_ms_p50", recorder.median_ms("http./api/results/batch"), "ms")
    metric("http.claim_transport_ms_p50",
           median(client - server for client, server in zip(claim_client, claim_server))
           * 1000, "ms")
    metric("service.next_tasks_ms_p50", recorder.median_ms("service.next_tasks"), "ms")
    metric("service.submit_results_ms_p50", recorder.median_ms("service.submit_results"),
           "ms")
    metric("store.tasks_ms_p50", recorder.median_ms("store.tasks"), "ms")
    metric("store.update_many_ms_p50", recorder.median_ms("store.update_many"), "ms")
    metric("store.apply_batch_ms_p50", recorder.median_ms("store.apply_batch"), "ms")
    metric("store.task_rows_read_per_claimed", task_rows / claimed, "count")
    metric("store.results_ms", report_recorder.median_ms("store.results"), "ms")
    metric("report_ms", report_recorder.median_ms("report"), "ms")
    for name in ("speedup", "components", "history", "discriminative", "csv"):
        metric(f"analytics.{name}_ms", report_recorder.median_ms(f"analytics.{name}"), "ms")
    metric("store_bytes_per_task", store_bytes / len(tasks), "B")
    for phase in ("queue_wait", "execute", "submit"):
        values = [timeline.phases[phase] for timeline in timelines
                  if phase in timeline.phases]
        metric(f"timeline.{phase}_ms_p50", median(values) * 1000 if values else 0.0, "ms")
    metric("obs.trace_overhead_pct",
           ((plain_executed / plain_cpu_s) / (executed / cpu_s) - 1) * 100, "%")
