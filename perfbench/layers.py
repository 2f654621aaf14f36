"""Timing wrappers around each layer's public entry points.

Every per-layer number of the benchmark comes from one of these wrappers or
from spans the program already records; nothing here reaches inside
``src/``.  Each wrapper keeps a list of call durations (seconds) per
operation in a shared :class:`Recorder`.
"""

from __future__ import annotations

import statistics
import time

from catalog import OPERATORS

from repro.driver.client import HTTPClient
from repro.platform.service import PlatformService
from repro.platform.store import Store


class Recorder:
    """Call durations (seconds) and counts, keyed by operation name."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        self.durations.setdefault(name, []).append(seconds)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def median_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) * 1000 if values else 0.0

    def quantile_ms(self, name: str, quantile: float) -> float:
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(quantile * len(values)))] * 1000


class TimedEngine:
    """An engine proxy timing ``prepare`` and ``execute``; all else delegates.

    ``execute`` is timed twice: in wall time (``engine.execute``, for the
    drain's wall-time split) and in thread CPU time (``engine.execute_cpu``).
    """

    def __init__(self, engine, recorder: Recorder):
        self._engine = engine
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def prepare(self, query):
        started = time.perf_counter()
        try:
            return self._engine.prepare(query)
        finally:
            self._recorder.add("engine.prepare", time.perf_counter() - started)

    def execute(self, query, trace: bool = False):
        started, cpu = time.perf_counter(), time.thread_time()
        try:
            return self._engine.execute(query, trace=trace)
        finally:
            self._recorder.add("engine.execute_cpu", time.thread_time() - cpu)
            self._recorder.add("engine.execute", time.perf_counter() - started)


class TimedStore(Store):
    """The platform store, timing the calls the queue and analytics make."""

    recorder: Recorder | None = None

    def tasks(self, experiment_id=None):
        started = time.perf_counter()
        tasks = super().tasks(experiment_id)
        if self.recorder is not None:
            self.recorder.add("store.tasks", time.perf_counter() - started)
            self.recorder.count("store.task_rows_read", len(tasks))
        return tasks

    def update_many(self, table, entities):
        # the lease sweep calls this with no entities on every claim; only
        # calls that write are timed.
        started = time.perf_counter()
        try:
            return super().update_many(table, entities)
        finally:
            if self.recorder is not None and entities:
                self.recorder.add("store.update_many", time.perf_counter() - started)

    def apply_batch(self, inserts, updates, idempotency=()):
        started = time.perf_counter()
        try:
            return super().apply_batch(inserts, updates, idempotency)
        finally:
            if self.recorder is not None:
                self.recorder.add("store.apply_batch", time.perf_counter() - started)

    def results(self, experiment_id=None):
        started = time.perf_counter()
        try:
            return super().results(experiment_id)
        finally:
            if self.recorder is not None:
                self.recorder.add("store.results", time.perf_counter() - started)


class TimedService(PlatformService):
    """The platform service, timing the claim and submit use cases."""

    recorder: Recorder | None = None

    def next_tasks(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            claimed = super().next_tasks(*args, **kwargs)
        finally:
            if self.recorder is not None:
                self.recorder.add("service.next_tasks", time.perf_counter() - started)
        if self.recorder is not None:
            self.recorder.count("service.claimed", len(claimed))
        return claimed

    def submit_results(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return super().submit_results(*args, **kwargs)
        finally:
            if self.recorder is not None:
                self.recorder.add("service.submit_results", time.perf_counter() - started)


class TimedClient(HTTPClient):
    """The driver's HTTP client, timing each claim and submission round trip."""

    recorder: Recorder | None = None

    def next_tasks(self, experiment_id, count=1, dbms=None):
        started = time.perf_counter()
        try:
            return super().next_tasks(experiment_id, count=count, dbms=dbms)
        finally:
            if self.recorder is not None:
                self.recorder.add("client.claim", time.perf_counter() - started)

    def submit_results(self, results):
        started = time.perf_counter()
        try:
            return super().submit_results(results)
        finally:
            if self.recorder is not None:
                self.recorder.add("client.submit", time.perf_counter() - started)


class TimingMiddleware:
    """WSGI middleware timing the platform app per request path.

    The app builds its whole response body before returning, so the time
    of the call is the server-side time of the request.
    """

    def __init__(self, application, recorder: Recorder):
        self.application = application
        self.recorder = recorder

    def __call__(self, environ, start_response):
        started = time.perf_counter()
        try:
            return self.application(environ, start_response)
        finally:
            self.recorder.add("http." + environ.get("PATH_INFO", "/"),
                              time.perf_counter() - started)


def operator_self_seconds(trace) -> dict[str, float]:
    """Self time (span minus children) per operator name over a QueryTrace."""
    totals = {name: 0.0 for name in OPERATORS}
    for span in trace.spans():
        if span.name in totals:
            children = sum(child.elapsed for child in span.children)
            totals[span.name] += max(0.0, span.elapsed - children)
    return totals


def scan_chunks(trace) -> tuple[int, int]:
    """Chunks scanned and skipped, summed over the trace's scan spans."""
    scanned = skipped = 0
    for span in trace.spans():
        if span.name == "scan":
            scanned += int(span.attributes.get("chunks_scanned") or 0)
            skipped += int(span.attributes.get("chunks_skipped") or 0)
    return scanned, skipped
