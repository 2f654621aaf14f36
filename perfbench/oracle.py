"""An SQLite oracle for the engines' query results.

The oracle loads the generated tables into an in-memory stdlib ``sqlite3``
database and answers the same SQL after a purely syntactic translation to
SQLite's dialect.  It shares no code with the engines: the only thing taken
from the program is the row data (``Database.rows``) and the query text.

Results are compared as multisets with a float tolerance; ORDER BY is
checked as a property of the engine's own output, and LIMIT boundaries are
checked tie-aware (the engine may pick any of several rows whose sort keys
tie at the cut-off).
"""

from __future__ import annotations

import datetime
import functools
import math
import re
import sqlite3

REL_TOL = 1e-6
ABS_TOL = 1e-6

_DATE_INTERVAL = re.compile(
    r"date\s+'(\d{4}-\d{2}-\d{2})'\s*([+-])\s*interval\s+'(\d+)'\s+(day|month|year)s?",
    re.IGNORECASE)
_DATE_LITERAL = re.compile(r"date\s+'(\d{4}-\d{2}-\d{2})'", re.IGNORECASE)
_EXTRACT = re.compile(r"extract\s*\(\s*(year|month|day)\s+from\s+([\w.]+)\s*\)",
                      re.IGNORECASE)
_SUBSTRING = re.compile(
    r"substring\s*\(\s*([\w.]+)\s+from\s+(\d+)\s+for\s+(\d+)\s*\)", re.IGNORECASE)
_STRFTIME = {"year": "%Y", "month": "%m", "day": "%d"}


def to_sqlite(sql: str) -> str:
    """Translate the engines' SQL dialect to SQLite's."""
    sql = _DATE_INTERVAL.sub(
        lambda m: f"date('{m.group(1)}', '{m.group(2)}{m.group(3)} {m.group(4).lower()}')",
        sql)
    sql = _DATE_LITERAL.sub(lambda m: f"'{m.group(1)}'", sql)
    sql = _EXTRACT.sub(
        lambda m: f"cast(strftime('{_STRFTIME[m.group(1).lower()]}', {m.group(2)}) as integer)",
        sql)
    return _SUBSTRING.sub(lambda m: f"substr({m.group(1)}, {m.group(2)}, {m.group(3)})",
                          sql)


def _cell(value):
    """Normalise one value for comparison (numbers as float, dates as text)."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def _row(row) -> tuple:
    return tuple(_cell(value) for value in row)


def _close(left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return left == right


def _rows_close(left: tuple, right: tuple) -> bool:
    return len(left) == len(right) and all(map(_close, left, right))


def _sort_key(row: tuple) -> tuple:
    # None sorts first, numbers rounded so near-equal floats sort together.
    return tuple((0, 0) if value is None else
                 (1, round(value, 4)) if isinstance(value, float) else (2, value)
                 for value in row)


def same_multiset(left: list[tuple], right: list[tuple]) -> bool:
    """Whether two row lists are equal as multisets, floats within tolerance."""
    if len(left) != len(right):
        return False
    left = sorted(left, key=_sort_key)
    right = sorted(right, key=_sort_key)
    if all(map(_rows_close, left, right)):
        return True
    # rounding may have ordered near-equal rows differently: match greedily.
    unmatched = list(right)
    for row in left:
        for index, candidate in enumerate(unmatched):
            if _rows_close(row, candidate):
                del unmatched[index]
                break
        else:
            return False
    return True


def order_keys(sql: str) -> tuple[list[tuple[str, bool]], int | None]:
    """The outermost ORDER BY items as ``(name, descending)`` and the LIMIT.

    Read from the query text; every ORDER BY item of the queries checked
    here names an output column.
    """
    text = " ".join(sql.split())
    limit = None
    match = re.search(r"\blimit\s+(\d+)\s*$", text, re.IGNORECASE)
    if match:
        limit = int(match.group(1))
        text = text[:match.start()]
    position = text.lower().rfind("order by")
    if position < 0 or text.count("(", position) != text.count(")", position):
        return [], limit
    items = []
    for item in text[position + len("order by"):].split(","):
        words = item.split()
        items.append((words[0].split(".")[-1].lower(),
                      len(words) > 1 and words[1].lower() == "desc"))
    return items, limit


def _compare(left, right) -> int:
    if _close(left, right):
        return 0
    if left is None:
        return -1
    if right is None:
        return 1
    return -1 if left < right else 1


def _key_order(left: tuple, right: tuple, directions: list[bool]) -> int:
    for a, b, descending in zip(left, right, directions):
        order = _compare(a, b)
        if order:
            return -order if descending else order
    return 0


class SQLiteOracle:
    """TPC-H (or any loaded schema) answered by stdlib ``sqlite3``."""

    def __init__(self, database, tables: list[str] | None = None):
        self.connection = sqlite3.connect(":memory:")
        self.connection.execute("PRAGMA case_sensitive_like = ON")
        for table in tables or database.table_names():
            columns = [column.name for column in database.catalog.table(table).columns]
            self.connection.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
            marks = ", ".join("?" for _ in columns)
            self.connection.executemany(
                f"INSERT INTO {table} VALUES ({marks})",
                (tuple(value.isoformat() if isinstance(value, datetime.date) else value
                       for value in row)
                 for row in database.rows(table)))
        self.connection.commit()

    def close(self) -> None:
        self.connection.close()

    def query(self, sql: str) -> tuple[list[str], list[tuple]]:
        cursor = self.connection.execute(to_sqlite(sql))
        columns = [description[0].lower() for description in cursor.description]
        return columns, [_row(row) for row in cursor.fetchall()]

    def count(self, sql: str) -> int:
        return len(self.query(sql)[1])

    def check(self, sql: str, rows: list) -> str | None:
        """Compare an engine's result rows for ``sql``; None when they agree.

        Returns a one-line description of the first disagreement found.
        """
        got = [_row(row) for row in rows]
        keys, limit = order_keys(sql)
        unlimited = sql
        if limit is not None:
            unlimited = re.sub(r"\blimit\s+\d+\s*$", "", sql.rstrip(), flags=re.IGNORECASE)
        columns, expected = self.query(unlimited)
        positions = []
        for name, _descending in keys:
            if name not in columns:
                return f"ORDER BY key {name!r} is not an output column"
            positions.append(columns.index(name))
        directions = [descending for _name, descending in keys]

        def key_of(row: tuple) -> tuple:
            return tuple(row[position] for position in positions)

        if positions:
            for before, after in zip(got, got[1:]):
                if _key_order(key_of(before), key_of(after), directions) > 0:
                    return f"rows out of ORDER BY order: {before} before {after}"
        if limit is None or len(expected) <= limit:
            if not same_multiset(got, expected):
                return (f"{len(got)} rows differ from SQLite's {len(expected)} rows"
                        f" (first engine row {got[:1]}, first SQLite row {expected[:1]})")
            return None
        # LIMIT cuts the sorted result: rows strictly ahead of the cut-off
        # key must all be there; the rest must tie with the cut-off.
        if len(got) != limit:
            return f"{len(got)} rows under LIMIT {limit}, SQLite has {len(expected)}"
        expected.sort(key=_sort_key)
        expected.sort(key=functools.cmp_to_key(
            lambda a, b: _key_order(key_of(a), key_of(b), directions)))
        cutoff = key_of(expected[limit - 1])
        ahead = [row for row in expected
                 if _key_order(key_of(row), cutoff, directions) < 0]
        tied = [row for row in expected
                if _key_order(key_of(row), cutoff, directions) == 0]
        got_ahead = [row for row in got if _key_order(key_of(row), cutoff, directions) < 0]
        got_tied = [row for row in got if _key_order(key_of(row), cutoff, directions) == 0]
        if len(got_ahead) + len(got_tied) != len(got) or not same_multiset(got_ahead, ahead):
            return "rows ahead of the LIMIT cut-off differ from SQLite's"
        for row in got_tied:
            match = next((index for index, candidate in enumerate(tied)
                          if _rows_close(row, candidate)), None)
            if match is None:
                return f"row {row} at the LIMIT cut-off is not in SQLite's result"
            del tied[match]
        return None
