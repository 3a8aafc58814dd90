"""An SQL oracle independent of the engine: the stdlib ``sqlite3``.

The oracle loads the benchmark's generated rows into an in-memory sqlite
database and runs the same SQL text.  It normalizes only differences that
SQL leaves to the implementation or that the engine documents:

* without ORDER BY, rows compare as multisets (SQL fixes no row order);
* ORDER BY sorts NULLs last in both directions, as the engine does, so the
  oracle appends ``NULLS LAST``;
* rows tied on the ORDER BY key may come in any order (SQL leaves it
  unspecified), so the key sequence must match exactly and, for each key
  value, the rows must be a sub-multiset of all rows sqlite holds with that
  key (a LIMIT may cut a tie group anywhere).

It also knows one fault of the engine: ``NOT`` applied after a comparison
with NULL has been turned into false (``eval_row``/``eval_vec`` in
``src/repro/sql/expr.py``), so ``NOT (x > 5)`` keeps rows where ``x`` is
NULL.  :meth:`SqliteOracle.check` reports an answer that matches that
faulty semantics, and not SQL's, as the named fault rather than as a
plain mismatch.

Self-test (needs ``src`` on the path)::

    PYTHONPATH=src python3 perfbench/oracle.py
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter
from typing import Any, Iterable, Sequence

#: The one engine fault the benchmark counts instead of failing on.
NOT_OVER_NULL = "not-over-null"

_SQL_TYPES = {"int": "INTEGER", "float": "REAL", "str": "TEXT",
              "bool": "INTEGER"}
_ORDER_RE = re.compile(
    r"\border\s+by\s+((?:\w+\.)?(\w+))(\s+(?:asc|desc))?", re.IGNORECASE)
_LIMIT_RE = re.compile(r"\s+limit\s+(\d+)\s*$", re.IGNORECASE)
_NOT_RE = re.compile(r"\bnot\s*\(", re.IGNORECASE)


class SqliteOracle:
    """In-memory sqlite3 database holding copies of the generated tables."""

    def __init__(self) -> None:
        self.conn = sqlite3.connect(":memory:")

    def close(self) -> None:
        self.conn.close()

    def load(self, name: str, schema: Sequence[tuple[str, str]],
             rows: Iterable[Sequence[Any]]) -> None:
        cols = ", ".join(f"{col} {_SQL_TYPES[dtype]}" for col, dtype in schema)
        marks = ", ".join("?" for _ in schema)
        self.conn.execute(f"DROP TABLE IF EXISTS {name}")
        self.conn.execute(f"CREATE TABLE {name} ({cols})")
        self.conn.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)

    def insert(self, name: str, rows: Sequence[Sequence[Any]]) -> None:
        if rows:
            marks = ", ".join("?" for _ in rows[0])
            self.conn.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)

    def delete_ids(self, name: str, key: str, ids: Sequence[int]) -> None:
        self.conn.executemany(f"DELETE FROM {name} WHERE {key} = ?",
                              [(i,) for i in ids])

    def index(self, name: str, column: str) -> None:
        self.conn.execute(
            f"CREATE INDEX IF NOT EXISTS {name}_{column} ON {name} ({column})")

    def run(self, sql: str) -> tuple[list[str], list[tuple]]:
        """Output column names and rows of ``sql`` (NULLS LAST added)."""
        cursor = self.conn.execute(_nulls_last(sql))
        return [d[0].lower() for d in cursor.description], cursor.fetchall()

    def check(self, sql: str, got: Sequence[tuple],
              names: Sequence[str] | None = None) -> str | None:
        """None when ``got`` is a correct answer to ``sql``.

        Otherwise :data:`NOT_OVER_NULL` when ``got`` is exactly what the
        engine's known NOT-over-NULL fault produces, or a description of
        the mismatch.
        """
        problem = self._compare(sql, got, names)
        if problem is None:
            return None
        if _NOT_RE.search(sql):
            if self._compare(_null_as_false_before_not(sql), got,
                             names) is None:
                return NOT_OVER_NULL
        return problem

    def _compare(self, sql: str, got: Sequence[tuple],
                 names: Sequence[str] | None) -> str | None:
        got = [tuple(row) for row in got]
        order = _ORDER_RE.search(sql)
        limit = _LIMIT_RE.search(sql) if order else None
        out_names, full = self.run(sql[:limit.start()] if limit else sql)
        if names is not None and [n.lower() for n in names] != out_names:
            return f"columns {list(names)} != sqlite {out_names}"
        if order is None:
            if Counter(got) != Counter(full):
                return _diff(got, full)
            return None
        key_name = order.group(2).lower()
        if key_name not in out_names:
            return f"ORDER BY key {key_name!r} is not an output column"
        k = out_names.index(key_name)
        n = min(int(limit.group(1)), len(full)) if limit else len(full)
        if len(got) != n:
            return f"{len(got)} rows, sqlite {n}"
        got_keys = [row[k] for row in got]
        want_keys = [row[k] for row in full[:n]]
        if got_keys != want_keys:
            return f"ORDER BY keys differ: {got_keys[:5]} vs {want_keys[:5]}"
        by_key: dict[Any, Counter] = {}
        for row in full:
            by_key.setdefault(row[k], Counter())[row] += 1
        for key in set(got_keys):
            mine = Counter(row for row in got if row[k] == key)
            if mine - by_key[key]:
                return f"rows with key {key!r} differ"
        return None


def _nulls_last(sql: str) -> str:
    return _ORDER_RE.sub(
        lambda m: f"order by {m.group(1)}{m.group(3) or ''} nulls last", sql)


def _null_as_false_before_not(sql: str) -> str:
    """Rewrite ``not (p)`` to ``not coalesce((p), 0)``: the engine's
    semantics, where a NULL comparison is false before NOT sees it."""
    out = []
    pos = 0
    for match in _NOT_RE.finditer(sql):
        depth = 0
        for end in range(match.end() - 1, len(sql)):
            depth += {"(": 1, ")": -1}.get(sql[end], 0)
            if depth == 0:
                break
        inner = sql[match.end():end]
        out.append(sql[pos:match.start()])
        out.append(f"not coalesce(({inner}), 0)")
        pos = end + 1
    out.append(sql[pos:])
    return "".join(out)


def _diff(got: list[tuple], want: list[tuple]) -> str:
    extra = Counter(got) - Counter(want)
    missing = Counter(want) - Counter(got)
    return (f"{len(got)} rows vs sqlite {len(want)}; extra "
            f"{list(extra)[:3]} missing {list(missing)[:3]}")


def self_test() -> list[str]:
    """Check that the oracle flags the known NOT-over-NULL divergence.

    Returns a list of problems (empty when the oracle works).  The
    program's own answer is checked too and reported on standard error by
    :func:`main`, but a program that no longer shows the fault does not
    fail the self-test.
    """
    problems = []
    sql = "SELECT x FROM t WHERE NOT (x > 5)"
    oracle = SqliteOracle()
    try:
        oracle.load("t", [("x", "int")], [(1,), (None,), (10,)])
        want = oracle.run(sql)[1]
        if want != [(1,)]:
            problems.append(f"sqlite returned {want}")
        if oracle.check(sql, [(1,)]) is not None:
            problems.append("oracle rejected the SQL answer [1]")
        verdict = oracle.check(sql, [(1,), (None,)])
        if verdict != NOT_OVER_NULL:
            problems.append(f"oracle verdict on [1, NULL] was {verdict!r}")
        if oracle.check(sql, [(10,)]) in (None, NOT_OVER_NULL):
            problems.append("oracle accepted the wrong answer [10]")
    finally:
        oracle.close()
    return problems


def program_answer() -> list[tuple]:
    """What the engine returns for the self-test query."""
    from repro.sql import Database
    from repro.table import Table

    db = Database({"t": Table.from_rows([(1,), (None,), (10,)],
                                        schema=[("x", "int")])})
    return list(db.query("SELECT x FROM t WHERE NOT (x > 5)").rows())


def main() -> int:
    import sys

    problems = self_test()
    for problem in problems:
        print(f"oracle self-test: {problem}", file=sys.stderr)
    got = program_answer()
    print(f"program returns {got} for SELECT x FROM t WHERE NOT (x > 5) "
          f"over x = [1, NULL, 10]; sqlite3 returns [(1,)]")
    print("oracle self-test:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
