"""The ``ask`` workload: questions over a string-heavy lake, served.

Every question goes through one :class:`repro.serving.Server` in serial
mode (``workers=0``) with its result cache on.  A benchmark-side backend
forwards natural-language questions to :meth:`Symphony.answer` and SQL to
:meth:`Database.query`; in that database ``orders`` is a hash-partitioned
:class:`PartitionedTable`, so shard kernels serve part of the mix and the
columnar kernels the rest.

One round is 24 distinct questions (4 natural-language, 18 SQL, 2 SQL
that put ``NOT`` over a NULL-bearing column) plus 6 repeats of earlier
questions of the same round, 30 operations in all.  Round ``r`` draws its
parameters from ``(seed, r)``.  Rounds 0-2 are the untimed warm-up (cold
cache and lazily built statistics); their wall time is reported as
``train_s``, since this workload trains nothing.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from perfbench import gen
from perfbench.common import MIN_OPS, SetupClock, end_to_end, \
    peak_rss_mb, repeated_setup, timed_rounds
from perfbench.oracle import NOT_OVER_NULL, SqliteOracle, self_test

NUM_ORDERS = 200_000
NUM_CUSTOMERS = 20_000
NUM_PRODUCTS = 2_000
NUM_SHARDS = 8
CACHE_CAPACITY = 1024
#: Untimed rounds before the timed phase; their wall time is ``train_s``.
WARMUP_ROUNDS = 3
#: Operations per round (24 distinct questions and 6 repeats).
ROUND_OPS = 30
#: Timed rounds per second of ``--seconds``: 15 rounds (450 questions) for
#: 10 s, which take about that long today.  Round ``r`` draws its own
#: questions, so a fixed count keeps the work the same however fast the
#: program is.
ROUNDS_PER_SECOND = 1.5
#: Set-up takes under a second and varies by up to a fifth within one
#: process, so it is repeated more often than the default.
SETUPS = 5


def make_inputs(seed: int) -> dict[str, Any]:
    rng = np.random.default_rng([seed, 1])
    return {
        "orders": gen.orders(rng, 0, NUM_ORDERS, NUM_CUSTOMERS, NUM_PRODUCTS),
        "customers": gen.customers(rng, NUM_CUSTOMERS),
        "products": gen.products(rng, NUM_PRODUCTS),
    }


SCHEMAS = {"orders": gen.ORDER_SCHEMA, "customers": gen.CUSTOMER_SCHEMA,
           "products": gen.PRODUCT_SCHEMA}
DESCRIPTIONS = {
    "orders": "orders placed by customers with channel status amount "
              "quantity and delivery note",
    "customers": "customers with name region segment and city",
    "products": "products with title category brand and price",
}


def setup(inputs: dict[str, Any], clock: SetupClock) -> dict[str, Any]:
    from repro.lake import DataLake, Symphony
    from repro.serving import Backend, Server, stable_key
    from repro.shard import HashPartitioner, PartitionedTable
    from repro.sql import Database
    from repro.table import Schema, Table

    class AskBackend(Backend):
        """Routes ``("nl", text)`` to Symphony and ``("sql", text)`` to the
        database; answers come back as plain Python values."""

        name = "ask"

        def __init__(self, symphony, db):
            self.symphony = symphony
            self.db = db

        def run_batch(self, payloads):
            out = []
            for kind, text in payloads:
                if kind == "nl":
                    out.append(tuple(self.symphony.answer(text).answers))
                else:
                    table = self.db.query(text)
                    out.append((tuple(table.schema.names),
                                tuple(table.rows())))
            return out

        def cache_key(self, payload):
            return stable_key(*payload)

    columns = {name: gen.columns_of(rows, len(SCHEMAS[name]))
               for name, rows in inputs.items()}
    with clock.program():
        tables = {name: Table(Schema(SCHEMAS[name]), columns[name])
                  for name in SCHEMAS}
        lake = DataLake()
        for name, table in tables.items():
            lake.add_table(name, table, description=DESCRIPTIONS[name])
        symphony = Symphony(lake)
        sharded = PartitionedTable.partition(
            tables["orders"], HashPartitioner(("customer_id",), NUM_SHARDS),
            build_indexes=True)
        db = Database({"orders": sharded, "customers": tables["customers"],
                       "products": tables["products"]})
        server = Server(workers=0, cache_capacity=CACHE_CAPACITY)
        server.register(AskBackend(symphony, db))
    return {"server": server}


# -- questions ----------------------------------------------------------------


def _q(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _sql_templates(rng: np.random.Generator) -> list[str]:
    """The round's 18 SQL questions.  Each carries a numeric threshold
    drawn from a band of hundreds of values, so a question rarely recurs
    across rounds (the result cache serves mostly the in-round repeats),
    while each template's selectivity, and so its cost, stays close to
    the same on every seed.  The mix puts the median operation among
    several 15-25 ms single-table questions over ``orders``; with more
    cheap questions it fell in the gap between the 9-12 ms and 17 ms
    ones, and ``op_p50_ms`` jumped by 15% between runs of one seed."""
    def one(options):
        return options[int(rng.integers(len(options)))]

    def two(options):
        a, b = rng.choice(len(options), size=2, replace=False)
        return options[int(a)], options[int(b)]

    def amount(lo, hi):
        return int(rng.integers(4 * lo, 4 * hi)) / 4

    def num(lo, hi):
        return int(rng.integers(lo, hi))

    ch, ch2 = two(gen.CHANNELS)
    st, st2 = two(gen.STATUSES)
    region = one(gen.REGIONS)
    segment = one(gen.SEGMENTS)
    note = one(gen.NOTES)
    category = one(gen.CATEGORIES)
    lo = amount(800, 1000)
    return [
        f"select count(*) as n from orders where channel = {_q(ch)} "
        f"and status = {_q(st)} and amount >= {amount(200, 400)}",
        f"select status, count(*) as n, sum(amount) as total from orders "
        f"where channel in ({_q(ch)}, {_q(ch2)}) and amount < {amount(1000, 1200)} "
        f"group by status order by status",
        f"select region, count(*) as n, sum(amount) as total from orders "
        f"join customers on orders.customer_id = customers.customer_id "
        f"where status = {_q(st)} and amount >= {amount(1200, 1400)} "
        f"group by region order by total desc limit 5",
        f"select category, count(*) as n, sum(qty) as units from orders "
        f"join customers on orders.customer_id = customers.customer_id "
        f"join products on orders.product_id = products.product_id "
        f"where region = {_q(region)} and channel = {_q(ch)} "
        f"and amount >= {amount(600, 800)} group by category "
        f"order by units desc limit 5",
        f"select order_id, amount from orders where status = {_q(st2)} "
        f"and amount >= {amount(1500, 1700)} order by amount desc limit 10",
        f"select note, count(*) as n, avg(amount) as mean_amount "
        f"from orders where channel = {_q(ch2)} and order_id < {num(100_000, 120_000)} "
        f"group by note order by note",
        f"select name, city from customers where region = {_q(region)} "
        f"and segment = {_q(segment)} and customer_id >= {num(5000, 7000)} "
        f"order by name limit 20",
        f"select brand, count(*) as n, avg(price) as mean_price "
        f"from products where category = {_q(category)} "
        f"and price >= {num(300, 500)} group by brand order by brand",
        f"select count(*) as n, sum(amount) as total from orders "
        f"where amount between {lo} and {lo + num(200, 400)} "
        f"and channel in ({_q(ch)}, {_q(ch2)})",
        f"select customer_id, count(*) as n, sum(amount) as total "
        f"from orders where channel = {_q(ch)} and status = {_q(st)} "
        f"and amount >= {amount(400, 600)} group by customer_id "
        f"order by total desc limit 10",
        f"select segment, count(*) as n, sum(amount) as total from orders "
        f"join customers on orders.customer_id = customers.customer_id "
        f"where note = {_q(note)} and amount < {amount(1400, 1600)} "
        f"group by segment order by segment",
        f"select brand, count(*) as n, sum(amount) as revenue from orders "
        f"join products on orders.product_id = products.product_id "
        f"where category = {_q(category)} and amount >= {amount(200, 400)} "
        f"group by brand order by revenue desc limit 5",
        f"select channel, count(*) as n, avg(amount) as mean_amount "
        f"from orders where note = {_q(note)} and order_id >= "
        f"{num(20_000, 40_000)} group by channel order by channel",
        f"select channel, count(*) as n, sum(qty) as units from orders "
        f"where qty >= {num(4, 6)} and status in ({_q(st)}, {_q(st2)}) "
        f"and amount >= {amount(100, 300)} group by channel order by channel",
        f"select order_id, qty, amount from orders "
        f"where note = {_q(note)} and status = {_q(st)} and qty = {num(1, 10)} "
        f"and order_id >= {num(50_000, 70_000)} order by order_id limit 15",
        f"select title, price from products where brand = "
        f"{_q(one(gen.BRANDS))} and price < {num(1000, 1400)} "
        f"order by price desc limit 5",
        f"select note, count(*) as n, sum(qty) as units from orders "
        f"where status = {_q(st2)} and qty >= {num(3, 6)} "
        f"and amount < {amount(1600, 1800)} group by note order by note",
        f"select status, count(*) as n, avg(amount) as mean_amount "
        f"from orders join products on orders.product_id = "
        f"products.product_id where brand = {_q(one(gen.BRANDS))} "
        f"and amount < {amount(1600, 1800)} group by status order by status",
    ]


def _fault_question(rng: np.random.Generator, kind: int) -> str:
    """SQL with NOT over a NULL-bearing column: fails on every seed."""
    lo = int(rng.integers(3200, 4800)) / 4
    if kind == 0:
        return f"select count(*) as n from orders where not (amount > {lo})"
    if kind == 1:
        a, b = rng.choice(len(gen.CHANNELS), size=2, replace=False)
        return (f"select count(*) as n from orders where order_id >= "
                f"{int(rng.integers(40_000, 60_000))} and not "
                f"(channel in ({_q(gen.CHANNELS[int(a)])}, "
                f"{_q(gen.CHANNELS[int(b)])}))")
    return (f"select count(*) as n from orders where not (amount between "
            f"{lo} and {lo + 400})")


def _nl_questions(rng: np.random.Generator) -> list[tuple[str, dict]]:
    """NL questions with the plain-Python computation each one asks for.

    Text-to-SQL grounds only categorical values, so each question names
    three of them to keep recurrences across rounds rare."""
    def one(options):
        return options[int(rng.integers(len(options)))]

    ch, st, note = one(gen.CHANNELS), one(gen.STATUSES), one(gen.NOTES)
    ch2, st2, note2 = one(gen.CHANNELS), one(gen.STATUSES), one(gen.NOTES)
    region, segment, city = one(gen.REGIONS), one(gen.SEGMENTS), \
        one(gen.CITIES)
    return [
        (f"how many orders have channel {ch} and status {st} "
         f"and note {note}?",
         {"table": "orders", "fn": "count",
          "where": {"channel": ch, "status": st, "note": note}}),
        (f"what is the total amount of orders with status {st2} "
         f"and note {note2} and channel {ch}?",
         {"table": "orders", "fn": "sum", "col": "amount",
          "where": {"status": st2, "note": note2, "channel": ch}}),
        (f"what is the average amount of orders with channel {ch2} "
         f"and status {st} and note {note2}?",
         {"table": "orders", "fn": "avg", "col": "amount",
          "where": {"channel": ch2, "status": st, "note": note2}}),
        (f"how many customers are in region {region} with segment "
         f"{segment} in city {city}?",
         {"table": "customers", "fn": "count",
          "where": {"region": region, "segment": segment, "city": city}}),
    ]


def round_questions(seed: int, r: int) -> list[tuple[str, str, Any]]:
    """Round ``r``: ``(kind, text, expectation)`` in serving order."""
    rng = np.random.default_rng([seed, 2, r])
    sql = [("sql", text, None) for text in _sql_templates(rng)]
    faults = [("sql", _fault_question(rng, (r + i) % 3), NOT_OVER_NULL)
              for i in range(2)]
    nl = [("nl", text, spec) for text, spec in _nl_questions(rng)]
    # Fixed interleaving: NL at 0/6/12/18, faults at 9 and 21.
    distinct = []
    sql_iter = iter(sql)
    for i in range(24):
        if i % 6 == 0:
            distinct.append(nl[i // 6])
        elif i in (9, 21):
            distinct.append(faults[0 if i == 9 else 1])
        else:
            distinct.append(next(sql_iter))
    ordered = []
    for i, question in enumerate(distinct):
        ordered.append(question)
        if i % 4 == 3:
            ordered.append(distinct[i - 3])
    return ordered


# -- the oracle ----------------------------------------------------------------


def _nl_expected(spec: dict, rows: dict[str, list[tuple]]) -> str:
    schema = [c for c, _ in SCHEMAS[spec["table"]]]
    picked = rows[spec["table"]]
    for column, value in spec["where"].items():
        i = schema.index(column)
        picked = [row for row in picked if row[i] == value]
    if spec["fn"] == "count":
        return str(len(picked))
    j = schema.index(spec["col"])
    values = [row[j] for row in picked if row[j] is not None]
    if not values:
        return "unknown"
    total = sum(values)
    return str(total if spec["fn"] == "sum" else total / len(values))


class AskOracle:
    """Checks answers: sqlite3 for SQL, plain Python for NL questions."""

    def __init__(self, inputs: dict[str, list[tuple]]):
        self.inputs = inputs
        self.sqlite = SqliteOracle()
        for name, rows in inputs.items():
            self.sqlite.load(name, SCHEMAS[name], rows)
        for table, column in (("customers", "customer_id"),
                              ("products", "product_id"),
                              ("orders", "customer_id"),
                              ("orders", "product_id")):
            self.sqlite.index(table, column)
        self._verdicts: dict[tuple, str | None] = {}

    def close(self) -> None:
        self.sqlite.close()

    def verdict(self, kind: str, text: str, spec: Any, value: Any) -> \
            str | None:
        key = (kind, text, repr(value))
        if key not in self._verdicts:
            if kind == "nl":
                want = _nl_expected(spec, self.inputs)
                got = value[0] if len(value) == 1 else value
                self._verdicts[key] = (None if got == want
                                       else f"answer {got!r} != {want!r}")
            else:
                names, rows = value
                self._verdicts[key] = self.sqlite.check(text, rows, names)
        return self._verdicts[key]


# -- the run -------------------------------------------------------------------


def run(seed: int, seconds: float, collector, setups: int) -> dict[str, Any]:
    problems = self_test()
    inputs = make_inputs(seed)
    state, setup_seconds = repeated_setup(
        lambda clock: setup(inputs, clock), setups, collector)
    server = state["server"]

    def call(question):
        kind, text, _spec = question
        return server.call("ask", (kind, text))

    def round_ops(r: int):
        return [lambda q=q: call(q) for q in round_questions(seed, r)]

    warm_start = time.perf_counter()
    warm = [op() for r in range(WARMUP_ROUNDS) for op in round_ops(r)]
    warmup_s = time.perf_counter() - warm_start
    rounds = max(-(-MIN_OPS // ROUND_OPS), round(seconds * ROUNDS_PER_SECOND))
    timed = timed_rounds(round_ops, rounds, collector,
                         first_round=WARMUP_ROUNDS)
    rss = peak_rss_mb()

    oracle = AskOracle(inputs)
    warmed = [q for r in range(WARMUP_ROUNDS)
              for q in round_questions(seed, r)]
    asked = [q for r in range(WARMUP_ROUNDS, WARMUP_ROUNDS + timed["rounds"])
             for q in round_questions(seed, r)]
    failed = 0
    hits = 0
    for phase_questions, responses, counted in (
            (warmed, warm, False),
            (asked, timed["results"], True)):
        for (kind, text, spec), response in zip(phase_questions, responses):
            if not response.ok:
                problems.append(f"{text!r}: {response.status} "
                                f"{response.error}")
                continue
            hits += counted and response.cache_hit
            verdict = oracle.verdict(kind, text, spec, response.value)
            if verdict is None:
                continue
            if verdict == NOT_OVER_NULL and spec == NOT_OVER_NULL:
                failed += counted
            else:
                problems.append(f"{text!r}: {verdict}")
    oracle.close()
    return {
        "problems": problems,
        "attempted": len(timed["latencies"]),
        "failed": failed,
        "e2e": end_to_end(setup_seconds, timed, rss, warmup_s),
        "layers": {"serving.cache_hits": float(hits)},
        "info": f"{failed} of {len(timed['latencies'])} operations failed "
                f"on the known fault: NOT over a NULL comparison keeps the "
                f"NULL rows (eval_row/eval_vec in src/repro/sql/expr.py)",
    }
