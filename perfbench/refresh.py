"""The ``refresh`` workload: an orders stream kept fresh in views and tables.

Set-up registers ``orders`` and ``customers`` as ivm streams, creates two
SQL views over them (filter -> join -> group-by, and a selective filter)
and runs a dlt medallion pipeline once: an append-only incremental bronze
table with two ``expect_or_drop`` contracts (dropped rows go to
quarantine), a silver join and a gold group-by, checkpointed under a fresh
temporary directory.

One operation is one arriving batch made fresh everywhere: its inserts
and deletes are pushed into the streams, both views are read back, its
inserts are appended to the pipeline's raw source, and the pipeline is
refreshed.  Batch ``b`` is drawn from ``(seed, b)`` and the live-row
ledger; ten batches make a round.  Round 0 is the untimed warm-up; its
wall time is reported as ``train_s``, since this workload trains nothing.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro import dlt

from perfbench import gen
from perfbench.common import MIN_OPS, SetupClock, end_to_end, \
    peak_rss_mb, repeated_setup, timed_rounds
from perfbench.oracle import SqliteOracle

NUM_ORDERS = 4_000
NUM_CUSTOMERS = 1_000
NUM_PRODUCTS = 500
INSERTS = NUM_ORDERS // 100
DELETES = INSERTS // 4
#: Set-up takes about 0.1 s, so it is repeated more often than elsewhere.
SETUPS = 15
#: Batches per round; round 0 is the untimed warm-up, whose wall time is
#: reported as ``train_s``.
ROUND = 10
OUT = Path(__file__).resolve().parent / "_out"

VIEWS = {
    "region_revenue":
        "select region, count(*) as n, sum(amount) as total from orders "
        "join customers on orders.customer_id = customers.customer_id "
        "where status = 'shipped' group by region",
    "big_partner_orders":
        "select order_id, customer_id, amount from orders "
        "where channel = 'partner' and amount >= 1900",
}


@dlt.table(layer="bronze", incremental=True)
@dlt.expect_or_drop("known_amount", dlt.col("amount") > 0)
@dlt.expect_or_drop("known_channel", dlt.col("channel").not_null())
def orders_bronze(raw_orders):
    return raw_orders


@dlt.table(layer="silver")
def orders_enriched(orders_bronze, customers):
    return orders_bronze.join(customers, on="customer_id")


@dlt.table(layer="gold")
def revenue_by_region(orders_enriched):
    return orders_enriched.group_by(
        ["region"], [("count", "order_id", "n"), ("sum", "amount", "total")])


def make_inputs(seed: int) -> dict[str, Any]:
    rng = np.random.default_rng([seed, 1])
    return {
        "orders": gen.orders(rng, 0, NUM_ORDERS, NUM_CUSTOMERS, NUM_PRODUCTS),
        "customers": gen.customers(rng, NUM_CUSTOMERS),
    }


class Ledger:
    """The benchmark's own record of live orders, and the batch maker."""

    def __init__(self, seed: int, initial: list[tuple]):
        self.seed = seed
        self.live = {row[0]: row for row in initial}
        self.ids = list(self.live)
        self.next_id = NUM_ORDERS

    def batch(self, b: int) -> tuple[list[tuple], list[tuple]]:
        rng = np.random.default_rng([self.seed, 3, b])
        inserts = gen.orders(rng, self.next_id, INSERTS, NUM_CUSTOMERS,
                             NUM_PRODUCTS)
        self.next_id += INSERTS
        deletes = []
        for _ in range(DELETES):
            k = int(rng.integers(len(self.ids)))
            self.ids[k], self.ids[-1] = self.ids[-1], self.ids[k]
            deletes.append(self.live.pop(self.ids.pop()))
        for row in inserts:
            self.live[row[0]] = row
            self.ids.append(row[0])
        return inserts, deletes


def setup(inputs: dict[str, Any], clock: SetupClock) -> dict[str, Any]:
    from repro.sql import Database
    from repro.table import Schema, Table

    ckpt = tempfile.mkdtemp(prefix="refresh-", dir=OUT)
    orders_cols = gen.columns_of(inputs["orders"], len(gen.ORDER_SCHEMA))
    customer_cols = gen.columns_of(inputs["customers"],
                                   len(gen.CUSTOMER_SCHEMA))
    with clock.program():
        orders = Table(Schema(gen.ORDER_SCHEMA), orders_cols)
        customers = Table(Schema(gen.CUSTOMER_SCHEMA), customer_cols)
        db = Database()
        stream = db.register_stream("orders", orders)
        db.register_stream("customers", customers)
        views = {name: db.create_view(name, sql)
                 for name, sql in VIEWS.items()}
        state = {"raw": orders}
        pipe = (dlt.Pipeline("refresh", checkpoint_dir=ckpt)
                .source("raw_orders", lambda: state["raw"], incremental=True)
                .source("customers", customers)
                .add(orders_bronze, orders_enriched, revenue_by_region))
        first = pipe.run()
    if not first.ok:
        raise RuntimeError(f"initial pipeline run failed: {first.render()}")
    state.update(stream=stream, views=views, pipe=pipe, ckpt=ckpt)
    return state


def _dir_files(path: str) -> dict[str, tuple[int, int, int]]:
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            st = os.stat(os.path.join(root, name))
            out[os.path.join(root, name)] = (st.st_ino, st.st_size,
                                             st.st_mtime_ns)
    return out


def bytes_written(before: dict, after: dict) -> int:
    """Bytes of files new or rewritten between two directory listings."""
    return sum(meta[1] for name, meta in after.items()
               if before.get(name) != meta)


def apply_batch(state: dict[str, Any], inserts: list[tuple],
                deletes: list[tuple]) -> dict[str, Any]:
    """One operation: push, read the views, append, refresh the pipeline."""
    stream = state["stream"]
    stream.insert_rows(inserts)
    stream.delete_rows(deletes)
    views = {name: view.table() for name, view in state["views"].items()}
    state["raw"] = state["raw"].append_rows(inserts)
    result = state["pipe"].refresh()
    quarantine = result.quarantine("orders_bronze")
    return {"ok": result.ok, "views": views,
            "gold": result.table("revenue_by_region"),
            "quarantined": 0 if quarantine is None else quarantine.num_rows}


# -- the oracle ----------------------------------------------------------------


class RefreshOracle:
    """Replays the ledger: sqlite3 for the views, plain Python for dlt."""

    def __init__(self, inputs: dict[str, Any]):
        self.sqlite = SqliteOracle()
        self.sqlite.load("orders", gen.ORDER_SCHEMA, inputs["orders"])
        self.sqlite.load("customers", gen.CUSTOMER_SCHEMA,
                         inputs["customers"])
        self.sqlite.index("orders", "order_id")
        self.sqlite.index("customers", "customer_id")
        self.region = {row[0]: row[2] for row in inputs["customers"]}
        self.gold: dict[str, list] = {}
        self.quarantined = 0
        self._append(inputs["orders"])

    def close(self) -> None:
        self.sqlite.close()

    def _append(self, rows: list[tuple]) -> None:
        for row in rows:
            if row[5] is None or row[3] is None:
                self.quarantined += 1
                continue
            slot = self.gold.setdefault(self.region[row[1]], [0, 0.0])
            slot[0] += 1
            slot[1] += row[5]

    def check(self, inserts, deletes, out: dict[str, Any]) -> list[str]:
        self.sqlite.insert("orders", inserts)
        self.sqlite.delete_ids("orders", "order_id", [r[0] for r in deletes])
        self._append(inserts)
        problems = [] if out["ok"] else ["pipeline refresh failed"]
        for name, table in out["views"].items():
            verdict = self.sqlite.check(VIEWS[name], list(table.rows()),
                                        table.schema.names)
            if verdict is not None:
                problems.append(f"view {name}: {verdict}")
        gold = {row[0]: [row[1], row[2]] for row in out["gold"].rows()}
        if gold != self.gold:
            problems.append(f"gold table {gold} != {self.gold}")
        if out["quarantined"] != self.quarantined:
            problems.append(f"quarantine {out['quarantined']} rows != "
                            f"{self.quarantined}")
        return problems


# -- the run -------------------------------------------------------------------


def run(seed: int, seconds: float, collector, setups: int) -> dict[str, Any]:
    OUT.mkdir(exist_ok=True)
    inputs = make_inputs(seed)
    old_dirs: list[str] = []

    def one_setup(clock):
        state = setup(inputs, clock)
        old_dirs.append(state["ckpt"])
        return state

    try:
        state, setup_seconds = repeated_setup(one_setup, setups, collector)
        ledger = Ledger(seed, inputs["orders"])
        batches: list[tuple[list, list]] = []
        written = [0]
        appended = [0]

        def batch_op(b: int):
            inserts, deletes = ledger.batch(b)
            batches.append((inserts, deletes))

            def op():
                if not collector.enabled:
                    return apply_batch(state, inserts, deletes)
                # Traced run: size the checkpoint directory from outside.
                before = _dir_files(state["ckpt"])
                out = apply_batch(state, inserts, deletes)
                written[0] += bytes_written(before, _dir_files(state["ckpt"]))
                appended[0] += len(inserts)
                return out
            return op

        def round_ops(r: int):
            return [batch_op(r * ROUND + i) for i in range(ROUND)]

        warm_start = time.perf_counter()
        warm = [op() for op in round_ops(0)]
        warmup_s = time.perf_counter() - warm_start
        # Every batch grows the pipeline's tables, so a run measures a fixed
        # number of rounds (10 per 10 s asked for): every run then sees the
        # same table sizes however fast the program is.
        timed = timed_rounds(round_ops, max(MIN_OPS // ROUND, round(seconds)),
                             collector, first_round=1)
        rss = peak_rss_mb()

        oracle = RefreshOracle(inputs)
        problems = []
        for (inserts, deletes), out in zip(batches, warm + timed["results"]):
            problems += oracle.check(inserts, deletes, out)
        oracle.close()
    finally:
        for path in old_dirs:
            shutil.rmtree(path, ignore_errors=True)
    layers = {}
    if appended[0]:
        layers["dlt.checkpoint_bytes_per_row"] = written[0] / appended[0]
    return {
        "problems": problems,
        "attempted": len(timed["latencies"]),
        "failed": 0,
        "e2e": end_to_end(setup_seconds, timed, rss, warmup_s),
        "layers": layers,
    }
