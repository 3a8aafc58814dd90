"""Reference figure: the sharded 2-table join against the flat one.

Usage (from the repository root)::

    python3 perfbench/joinref.py --seed 1 --repeats 7

Builds the ``ask`` workload's ``orders`` (200k rows) and ``customers``
tables, hash-partitions ``orders`` on ``customer_id`` into 8 shards with
indexes (as ``ask`` does), then times ``repro.shard.kernels.join`` with
the serial map against ``Table.join`` on the flat table, both joining
``customers`` on ``customer_id``.  Prints the median of each, plus the
one-off partition cost the sharded join needs first.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    os.environ["REPRO_OBS_SPANS"] = "0"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.shard import HashPartitioner, PartitionedTable, kernels
    from repro.table import Schema, Table

    from perfbench import ask, gen

    inputs = ask.make_inputs(args.seed)
    orders = Table(Schema(gen.ORDER_SCHEMA),
                   gen.columns_of(inputs["orders"], len(gen.ORDER_SCHEMA)))
    customers = Table(Schema(gen.CUSTOMER_SCHEMA),
                      gen.columns_of(inputs["customers"],
                                     len(gen.CUSTOMER_SCHEMA)))
    start = time.perf_counter()
    sharded = PartitionedTable.partition(
        orders, HashPartitioner(("customer_id",), ask.NUM_SHARDS),
        build_indexes=True)
    partition_ms = (time.perf_counter() - start) * 1e3

    def best(fn) -> float:
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    flat = best(lambda: orders.join(customers, on="customer_id"))
    shard = best(lambda: kernels.join(sharded, customers, on="customer_id"))
    print(f"orders {orders.num_rows} rows x customers {customers.num_rows} "
          f"rows on customer_id, median of {args.repeats}:")
    print(f"  flat Table.join            {flat:8.1f} ms")
    print(f"  sharded kernels.join       {shard:8.1f} ms "
          f"({ask.NUM_SHARDS} shards, serial map)")
    print(f"  partition + indexes (once) {partition_ms:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
