"""Seeded input generators for the three workloads.

Everything here is plain Python and numpy: the program under test sees
only the rows these functions return.  The same seed always gives the
same rows.

Two invariants hold for every seed, because the oracle and the
known-fault accounting depend on them:

* every float amount and price lies on the dyadic grid ``k / 4``, so sums
  and averages are exact in float64 whatever the summation order;
* NULL positions in ``orders.amount`` and ``orders.channel`` are fixed
  (``i % 13 == 5`` and ``i % 17 == 3``), so a question that puts ``NOT``
  over those columns meets NULL rows on every seed.
"""

from __future__ import annotations

import numpy as np

CHANNELS = ("web", "store", "phone", "partner")
STATUSES = ("shipped", "pending", "returned", "cancelled", "delivered")
NOTES = (
    "gift wrap", "express delivery", "leave at door", "fragile item",
    "bulk discount", "loyalty reward", "signature required",
    "weekend delivery", "recycled packaging", "priority handling",
)
REGIONS = ("north", "south", "east", "west", "central", "coastal",
           "mountain", "island")
SEGMENTS = ("consumer", "corporate", "small business", "public sector")
CITIES = tuple(f"{stem}{suffix}" for stem in (
    "ash", "bright", "cedar", "dale", "elm", "fair", "glen", "harbor",
    "iron", "juniper") for suffix in ("ford", "ton", "field", "wood", "mere"))
FIRST = ("ada", "ben", "cara", "dev", "eli", "fay", "gus", "hana", "ivo",
         "june", "kai", "lena", "milo", "nora", "otto", "pia", "quin",
         "rosa", "sami", "tess", "uma", "vik", "wren", "yara", "zeno")
LAST = ("abbott", "brooks", "chen", "diaz", "evans", "fischer", "garcia",
        "hughes", "ibarra", "jensen", "kowalski", "lopez", "moreau",
        "nakamura", "okafor", "patel", "quinn", "rossi", "silva", "tanaka",
        "ueda", "varga", "weber", "xu", "young", "zimmer")
CATEGORIES = ("laptop", "tablet", "phone", "camera", "monitor", "printer",
              "router", "speaker", "headset", "keyboard", "drone", "watch")
BRANDS = ("apex", "borealis", "cobalt", "dynamo", "ember", "fjord",
          "granite", "helix", "ion", "jade", "krypton", "lumen", "meridian",
          "nimbus", "onyx", "prism", "quartz", "radiant", "summit", "tundra")
LINES = ("pro", "air", "max", "mini", "ultra", "lite", "neo", "prime")

ORDER_SCHEMA = (("order_id", "int"), ("customer_id", "int"),
                ("product_id", "int"), ("channel", "str"), ("status", "str"),
                ("amount", "float"), ("qty", "int"), ("note", "str"))
CUSTOMER_SCHEMA = (("customer_id", "int"), ("name", "str"),
                   ("region", "str"), ("segment", "str"), ("city", "str"))
PRODUCT_SCHEMA = (("product_id", "int"), ("title", "str"),
                  ("category", "str"), ("brand", "str"), ("price", "float"))


def _pick(rng: np.random.Generator, options: tuple, n: int) -> list:
    idx = rng.integers(0, len(options), size=n)
    return [options[i] for i in idx.tolist()]


def customers(rng: np.random.Generator, n: int) -> list[tuple]:
    first = _pick(rng, FIRST, n)
    last = _pick(rng, LAST, n)
    regions = _pick(rng, REGIONS, n)
    segments = _pick(rng, SEGMENTS, n)
    cities = _pick(rng, CITIES, n)
    return [(i, f"{first[i]} {last[i]}", regions[i], segments[i], cities[i])
            for i in range(n)]


def products(rng: np.random.Generator, n: int) -> list[tuple]:
    cats = _pick(rng, CATEGORIES, n)
    brands = _pick(rng, BRANDS, n)
    lines = _pick(rng, LINES, n)
    models = rng.integers(100, 999, size=n).tolist()
    prices = (rng.integers(80, 12000, size=n) / 4.0).tolist()
    return [(i, f"{brands[i]} {lines[i]} {models[i]}", cats[i], brands[i],
             prices[i]) for i in range(n)]


def orders(rng: np.random.Generator, start: int, n: int, num_customers: int,
           num_products: int) -> list[tuple]:
    """``n`` orders with ids ``start..start+n-1``; NULLs at fixed ids."""
    ids = range(start, start + n)
    cust = rng.integers(0, num_customers, size=n).tolist()
    prod = rng.integers(0, num_products, size=n).tolist()
    chan = _pick(rng, CHANNELS, n)
    stat = _pick(rng, STATUSES, n)
    amount = (rng.integers(4, 8000, size=n) / 4.0).tolist()
    qty = rng.integers(1, 10, size=n).tolist()
    note = _pick(rng, NOTES, n)
    out = []
    for j, oid in enumerate(ids):
        out.append((
            oid, cust[j], prod[j],
            None if oid % 17 == 3 else chan[j],
            stat[j],
            None if oid % 13 == 5 else amount[j],
            qty[j],
            None if oid % 11 == 7 else note[j],
        ))
    return out


def columns_of(rows: list[tuple], width: int) -> list[list]:
    """Row tuples to per-column lists (the shape ``Table`` takes)."""
    if not rows:
        return [[] for _ in range(width)]
    return [list(col) for col in zip(*rows)]
