"""The ``match`` workload: entity resolution over dirty product catalogs.

Inputs are ``repro.datasets`` ``products_em`` catalogs drawn from the
seed: two independent catalogs (each a pair of sources) to resolve and,
from a third world, a pair whose labelled pairs train the matcher (so no
evaluated pair is ever a training label).  Set-up builds the vocabulary,
MLM-pretrains a ``MiniBert`` and blocks each catalog with ``LSHBlocker``.
The run then fine-tunes a ``DittoMatcher`` (``train_s``) and resolves
records of source A one at a time by scoring that record's blocked
candidates.  A round is one pass over the chosen records.

A record's cost grows with its number of candidates, and from seed to
seed the median record of the blocked catalogs moves between 4 and 5
candidates, which moved ``op_p50_ms`` by a quarter.  So the records
resolved are chosen by candidate count, with a fixed quota for each count
(``QUOTAS``), taking the first records in key order: every seed resolves
the same mix, and the median falls inside the 4-candidate records.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from perfbench.common import SetupClock, end_to_end, peak_rss_mb, \
    repeated_setup, timed_rounds

CATALOGS = 2
NUM_PRODUCTS = 300
TRAIN_PRODUCTS = 150
LABELS = 300
BATCH_SIZE = 8
PRETRAIN_STEPS = 60
#: Three MinHash rows per band: about 6 candidates per record and pair
#: completeness near 0.98.
LSH_PERMUTATIONS = 60
LSH_BANDS = 20
#: Every eighth record is resolved again after the timed pass.
RECHECK_EVERY = 8
#: Records resolved with 1, 2, ..., 7 candidates and with 8 or more.  Each
#: quota stays below the fewest such records seen over seeds 1-20.
QUOTAS = (30, 40, 50, 60, 40, 30, 20, 30)


def make_inputs(seed: int) -> dict[str, Any]:
    from repro.datasets import make_world, products_em, world_corpus

    worlds = [make_world(seed=10 * seed + k, num_products=NUM_PRODUCTS,
                         num_restaurants=5, num_papers=5)
              for k in range(CATALOGS)]
    train_world = make_world(seed=10 * seed + 9, num_products=TRAIN_PRODUCTS,
                             num_restaurants=5, num_papers=5)
    train_em = products_em(train_world, seed=seed + 1)
    labelled = train_em.labeled_pairs(LABELS, seed=seed, match_fraction=0.5)
    return {
        "ems": [products_em(world, seed=10 * seed + k)
                for k, world in enumerate(worlds)],
        "train_em": train_em,
        "corpus": world_corpus(worlds[0], sentences_per_fact=1, seed=seed),
        "pairs": [(a, b) for a, b, _ in labelled],
        "labels": np.array([label for *_, label in labelled]),
    }


def setup(inputs: dict[str, Any], clock: SetupClock) -> dict[str, Any]:
    from repro.embeddings import Vocab
    from repro.matching import LSHBlocker, serialize_record
    from repro.plm import MiniBert, MLMPretrainer

    ems, train_em, corpus = inputs["ems"], inputs["train_em"], \
        inputs["corpus"]
    records = [r for em in ems + [train_em]
               for r in em.source_a + em.source_b]
    with clock.program():
        texts = [serialize_record(r) for r in records]
        vocab = Vocab(corpus[:300] + texts)
        encoder = MiniBert(vocab, dim=32, num_layers=2, num_heads=2,
                           ff_dim=64, max_len=32, seed=0)
        MLMPretrainer(encoder, seed=0).train(
            corpus[:200] + texts[:200], steps=PRETRAIN_STEPS, batch_size=16)
        blocker = LSHBlocker(num_perm=LSH_PERMUTATIONS, bands=LSH_BANDS)
        blocked = [blocker.evaluate(em) for em in ems]
    # Record ids repeat across catalogs, so pairs carry the catalog index.
    candidates = {(k, a, b) for k, result in enumerate(blocked)
                  for a, b in result.candidates}
    return {"encoder": encoder, "candidates": candidates}


def _f1(predicted: set, truth: set) -> float:
    tp = len(predicted & truth)
    return 2 * tp / (len(predicted) + len(truth)) if predicted or truth \
        else 1.0


def run(seed: int, seconds: float, collector, setups: int) -> dict[str, Any]:
    from repro.matching import DittoMatcher, RuleBasedMatcher

    inputs = make_inputs(seed)
    state, setup_seconds = repeated_setup(
        lambda clock: setup(inputs, clock), setups, collector)
    ems = inputs["ems"]
    by_rid = {(k, r.rid): r for k, em in enumerate(ems)
              for r in em.source_a + em.source_b}
    per_record: dict[tuple, list[str]] = {}
    for k, rid_a, rid_b in sorted(state["candidates"]):
        per_record.setdefault((k, rid_a), []).append(rid_b)
    order = []
    taken = [0] * len(QUOTAS)
    for key in sorted(per_record):
        count = min(len(per_record[key]), len(QUOTAS)) - 1
        if taken[count] < QUOTAS[count]:
            taken[count] += 1
            order.append(key)

    train_start = time.perf_counter()
    with collector.phase("train"):
        matcher = DittoMatcher(state["encoder"], seed=0)
        matcher.fit(inputs["pairs"], inputs["labels"], epochs=1,
                    batch_size=BATCH_SIZE)
    train_s = time.perf_counter() - train_start

    def resolve(key: tuple) -> tuple[tuple, list[int]]:
        k, rid_a = key
        pairs = [(by_rid[key], by_rid[(k, b)]) for b in per_record[key]]
        return key, [int(p) for p in matcher.predict(pairs)]

    def round_ops(r: int):
        return [lambda key=key: resolve(key) for key in order]

    # A round is one whole pass and a run makes a fixed number of passes
    # (1 per 10 s asked for), so every run of a seed does the same work.
    timed = timed_rounds(round_ops, max(1, round(seconds / 10)), collector)
    rss = peak_rss_mb()

    problems = []
    labels: dict[tuple, list[int]] = {}
    for key, predicted in timed["results"]:
        if labels.setdefault(key, predicted) != predicted:
            problems.append(f"{key}: predictions changed between passes")
    # Resolve a fixed share of the records once more, untimed: a record
    # must get the same predictions every time it is resolved.
    for key in order[::RECHECK_EVERY]:
        if resolve(key)[1] != labels[key]:
            problems.append(f"{key}: predictions changed when resolved again")
    candidates = sorted(state["candidates"])
    truth = {(k, a, b) for k, em in enumerate(ems) for a, b in em.matches}
    completeness = len(truth & set(candidates)) / len(truth)
    # F1 over the resolved records: their candidates, their true matches.
    chosen = set(order)
    resolved = [pair for pair in candidates if pair[:2] in chosen]
    truth = {pair for pair in truth if pair[:2] in chosen}
    ditto = {(k, a, b) for k, a in order
             for b, p in zip(per_record[(k, a)], labels[(k, a)]) if p}
    rules = RuleBasedMatcher().predict(
        [(by_rid[(k, a)], by_rid[(k, b)]) for k, a, b in resolved])
    rule = {pair for pair, p in zip(resolved, rules) if p}
    ditto_f1, rule_f1 = _f1(ditto, truth), _f1(rule, truth)
    if not ditto_f1 > rule_f1:
        problems.append(f"Ditto F1 {ditto_f1:.3f} does not exceed the "
                        f"rule-based F1 {rule_f1:.3f}")
    scored = sum(len(per_record[key]) for key, _ in timed["results"])
    return {
        "problems": problems,
        "attempted": len(timed["latencies"]),
        "failed": 0,
        "e2e": end_to_end(setup_seconds, timed, rss, train_s),
        "pairs_scored": scored,
        "layers": {
            "matching.pair_completeness": completeness,
            "matching.candidates_per_record":
                len(candidates) / sum(len(em.source_a) for em in ems),
        },
        "info": f"pair F1 on blocked candidates: Ditto {ditto_f1:.3f}, "
                f"rule-based {rule_f1:.3f}",
    }
