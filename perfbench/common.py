"""Timing, percentile and result helpers shared by the workloads."""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: ``op_p90_ms`` needs ten operations beyond it.
MIN_OPS = 100


class SetupClock:
    """Adds up the wall time of the program calls made during set-up.

    Only the blocks wrapped in :meth:`program` count: interpreter start,
    imports, the benchmark's own random generation and the oracle are left
    out, as ``setup_s`` is defined.
    """

    def __init__(self) -> None:
        self.seconds = 0.0

    @contextmanager
    def program(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start


def repeated_setup(setup: Callable[[SetupClock], Any], times: int,
                   collector) -> tuple[Any, list[float]]:
    """Run ``setup`` ``times`` times; keep the last state, return all times.

    Each earlier state is dropped before the next set-up starts, so peak
    memory holds one state, not several.
    """
    state = None
    seconds = []
    for _ in range(times):
        state = None
        gc.collect()
        clock = SetupClock()
        with collector.phase("setup"):
            state = setup(clock)
        seconds.append(clock.seconds)
    return state, seconds


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(round_fn: Callable[[int], list[Callable[[], Any]]],
                 rounds: int, collector,
                 first_round: int = 0) -> dict[str, Any]:
    """Run exactly ``rounds`` whole rounds of operations.

    ``round_fn(r)`` returns round ``r``'s operations as callables.  The
    count is fixed rather than the time, so a faster program does the same
    work as a slower one instead of reaching rounds drawn differently.
    Returns per-operation latencies (s), results, and each round's
    operations per second.
    """
    latencies: list[float] = []
    results: list[Any] = []
    rates: list[float] = []
    for r in range(first_round, first_round + rounds):
        ops = round_fn(r)
        round_start = time.perf_counter()
        for op in ops:
            with collector.op():
                t0 = time.perf_counter()
                out = op()
                latencies.append(time.perf_counter() - t0)
            results.append(out)
        rates.append(len(ops) / (time.perf_counter() - round_start))
    return {"latencies": latencies, "results": results, "rounds": rounds,
            "rates": rates}


def end_to_end(setup_seconds: list[float], timed: dict[str, Any],
               rss_mb: float, train_s: float) -> dict[str, float]:
    deciles = statistics.quantiles([x * 1e3 for x in timed["latencies"]],
                                   n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": rss_mb,
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        # The median round, so a burst of load from outside the process
        # that slows a few rounds does not move the figure.
        "ops_per_s": statistics.median(timed["rates"]),
        "train_s": train_s,
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    """Print the one-line JSON result the benchmark ends with."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
