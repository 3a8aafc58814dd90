"""Run one workload of the benchmark and print its JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ask --seed 1 --seconds 10 --trace 0

Workloads: ``ask`` (questions through the serving, lake, SQL, table and
shard layers), ``refresh`` (an orders stream through ivm views and a dlt
medallion pipeline) and ``match`` (entity resolution with a fine-tuned
PLM matcher).  ``--trace 0`` reports the end-to-end metrics with spans
off; ``--trace 1`` reports the per-layer metrics of a traced run, plus
the tracing overhead measured against an untraced run in the same
process.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"
WORKLOADS = ("ask", "refresh", "match")
#: Set-ups per untraced run unless the workload sets ``SETUPS``;
#: ``setup_s`` is their median.
SETUPS = 3
HASH_SEED = "0"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec() -> dict[str, list[tuple[str, str]]]:
    """Metric names and units by kind, from BENCHMARK.json."""
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: [(m["name"], m["unit"]) for m in spec[kind]]
            for kind in ("end_to_end", "per_layer")}


def _run_untraced(workload, args) -> tuple[dict, list[str]]:
    from perfbench.layers import NullCollector

    out = workload.run(args.seed, args.seconds, NullCollector(),
                       getattr(workload, "SETUPS", SETUPS))
    metrics = {name: (out["e2e"][name], unit)
               for name, unit in _spec()["end_to_end"]}
    return {"out": out, "metrics": metrics}, out["problems"]


def _run_traced(workload, args) -> tuple[dict, list[str]]:
    from repro.obs import set_enabled

    from perfbench import layers

    base = workload.run(args.seed, args.seconds, layers.NullCollector(), 1)
    collector = layers.Collector()
    set_enabled(True)
    layers.install()
    try:
        out = workload.run(args.seed, args.seconds, collector, 1)
    finally:
        layers.uninstall()
        set_enabled(False)
    figures = layers.layer_metrics(collector, 1)
    figures.update(out.get("layers", {}))
    if out.get("pairs_scored"):
        score_s = collector.get("ops").self_s.get("matching.score", 0.0)
        figures["matching.score_ms"] = 1e3 * score_s / out["pairs_scored"]
    figures["trace.overhead_fraction"] = (
        1.0 - out["e2e"]["ops_per_s"] / base["e2e"]["ops_per_s"])
    path = OUT / f"trace_{args.workload}_{args.seed}.json"
    collector.export(path)
    print(f"perfbench: Chrome/Perfetto trace written to "
          f"{path.relative_to(ROOT)}", file=sys.stderr)
    # A layer the workload never calls reads 0.
    metrics = {name: (figures.get(name, 0.0), unit)
               for name, unit in _spec()["per_layer"]}
    return {"out": out, "metrics": metrics}, \
        base["problems"] + out["problems"]


def main() -> int:
    args = _parse(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomized per process, and with it the layout
        # of every dict and set the program builds; fixing it removes a
        # run-to-run spread of several percent.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    # Spans stay off unless this is the traced run, which switches them on
    # for its traced half only.  The tracer reads this at import time.
    os.environ["REPRO_OBS_SPANS"] = "0"
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.common import emit

    workload = importlib.import_module(f"perfbench.{args.workload}")
    runner = _run_traced if args.trace else _run_untraced
    result, problems = runner(workload, args)
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    out = result["out"]
    if out.get("info"):
        print(f"perfbench: {out['info']}", file=sys.stderr)
    emit(not problems, out["attempted"], out["failed"], result["metrics"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
