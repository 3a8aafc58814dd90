"""Per-layer attribution for the traced run.

The benchmark records spans from its own files: :func:`install` replaces
the public entry points of each layer with wrappers that open a
``repro.obs`` span named ``L:<metric>`` around the original call, and
:func:`uninstall` puts the originals back.  Nothing under ``src/`` changes.

A :class:`Collector` folds each finished span tree into child-exclusive
(self) time per layer metric: a layer span's self time is its duration
minus the durations of the nearest layer spans below it.  Spans the
library records itself are transparent: they neither take time nor hide
it.  An operation's time covered by no layer span is *unattributed*.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

PREFIX = "L:"
#: Operation roots kept for the exported Chrome/Perfetto trace.
KEEP_ROOTS = 20


def _targets() -> list[tuple[Any, str, str, Callable[..., int] | None]]:
    """``(owner, attribute, metric, rows_in)`` for every wrapped entry point."""
    from repro.dlt import checkpoint, runner
    from repro.ivm import view as ivm_view
    from repro.lake import symphony
    from repro.matching import blocking, ditto
    from repro.nn import optim, tensor
    from repro.plm import model, pretrain
    from repro.serving import server
    from repro.shard import kernels
    from repro.sql import engine, physical, plan
    from repro.table import Table

    def one(self, *a, **k):
        return self.num_rows

    def two(self, other, *a, **k):
        return self.num_rows + other.num_rows

    def append(self, rows, *a, **k):
        return self.num_rows + (len(rows) if hasattr(rows, "__len__") else 0)

    targets = [
        (server.Server, "call", "serving.call", None),
        (symphony.Symphony, "answer", "lake.answer", None),
        (engine.Database, "query", "sql.exec", None),
        (physical.PhysicalPlan, "execute", "sql.exec", None),
        (engine, "parse_sql", "sql.plan", None),
        (plan, "compile_query", "sql.plan", None),
        (engine, "optimize", "sql.plan", None),
        (engine, "bind", "sql.plan", None),
        (Table, "filter", "table.filter", one),
        (Table, "join", "table.join", two),
        (Table, "group_by", "table.group_by", one),
        (Table, "order_by", "table.order_by", one),
        (Table, "append_rows", "table.append", append),
        (Table, "union", "table.append", two),
        (kernels, "filter", "shard.kernel", None),
        (kernels, "join", "shard.kernel", None),
        (kernels, "group_by", "shard.kernel", None),
        (ivm_view.StreamTable, "push", "ivm.push", None),
        (ivm_view.StreamTable, "insert_rows", "ivm.push", None),
        (ivm_view.StreamTable, "delete_rows", "ivm.push", None),
        (ivm_view.MaterializedView, "table", "ivm.read", None),
        (runner.Pipeline, "run", "dlt.refresh", None),
        (runner, "table_hash", "dlt.hash", None),
        (checkpoint.CheckpointStore, "commit", "dlt.checkpoint", None),
        (checkpoint.CheckpointStore, "committed", "dlt.checkpoint", None),
        (checkpoint.CheckpointStore, "read_table", "dlt.checkpoint", None),
        (checkpoint.CheckpointStore, "read_quarantine", "dlt.checkpoint",
         None),
        (blocking.LSHBlocker, "evaluate", "matching.block", None),
        (ditto.DittoMatcher, "predict", "matching.score", None),
        (model.MiniBert, "forward", "plm.forward", None),
        (pretrain.MLMPretrainer, "train", "plm.pretrain", None),
        (tensor.Tensor, "backward", "nn.backward", None),
        (optim.Adam, "step", "nn.optim", None),
        (optim.Adam, "zero_grad", "nn.optim", None),
        (ditto, "clip_grad_norm", "nn.optim", None),
    ]
    if hasattr(pretrain, "clip_grad_norm"):
        targets.append((pretrain, "clip_grad_norm", "nn.optim", None))
    return targets


_saved: list[tuple[Any, str, Any, bool]] = []


def _wrap(fn: Callable[..., Any], name: str,
          rows_in: Callable[..., int] | None) -> Callable[..., Any]:
    from repro.obs import tracing

    if rows_in is None:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracing.span(name):
                return fn(*args, **kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracing.span(name, rows_in=rows_in(*args, **kwargs)):
                return fn(*args, **kwargs)
    return wrapper


def install() -> None:
    """Wrap every layer entry point (idempotent until :func:`uninstall`)."""
    if _saved:
        return
    for owner, attr, metric, rows_in in _targets():
        own = isinstance(owner, type) and attr in owner.__dict__
        raw = owner.__dict__[attr] if own else getattr(owner, attr)
        name = PREFIX + metric
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(_wrap(raw.__func__, name, rows_in))
        else:
            new = _wrap(raw, name, rows_in)
        _saved.append((owner, attr, raw,
                       own or not isinstance(owner, type)))
        setattr(owner, attr, new)


def uninstall() -> None:
    while _saved:
        owner, attr, raw, restore = _saved.pop()
        if restore:
            setattr(owner, attr, raw)
        else:
            delattr(owner, attr)


@dataclass
class Phase:
    """Accumulated attribution for one phase (setup, train or ops)."""

    self_s: dict[str, float] = field(default_factory=dict)
    incl_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    rows_in: int = 0
    roots: int = 0
    root_s: float = 0.0
    unattributed_s: float = 0.0

    def fold(self, root) -> None:
        covered = self._covered(root)
        self.roots += 1
        self.root_s += root.duration or 0.0
        self.unattributed_s += (root.duration or 0.0) - covered

    def _covered(self, span) -> float:
        """Total duration of the topmost layer spans below ``span``,
        crediting each of them with its own self time on the way."""
        covered = 0.0
        for child in span.children:
            if child.name.startswith(PREFIX):
                metric = child.name[len(PREFIX):]
                duration = child.duration or 0.0
                inner = self._covered(child)
                self.self_s[metric] = (self.self_s.get(metric, 0.0)
                                       + duration - inner)
                self.incl_s[metric] = self.incl_s.get(metric, 0.0) + duration
                self.calls[metric] = self.calls.get(metric, 0) + 1
                self.rows_in += int(child.attributes.get("rows_in", 0))
                covered += duration
            else:
                covered += self._covered(child)
        return covered


class Collector:
    """Opens the root spans of a traced run and folds them per phase."""

    enabled = True

    def __init__(self) -> None:
        from repro.obs import tracing

        self._tracing = tracing
        self.phases: dict[str, Phase] = {}
        self.kept: list[Any] = []

    @contextmanager
    def _root(self, phase: str, keep: bool) -> Iterator[None]:
        tracer = self._tracing.get_tracer()
        with self._tracing.span(f"bench.{phase}") as root:
            yield
        self.phases.setdefault(phase, Phase()).fold(root)
        if keep:
            self.kept.append(root)
        tracer.reset()

    def phase(self, name: str):
        return self._root(name, keep=True)

    def op(self):
        keep = len(self.kept) < KEEP_ROOTS
        return self._root("ops", keep=keep)

    def get(self, phase: str) -> Phase:
        return self.phases.get(phase, Phase())

    def export(self, path: Path) -> Path:
        from repro.obs import save_chrome_trace

        return save_chrome_trace(path, self.kept, process_name="perfbench")


class NullCollector:
    """The untraced stand-in: every context is a no-op."""

    enabled = False

    def phase(self, name: str):
        return nullcontext()

    def op(self):
        return nullcontext()


#: Per-layer metrics, each with the phase it is read from and how it is
#: normalized: ``op`` = self ms per timed operation, ``setup`` = inclusive
#: ms of one set-up, ``step`` = self ms per training step (one
#: ``Tensor.backward`` call of the train phase).
LAYER_METRICS = {
    "serving.call_ms": ("ops", "op"),
    "lake.answer_ms": ("ops", "op"),
    "sql.plan_ms": ("ops", "op"),
    "sql.exec_ms": ("ops", "op"),
    "table.filter_ms": ("ops", "op"),
    "table.join_ms": ("ops", "op"),
    "table.group_by_ms": ("ops", "op"),
    "table.order_by_ms": ("ops", "op"),
    "table.append_ms": ("ops", "op"),
    "shard.kernel_ms": ("ops", "op"),
    "ivm.push_ms": ("ops", "op"),
    "ivm.read_ms": ("ops", "op"),
    "dlt.refresh_ms": ("ops", "op"),
    "dlt.checkpoint_ms": ("ops", "op"),
    "dlt.hash_ms": ("ops", "op"),
    "matching.block_ms": ("setup", "setup"),
    "plm.pretrain_ms": ("setup", "setup"),
    "plm.forward_ms": ("train", "step"),
    "nn.backward_ms": ("train", "step"),
    "nn.optim_ms": ("train", "step"),
}


def layer_metrics(collector: Collector, setups: int) -> dict[str, float]:
    """Per-layer figures from the collector's phases (0 when idle)."""
    out: dict[str, float] = {}
    ops = collector.get("ops")
    train_steps = collector.get("train").calls.get("nn.backward", 0)
    for name, (phase_name, norm) in LAYER_METRICS.items():
        metric = name[:-len("_ms")]
        phase = collector.get(phase_name)
        if norm == "op":
            total = phase.self_s.get(metric, 0.0)
            out[name] = 1e3 * total / max(ops.roots, 1)
        elif norm == "setup":
            total = phase.incl_s.get(metric, 0.0)
            out[name] = 1e3 * total / max(setups, 1)
        else:
            total = phase.self_s.get(metric, 0.0)
            out[name] = 1e3 * total / max(train_steps, 1)
    out["table.rows_in"] = ops.rows_in / max(ops.roots, 1)
    out["unattributed_fraction"] = (ops.unattributed_s / ops.root_s
                                    if ops.root_s else 0.0)
    return out
