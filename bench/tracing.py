"""Span tracer that wraps skd's layer functions from outside the package.

Each target is a module-level function (or a method of a module-level class)
of one skd layer. ``install`` replaces it with a wrapper that records a span
(name, start, end, parent) and optional counters, rebinding the name in every
``skd`` module that imported it, so calls through ``from .x import f`` are
traced too. Spans stay in memory; the caller reads and clears them.

A target that no longer exists is recorded as missing, and every per-layer
metric that depends on it is reported as null rather than failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import re
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

LAYERS = ("cli", "dataset", "metric", "selgraph", "mincut", "maxflow",
          "student", "distiller", "evaluate")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _load_bytes(args, kwargs, result, attrs):
    path = args[0] if args else kwargs["path"]
    attrs["bytes"] = os.path.getsize(path)


def _edges(args, kwargs, result, attrs):
    attrs["edges"] = int(result.intra_edge_count)


def _mask_digest(args, kwargs, result, attrs):
    mask, _ = result
    attrs["digest"] = hashlib.sha256(mask.alpha.tobytes()).hexdigest()


def _arcs(args, kwargs, result, attrs):
    attrs["arcs"] = len(args[0].to) // 2


def _rows(args, kwargs, result, attrs):
    attrs["rows"] = len(args[1])


def _step_flops(args, kwargs, result, attrs):
    """Multiply-adds of one SGD step, counted as 2 FLOPs each.

    Forward and weight gradient each cost rows * fan_in * fan_out per layer;
    the input delta is propagated to every layer but the first.
    """
    model, X = args[0], args[1]
    sizes = [layer.W.size for layer in model.layers]
    rows = len(X)
    attrs["rows"] = rows
    attrs["flops"] = 2.0 * rows * (2 * sum(sizes) + sum(sizes[1:]))


# (span name, module, attribute path, counter); the span name's first part is
# the layer. Private helpers are listed where a metric needs their boundary.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "skd.cli", "main", None),
    ("dataset.load_student_set", "skd.dataset", "load_student_set", _load_bytes),
    ("dataset.save_student_set", "skd.dataset", "save_student_set", None),
    ("dataset.synthesize", "skd.dataset", "synthesize", None),
    ("metric.class_centroids", "skd.metric", "class_centroids", None),
    ("selgraph.build_selection_graph", "skd.selgraph", "build_selection_graph", _edges),
    ("selgraph.energy", "skd.selgraph", "energy", None),
    ("selgraph.pairwise_reward", "skd.selgraph", "pairwise_reward", None),
    ("mincut.lambda_sweep", "skd.mincut", "lambda_sweep", None),
    ("mincut.minimize", "skd.mincut", "minimize", _mask_digest),
    ("mincut.solve_class_cut", "skd.mincut", "solve_class_cut", None),
    ("mincut._class_edges", "skd.mincut", "_class_edges", None),
    ("mincut.save_mask", "skd.mincut", "save_mask", None),
    ("mincut.load_mask", "skd.mincut", "load_mask", None),
    ("mincut.write_sweep_csv", "skd.mincut", "write_sweep_csv", None),
    ("maxflow.Dinic.max_flow", "skd.maxflow", "Dinic.max_flow", _arcs),
    ("maxflow.Dinic._bfs", "skd.maxflow", "Dinic._bfs", None),
    ("maxflow.Dinic.side_reaching_sink", "skd.maxflow", "Dinic.side_reaching_sink", None),
    ("student.init_student", "skd.student", "init_student", None),
    ("student.forward_trace", "skd.student", "forward_trace", _rows),
    ("student.save_checkpoint", "skd.student", "save_checkpoint", None),
    ("student.load_checkpoint", "skd.student", "load_checkpoint", None),
    ("distiller._train", "skd.distiller", "_train", None),
    ("distiller._loss_and_grads", "skd.distiller", "_loss_and_grads", _step_flops),
    ("distiller._sgd_step", "skd.distiller", "_sgd_step", None),
    ("evaluate.make_verification_pairs", "skd.evaluate", "make_verification_pairs", None),
    ("evaluate.evaluate_verification", "skd.evaluate", "evaluate_verification", None),
    ("evaluate.evaluate_identification", "skd.evaluate", "evaluate_identification", None),
    ("evaluate.evaluate_retrieval", "skd.evaluate", "evaluate_retrieval", None),
)


class Tracer:
    """Collects spans from wrapped functions while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(args, kwargs, result, span.attrs)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; a target that cannot be found is marked missing."""
        for name, module_name, attr_path, counter in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.add(name)
                continue
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self.wrap(name, original, counter)
            if owner_path:  # a method: patch the class attribute once
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if module is None or not getattr(module, "__name__", "").startswith("skd"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The tracer is stack-based, so children nest inside their parent and never
    overlap: the self times of a command's subtree sum to its wall time.
    """
    selfs = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            selfs[span.parent] -= span.end - span.start
    return selfs


def command_accounting(spans: list[Span]) -> list[tuple[float, float]]:
    """(wall, summed self time of its subtree) for every top-level command span."""
    selfs = self_times(spans)
    root_of: list[int] = []
    for k, span in enumerate(spans):
        root_of.append(k if span.parent is None else root_of[span.parent])
    sums: dict[int, float] = {}
    for k, root in enumerate(root_of):
        sums[root] = sums.get(root, 0.0) + selfs[k]
    return [(spans[r].end - spans[r].start, total) for r, total in sums.items()]


class _Table:
    """Sums over the spans of one traced iteration."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.selfs = self_times(spans)

    def select(self, name: str, parent: str | None = None):
        for k, s in enumerate(self.spans):
            if s.name == name and (
                parent is None
                or (s.parent is not None and self.spans[s.parent].name == parent)
            ):
                yield k, s

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(s.end - s.start for _, s in self.select(name, parent))

    def self_total(self, name: str) -> float:
        return sum(self.selfs[k] for k, _ in self.select(name))

    def count(self, name: str, parent: str | None = None) -> int:
        return sum(1 for _ in self.select(name, parent))

    def attr_sum(self, name: str, key: str, parent: str | None = None) -> float:
        return sum(s.attrs.get(key, 0) for _, s in self.select(name, parent))

    def per_call(self, name: str) -> float:
        n = self.count(name)
        return self.total(name) / n if n else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(self.selfs[k] for k, s in enumerate(self.spans) if s.layer == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _distinct_ratio(t: _Table) -> float:
    digests = [s.attrs.get("digest") for _, s in t.select("mincut.minimize")]
    return _ratio(len(set(digests)), len(digests))


def _gflops(t: _Table) -> float:
    flops = t.attr_sum("distiller._loss_and_grads", "flops")
    return _ratio(flops, t.total("distiller._loss_and_grads")) / 1e9


STEP = "distiller._loss_and_grads"
LOOP = "distiller._train"

# name -> (unit, better, targets it needs, value from one iteration's table).
# Times are per-iteration totals unless the name says per call or class.
ITERATION_METRICS: dict[str, tuple[str, str, tuple[str, ...], Callable[[_Table], float]]] = {
    "dataset.load_s": ("s", "lower", ("dataset.load_student_set",),
                       lambda t: t.total("dataset.load_student_set")),
    "dataset.load_mb": ("MB", "lower", ("dataset.load_student_set",),
                        lambda t: t.attr_sum("dataset.load_student_set", "bytes") / 1e6),
    "metric.centroids_s": ("s", "lower", ("metric.class_centroids",),
                           lambda t: t.total("metric.class_centroids")),
    "selgraph.build_s": ("s", "lower", ("selgraph.build_selection_graph",),
                         lambda t: t.total("selgraph.build_selection_graph")),
    "selgraph.edges": ("count", "lower", ("selgraph.build_selection_graph",),
                       lambda t: max((s.attrs["edges"] for _, s in
                                      t.select("selgraph.build_selection_graph")), default=0)),
    "selgraph.energy_s": ("s", "lower", ("selgraph.energy",),
                          lambda t: t.total("selgraph.energy")),
    "mincut.minimize_s": ("s", "lower", ("mincut.minimize",),
                          lambda t: t.per_call("mincut.minimize")),
    "mincut.class_cut_s": ("s", "lower", ("mincut.solve_class_cut",),
                           lambda t: t.per_call("mincut.solve_class_cut")),
    "mincut.network_build_s": ("s", "lower", ("mincut.solve_class_cut",),
                               lambda t: t.self_total("mincut.solve_class_cut")),
    "mincut.group_edges_s": ("s", "lower", ("mincut._class_edges",),
                             lambda t: t.total("mincut._class_edges")),
    "mincut.mask_io_s": ("s", "lower",
                         ("mincut.save_mask", "mincut.load_mask", "mincut.write_sweep_csv"),
                         lambda t: t.total("mincut.save_mask") + t.total("mincut.load_mask")
                         + t.total("mincut.write_sweep_csv")),
    "mincut.minimize_calls": ("count", "lower", ("mincut.minimize",),
                              lambda t: t.count("mincut.minimize")),
    "mincut.class_cuts": ("count", "lower", ("mincut.solve_class_cut",),
                          lambda t: t.count("mincut.solve_class_cut")),
    "mincut.sweep_distinct_ratio": ("ratio", "higher", ("mincut.minimize",), _distinct_ratio),
    "maxflow.max_flow_s": ("s", "lower", ("maxflow.Dinic.max_flow",),
                           lambda t: t.total("maxflow.Dinic.max_flow")),
    "maxflow.reach_s": ("s", "lower", ("maxflow.Dinic.side_reaching_sink",),
                        lambda t: t.total("maxflow.Dinic.side_reaching_sink")),
    "maxflow.arcs": ("count", "lower", ("maxflow.Dinic.max_flow",),
                     lambda t: t.attr_sum("maxflow.Dinic.max_flow", "arcs")),
    "maxflow.phases": ("count", "lower", ("maxflow.Dinic._bfs",),
                       lambda t: t.count("maxflow.Dinic._bfs")),
    "student.ckpt_io_s": ("s", "lower", ("student.save_checkpoint", "student.load_checkpoint"),
                          lambda t: t.total("student.save_checkpoint")
                          + t.total("student.load_checkpoint")),
    "student.forward_calls": ("count", "lower", ("student.forward_trace",),
                              lambda t: t.count("student.forward_trace")),
    "distiller.train_s": ("s", "lower", (LOOP,), lambda t: t.total(LOOP)),
    "distiller.step_forward_s": ("s", "lower", (STEP, "student.forward_trace"),
                                 lambda t: t.total("student.forward_trace", parent=STEP)),
    "distiller.backward_s": ("s", "lower", (STEP,), lambda t: t.self_total(STEP)),
    "distiller.sgd_s": ("s", "lower", ("distiller._sgd_step",),
                        lambda t: t.total("distiller._sgd_step")),
    "distiller.log_forward_s": ("s", "lower", (LOOP, "student.forward_trace"),
                                lambda t: t.total("student.forward_trace", parent=LOOP)),
    "distiller.loop_self_s": ("s", "lower", (LOOP,), lambda t: t.self_total(LOOP)),
    "distiller.steps": ("count", "lower", (STEP,), lambda t: t.count(STEP)),
    "distiller.rows": ("count", "lower", (STEP,), lambda t: t.attr_sum(STEP, "rows")),
    "distiller.log_passes": ("count", "lower", (LOOP, "student.forward_trace"),
                             lambda t: t.count("student.forward_trace", parent=LOOP)),
    "distiller.log_rows_ratio": ("ratio", "lower", (LOOP, STEP, "student.forward_trace"),
                                 lambda t: _ratio(
                                     t.attr_sum("student.forward_trace", "rows", parent=LOOP),
                                     t.attr_sum(STEP, "rows"))),
    "distiller.gflops": ("GFLOP/s", "higher", (STEP,), _gflops),
    "evaluate.verify_s": ("s", "lower",
                          ("evaluate.evaluate_verification", "evaluate.make_verification_pairs"),
                          lambda t: t.total("evaluate.evaluate_verification")
                          + t.total("evaluate.make_verification_pairs")),
    "evaluate.identify_s": ("s", "lower", ("evaluate.evaluate_identification",),
                            lambda t: t.total("evaluate.evaluate_identification")),
    "evaluate.retrieve_s": ("s", "lower", ("evaluate.evaluate_retrieval",),
                            lambda t: t.total("evaluate.evaluate_retrieval")),
    "cli.overhead_s": ("s", "lower", ("cli.main",), lambda t: t.layer_self("cli")),
}
for _layer in LAYERS[1:]:
    ITERATION_METRICS[f"{_layer}.self_s"] = (
        "s", "lower", ("cli.main",), lambda t, _layer=_layer: t.layer_self(_layer))

# Measured on the traced set-up (``skd synth``), not on the timed commands.
SETUP_METRICS = {
    "dataset.synth_s": ("s", "lower", ("dataset.synthesize",),
                        lambda t: t.total("dataset.synthesize")),
    "dataset.save_s": ("s", "lower", ("dataset.save_student_set",),
                       lambda t: t.total("dataset.save_student_set")),
}

# Reported by the traced run itself.
RUN_METRICS = {
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def derive(table_metrics, span_sets: list[list[Span]], missing: set[str]) -> dict:
    """Median over span sets of each metric; null where a needed target is gone."""
    tables = [_Table(spans) for spans in span_sets]
    out = {}
    for name, (_, _, needs, fn) in table_metrics.items():
        if missing.intersection(needs) or not tables:
            out[name] = None
        else:
            out[name] = float(median(fn(t) for t in tables))
    return out


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, in the order BENCHMARK.json declares it."""
    spec = [{"name": name, "unit": unit, "better": better}
            for metrics in (ITERATION_METRICS, SETUP_METRICS)
            for name, (unit, better, _, _) in metrics.items()]
    spec += [{"name": name, "unit": unit, "better": better}
             for name, (unit, better) in RUN_METRICS.items()]
    return spec
