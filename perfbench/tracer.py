"""Outside-in tracing of chirpmap for the benchmark's traced runs.

The tracer edits no code of the package. While installed it swaps
selected public callables for wrappers that record a span around each
call. A callable is swapped at the attribute its caller looks it up
through: ``chirpmap.pipeline.run_tsne`` for the stage's call into t-SNE,
``chirpmap.tsne.kl_divergence`` for t-SNE's own calls, and ``predict``
on the four model classes. Spans stay in memory until the run ends.

A wrapped callable that the package no longer has is recorded as absent
instead of failing the run, and so is a counter whose source attribute
is gone; ``layer_metrics`` leaves every metric fed by an absent source
out of its result.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from contextlib import contextmanager

# Metric names, units and the layer metric that each should move are
# listed in BENCHMARK.json ("per_layer") and perfbench/README.md.

STAGES = ("ingest", "embed", "eval", "explain", "render")
MODEL_KINDS = ("rf", "svm", "logreg", "knn")
INGEST_CALLS = ("load_records", "records_to_matrix", "standardize", "apply_weights",
                "class_distribution")
FIGURES = ("bars", "labeled_embedding", "boundary", "confusion", "metric_bars", "sensitivity")


class Span:
    """One call: name, start and end (tracer clock seconds), the index of
    the enclosing span, the op it belongs to, and counters read from its
    arguments or result. ``hidden`` is the time spent reading those
    counters after ``end``; the parent's self time excludes it.
    """

    __slots__ = ("name", "start", "end", "parent", "op", "info", "hidden")

    def __init__(self, name: str, parent: int | None, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info: dict = {}
        self.hidden = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with times from ``clock``, e.g. ``RefClock.now``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self.absent_spans: set[str] = set()
        self.absent_counters: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one stage."""
        span = self._open(name)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def _wrapper(self, original, name: str, observe):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            span.start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, span, args, result)
                span.hidden = tracer.clock() - span.end
            return result

        return traced

    def read(self, obj, attr: str, counter: str):
        """``obj.attr``, or None with the counter marked absent."""
        value = getattr(obj, attr, None)
        if value is None:
            self.absent_counters.add(counter)
        return value

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Swap every target for its wrapper; ``uninstall`` undoes it."""
        count_leaves = _resolve("chirpmap.models.tree", "count_leaves")
        for module_name, attr_path, name, observe in _targets(count_leaves):
            owner_path, _, attr = attr_path.rpartition(".")
            owner = _resolve(module_name, owner_path) if owner_path else _module(module_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent_spans.add(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, op: int):
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _resolve(module_name: str, attr_path: str):
    obj = _module(module_name)
    for part in attr_path.split("."):
        if obj is None:
            return None
        obj = getattr(obj, part, None)
    return obj


# -- observers: counters read from arguments and results ---------------------


def _forest_nodes(counter: str, count_leaves):
    def observe(tracer, span, args, model):
        trees = tracer.read(model, "trees", counter)
        if trees is None or count_leaves is None:
            tracer.absent_counters.add(counter)
            return
        nodes = 0
        for tree in trees:
            root = tracer.read(tree, "root", counter)
            if root is None:
                return
            nodes += 2 * count_leaves(root) - 1  # every split has two children
        span.info[counter] = nodes

    return observe


def _observe_logreg(tracer, span, args, model):
    iters = tracer.read(model, "n_iters", "models.logreg.iters")
    converged = tracer.read(model, "converged", "models.logreg.nonconverged")
    if iters is not None:
        span.info["models.logreg.iters"] = int(iters)
    if converged is not None:
        span.info["models.logreg.nonconverged"] = int(not converged)


def _observe_svm(tracer, span, args, model):
    updates = tracer.read(model, "n_updates", "models.svm.updates")
    converged = tracer.read(model, "converged", "models.svm.nonconverged")
    if updates is not None:
        span.info["models.svm.updates"] = int(updates)
    if converged is not None:
        span.info["models.svm.nonconverged"] = int(not converged)


def _observe_points(tracer, span, args, result):
    span.info["points"] = len(args[1])  # args[0] is the model


def _observe_file_bytes(path_arg: int):
    def observe(tracer, span, args, result):
        span.info["bytes"] = os.path.getsize(args[path_arg])

    return observe


def _observe_grid(tracer, span, args, result):
    span.info["points"] = int(result[2].size)


def _observe_svg(tracer, span, args, svg):
    span.info["bytes"] = len(svg.encode("utf-8"))


def _targets(count_leaves):
    """(module, attribute path, span name, observer) for every wrapped call.

    The span name's first component is the layer it bills.
    """
    p = "chirpmap.pipeline"
    ingest = [(p, fn, f"ingest.{fn}", None) for fn in INGEST_CALLS]
    figures = [(p, f"render_{fig}", f"render.{fig}", _observe_svg) for fig in FIGURES]
    classes = {
        "rf": "forest.RandomForestModel",
        "svm": "svm.SvmModel",
        "logreg": "logistic.LogisticModel",
        "knn": "knn.KnnModel",
    }
    predicts = [("chirpmap.models", f"{cls}.predict", f"models.predict.{kind}", _observe_points)
                for kind, cls in classes.items()]
    return ingest + figures + predicts + [
        (p, "run_tsne", "tsne.run", None),
        ("chirpmap.tsne", "conditional_affinities", "tsne.affinities", None),
        ("chirpmap.tsne", "low_dim_similarities", "tsne.similarities", None),
        ("chirpmap.tsne", "kl_divergence", "tsne.kl", None),
        (p, "run_all_scenarios", "evaluation.run", None),
        ("chirpmap.evaluation", "cross_validate", "evaluation.cross_validate", None),
        ("chirpmap.evaluation", "stratified_kfold", "evaluation.kfold", None),
        ("chirpmap.models", "fit_random_forest", "models.fit.rf",
         _forest_nodes("models.rf.nodes", count_leaves)),
        ("chirpmap.models", "fit_svm", "models.fit.svm", _observe_svm),
        ("chirpmap.models", "fit_logistic", "models.fit.logreg", _observe_logreg),
        ("chirpmap.models", "fit_knn", "models.fit.knn", None),
        (p, "save_model", "models.io.save", _observe_file_bytes(1)),
        (p, "load_model", "models.io.load", _observe_file_bytes(0)),
        (p, "fit_coordinate_regressors", "sensitivity.fit_regressors", None),
        (p, "build_sensitivity_map", "sensitivity.build_map", None),
        (p, "sensitivity_summary", "sensitivity.summary", None),
        ("chirpmap.sensitivity", "fit_random_forest", "sensitivity.forest_fit",
         _forest_nodes("sensitivity.regression_nodes", count_leaves)),
        ("chirpmap.sensitivity", "tree_subset_values", "sensitivity.subset_values", None),
        ("chirpmap.sensitivity", "shapley_from_subset_values", "sensitivity.combine", None),
        ("chirpmap.render", "boundary_grid", "render.grid", _observe_grid),
    ]


# -- folding one op's spans into per-layer metrics ---------------------------


def _fold(tracer: Tracer, op: int):
    """Indices of one op's spans, each span's stage, and the time its
    children cover. A parent is always recorded before its children.
    """
    spans = tracer.spans
    idx = [i for i, s in enumerate(spans) if s.op == op]
    stage: dict[int, str | None] = {}
    child_time: dict[int, float] = dict.fromkeys(idx, 0.0)
    for i in idx:
        s = spans[i]
        layer, _, rest = s.name.partition(".")
        if layer == "pipeline" and rest in STAGES:
            stage[i] = rest
        else:
            stage[i] = stage.get(s.parent) if s.parent is not None else None
        if s.parent is not None:
            child_time[s.parent] += s.duration + s.hidden
    return idx, stage, child_time


def layer_metrics(tracer: Tracer, op: int) -> tuple[dict[str, tuple[float, str]], set[str]]:
    """Per-layer metrics of one traced op, and the names left out as absent.

    Busy time is the time a layer's outermost spans were open. Self time
    is a span's duration minus the time its child spans cover.
    """
    spans = tracer.spans
    idx, stage, child_time = _fold(tracer, op)

    def layer(i):
        return spans[i].name.partition(".")[0]

    def select(prefix: str, in_stage: str | None = None):
        return [i for i in idx
                if (spans[i].name == prefix or spans[i].name.startswith(prefix + "."))
                and (in_stage is None or stage[i] == in_stage)]

    def total(prefix, in_stage=None):
        return sum(spans[i].duration for i in select(prefix, in_stage))

    def calls(prefix):
        return len(select(prefix))

    def self_time(sel):
        return sum(spans[i].duration - child_time[i] for i in sel)

    def busy(name, in_stage=None):
        return sum(spans[i].duration for i in idx
                   if layer(i) == name and (spans[i].parent is None or layer(spans[i].parent) != name)
                   and (in_stage is None or stage[i] == in_stage))

    def counter(prefix, key, in_stage=None):
        return sum(spans[i].info.get(key, 0) for i in select(prefix, in_stage))

    render_figures = [i for i in select("render") if spans[i].name != "render.grid"]
    figure_spans = tuple(f"render.{fig}" for fig in FIGURES)
    # metric: (value, unit, span names it is read from)
    out: dict[str, tuple[float, str, tuple[str, ...]]] = {
        # render calls class_distribution too; only the ingest stage's calls count
        "ingest.busy_s": (busy("ingest", "ingest"), "s", tuple(f"ingest.{fn}" for fn in INGEST_CALLS)),
        "tsne.busy_s": (total("tsne.run"), "s", ("tsne.run",)),
        "tsne.affinities_s": (total("tsne.affinities"), "s", ("tsne.affinities",)),
        "tsne.similarities_s": (total("tsne.similarities"), "s", ("tsne.similarities",)),
        "tsne.similarities_calls": (calls("tsne.similarities"), "count", ("tsne.similarities",)),
        "tsne.kl_s": (total("tsne.kl"), "s", ("tsne.kl",)),
        "tsne.kl_calls": (calls("tsne.kl"), "count", ("tsne.kl",)),
        "tsne.loop_self_s": (self_time(select("tsne.run")), "s", ("tsne.run",)),
        "evaluation.busy_s": (busy("evaluation"), "s", ("evaluation.run",)),
        "evaluation.self_s": (self_time(select("evaluation")), "s",
                              ("evaluation.run", "evaluation.cross_validate", "evaluation.kfold")),
        "evaluation.kfold_calls": (calls("evaluation.kfold"), "count", ("evaluation.kfold",)),
        "models.logreg.iters": (counter("models.fit.logreg", "models.logreg.iters"), "count",
                                ("models.fit.logreg",)),
        "models.logreg.nonconverged": (counter("models.fit.logreg", "models.logreg.nonconverged"),
                                       "count", ("models.fit.logreg",)),
        "models.svm.updates": (counter("models.fit.svm", "models.svm.updates"), "count",
                               ("models.fit.svm",)),
        "models.svm.nonconverged": (counter("models.fit.svm", "models.svm.nonconverged"), "count",
                                    ("models.fit.svm",)),
        "models.rf.nodes": (counter("models.fit.rf", "models.rf.nodes"), "count", ("models.fit.rf",)),
        "models.predict_points": (sum(counter(f"models.predict.{k}", "points", "render")
                                      for k in MODEL_KINDS), "count",
                                  tuple(f"models.predict.{k}" for k in MODEL_KINDS)),
        "models.io_s": (total("models.io"), "s", ("models.io.save", "models.io.load")),
        "models.io_bytes": (counter("models.io", "bytes"), "bytes", ("models.io.save", "models.io.load")),
        "sensitivity.busy_s": (busy("sensitivity"), "s",
                               ("sensitivity.fit_regressors", "sensitivity.build_map")),
        "sensitivity.forest_fit_s": (total("sensitivity.forest_fit"), "s", ("sensitivity.forest_fit",)),
        "sensitivity.regression_nodes": (counter("sensitivity.forest_fit", "sensitivity.regression_nodes"),
                                         "count", ("sensitivity.forest_fit",)),
        "sensitivity.subset_values_s": (total("sensitivity.subset_values"), "s",
                                        ("sensitivity.subset_values",)),
        "sensitivity.subset_values_calls": (calls("sensitivity.subset_values"), "count",
                                            ("sensitivity.subset_values",)),
        "sensitivity.combine_s": (total("sensitivity.combine"), "s", ("sensitivity.combine",)),
        "sensitivity.combine_calls": (calls("sensitivity.combine"), "count", ("sensitivity.combine",)),
        "render.busy_s": (busy("render"), "s", figure_spans),
        "render.grid_s": (total("render.grid"), "s", ("render.grid",)),
        "render.grid_points": (counter("render.grid", "points"), "count", ("render.grid",)),
        "render.svg_s": (self_time(render_figures), "s", figure_spans),
        "render.svg_bytes": (sum(spans[i].info.get("bytes", 0) for i in render_figures), "bytes",
                             figure_spans),
    }
    for kind in MODEL_KINDS:
        out[f"models.fit_s.{kind}"] = (total(f"models.fit.{kind}"), "s", (f"models.fit.{kind}",))
        out[f"models.predict_s.{kind}"] = (total(f"models.predict.{kind}", "render"), "s",
                                           (f"models.predict.{kind}",))
    for name in STAGES:
        stage_spans = select(f"pipeline.{name}")
        out[f"pipeline.{name}.busy_s"] = (sum(spans[i].duration for i in stage_spans), "s", ())
        out[f"pipeline.{name}.self_s"] = (self_time(stage_spans), "s", ())
    out["trace.spans"] = (len(idx), "count", ())

    absent = tracer.absent_spans | tracer.absent_counters
    metrics, missing = {}, set()
    for metric, (value, unit, sources) in out.items():
        if metric in absent or any(src in absent for src in sources):
            missing.add(metric)
        else:
            metrics[metric] = (float(value), unit)
    return metrics, missing


def median_metrics(per_op: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Median over ops of each metric present in every op."""
    if not per_op:
        return {}
    names = set(per_op[0]).intersection(*per_op[1:])
    return {name: (statistics.median(m[name][0] for m in per_op), per_op[0][name][1])
            for name in sorted(names)}
