"""Every call the benchmark's tracer wraps still exists in the package.

`perfbench/tracer.py` swaps package callables for timing wrappers by
name and records a missing one as absent instead of failing, so a
renamed or moved function would silently zero a per-layer metric, and a
call that no longer goes through the patched name would silently
record no span.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import chirpmap.models
import chirpmap.pipeline
import chirpmap.sensitivity
from chirpmap.evaluation import SCENARIO_ORDER
from chirpmap.ingest import FEATURE_NAMES
from chirpmap.synth import generate_records, write_records_csv

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
WORKLOADS = TRACER.parent / "workloads.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads(monkeypatch):
    """workloads.py as the tracer is loaded, registered while the test runs,
    since its dataclasses resolve their annotations through sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    originals = (chirpmap.models.fit_random_forest, chirpmap.sensitivity.fit_random_forest,
                 chirpmap.pipeline.run_tsne)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.absent_spans == set()
        assert chirpmap.models.fit_random_forest is not originals[0]  # really wrapped
    finally:
        tracer.uninstall()
    assert (chirpmap.models.fit_random_forest, chirpmap.sensitivity.fit_random_forest,
            chirpmap.pipeline.run_tsne) == originals


def test_forest_node_counter_reads_the_fitted_trees():
    """The node counters read `model.trees`, each tree's `.root` and
    `count_leaves`; a fit under the tracer must yield them, not mark them absent."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        x = np.random.default_rng(0).normal(size=(30, 2))
        model = chirpmap.models.fit_random_forest(
            x, (x[:, 0] > 0).astype(np.int64), chirpmap.models.ForestConfig(n_trees=3))
    finally:
        tracer.uninstall()
    assert tracer.absent_counters == set()
    nodes = [span.info["models.rf.nodes"] for span in tracer.spans if span.name == "models.fit.rf"]
    assert nodes == [sum(tree.root.feature.size for tree in model.trees)]


def test_tracer_bills_stages_by_the_pipeline_stage_names():
    assert _load_tracer().STAGES == tuple(s.name for s in chirpmap.pipeline.STAGES)


def test_traced_pipeline_records_every_eval_and_explain_call(tmp_path):
    """Span counts of one traced run: each ingest step runs once (the
    class distribution again in render), t-SNE and its calibration once,
    each classifier is fitted once per fold and once on the hold-out
    split, each hold-out model is saved once and loaded once to draw, the
    one coordinate forest is fitted once and routed once, inside its
    attribution, which paints once and combines once per axis, and render
    draws each figure once. A call that moves off a traced name fails
    here instead of silently reading 0."""
    data = tmp_path / "data.csv"
    write_records_csv(generate_records(n_per_cluster=10, seed=0), str(data))
    k = 3
    config = chirpmap.pipeline.config_from_dict({
        "input": str(data), "out": str(tmp_path / "out"), "k_folds": k,
        "tsne": {"perplexity": 5, "n_iterations": 60, "momentum_switch_iter": 20,
                 "exaggeration_until_iter": 20},
        "classifier_configs": {"rf": {"n_trees": 3}}, "sensitivity": {"n_trees": 3},
        "grid_resolution": 10,
    })
    s = len(config.scenarios)
    assert s == 3
    tracer = _load_tracer().Tracer()
    with tracer.installed(0):
        chirpmap.pipeline.run_pipeline(config)
    counts = Counter(span.name for span in tracer.spans)
    assert tracer.absent_spans == set() and tracer.absent_counters == set()
    expected = {
        **{f"ingest.{fn}": 1 for fn in ("load_records", "records_to_matrix", "standardize",
                                        "apply_weights")},
        "ingest.class_distribution": 2,
        "tsne.run": 1,
        "tsne.affinities": 1,
        "evaluation.run": 1,
        "evaluation.kfold": s,
        "evaluation.cross_validate": 4 * s,
        **{f"models.fit.{kind}": s * (k + 1) for kind in ("rf", "svm", "logreg", "knn")},
        "models.predict.rf": s * (k + 1) + 1,
        "sensitivity.fit_regressors": 1,
        "sensitivity.forest_fit": 1,
        "sensitivity.build_map": 1,
        "sensitivity.subset_values": 1,
        "sensitivity.combine": 2,
        "sensitivity.summary": 1,
        "models.io.save": 4 * s,
        "models.io.load": 4 * s,
        "render.bars": 2,
        "render.labeled_embedding": 2,
        "render.boundary": 4 * s,
        "render.grid": 4 * s,
        "render.confusion": s,
        "render.metric_bars": s,
        "render.sensitivity": 3,
    }
    assert {name: counts[name] for name in expected} == expected


def test_workload_copies_of_the_schema_match_the_package(tmp_path, monkeypatch):
    """`perfbench/workloads.py` keeps its own feature, scenario and
    classifier names and its own list of each stage's artifacts; a change
    to the package that they miss fails here, not as a failed bench op."""
    workloads = _load_workloads(monkeypatch)
    assert workloads.FEATURES == FEATURE_NAMES
    assert workloads.SCENARIOS == SCENARIO_ORDER
    assert workloads.CLASSIFIERS == tuple(chirpmap.pipeline.LONG_KIND_NAMES[kind]
                                          for kind in chirpmap.models.CLASSIFIER_KINDS)
    data = tmp_path / "data.csv"
    write_records_csv(generate_records(n_per_cluster=10, seed=0), str(data))
    out = tmp_path / "out"
    chirpmap.pipeline.run_pipeline(chirpmap.pipeline.config_from_dict({
        "input": str(data), "out": str(out),
        "tsne": {"perplexity": 5, "n_iterations": 60, "momentum_switch_iter": 20,
                 "exaggeration_until_iter": 20},
        "classifier_configs": {"rf": {"n_trees": 3}}, "sensitivity": {"n_trees": 3},
        "grid_resolution": 10,
    }))
    written = {path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file()}
    expected = workloads.expected_artifacts(tuple(stage.name for stage in chirpmap.pipeline.STAGES))
    assert set(expected) <= written
