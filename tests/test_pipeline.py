import importlib.util
import json
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chirpmap.errors import DataError, UsageError
from chirpmap.ingest import (FEATURE_NAMES, ChirpRecord, apply_weights, load_records,
                             records_to_matrix, standardize)
from chirpmap.pipeline import (
    LONG_KIND_NAMES,
    STAGES,
    PipelineConfig,
    _read_features,
    artifact_paths,
    config_from_dict,
    run_pipeline,
    run_stage,
)
from chirpmap.synth import generate_records, write_records_csv

TINY = {
    "subsample": None,
    "tsne": {"perplexity": 8, "n_iterations": 150, "momentum_switch_iter": 50,
             "exaggeration_until_iter": 50},
    "k_folds": 3,
    "classifier_configs": {"rf": {"n_trees": 10}},
    "sensitivity": {"n_trees": 10},
    "grid_resolution": 40,
    "seed": 77,
}


def write_dataset(directory) -> str:
    path = os.path.join(directory, "data.csv")
    write_records_csv(generate_records(n_per_cluster=15, seed=4), path)
    return path


def tiny_config(data_path, out_dir) -> PipelineConfig:
    return config_from_dict({**TINY, "input": data_path, "out": str(out_dir)})


def read_tree(root):
    """Relative path -> bytes for every file under root."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as handle:
                out[os.path.relpath(full, root)] = handle.read()
    return out


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = write_dataset(str(root))
    config = tiny_config(data, root / "out")
    run_pipeline(config)
    return root, data, config


EXPECTED_FILES = [
    "features.csv", "ingest_meta.json", "rejections.txt",
    "embedding.csv", "embedding_meta.json", "eval_report.json",
    "sensitivity.csv", "sensitivity_meta.json",
]


def test_all_artifacts_emitted(tiny_run):
    root, _, config = tiny_run
    out = root / "out"
    for name in EXPECTED_FILES:
        assert (out / name).exists(), name
    for scenario in ("s1", "s2", "s3"):
        for short in ("rf", "svm", "logreg", "knn"):
            assert (out / "models" / f"{scenario}_{short}.json").exists()
            assert (out / "figs" / f"fig_boundary_{scenario}_{short}.svg").exists()
        assert (out / "figs" / f"fig_confusion_{scenario}.svg").exists()
        assert (out / "figs" / f"fig_metrics_{scenario}.svg").exists()
    for name in ("fig_bars_outcome", "fig_bars_difficulty",
                 "fig_embedding_outcome", "fig_embedding_difficulty"):
        assert (out / "figs" / f"{name}.svg").exists()
    for feature in ("temporal_duration", "frequency_onset", "spectral_duration"):
        assert (out / "figs" / f"fig_sensitivity_{feature}.svg").exists()
    assert not (out / "FAILED").exists()


def test_rerun_is_byte_identical(tiny_run, tmp_path):
    root, data, config = tiny_run
    repeat = tiny_config(data, tmp_path / "out")
    run_pipeline(repeat)
    assert read_tree(root / "out") == read_tree(tmp_path / "out")


def test_stagewise_equals_single_shot(tiny_run, tmp_path):
    root, data, _ = tiny_run
    config = tiny_config(data, tmp_path / "out")
    for stage in ("ingest", "embed", "eval", "explain", "render"):
        run_stage(stage, config)
    assert read_tree(root / "out") == read_tree(tmp_path / "out")


def test_provenance_threads_through_artifacts(tiny_run):
    root, _, config = tiny_run
    out = root / "out"
    expected = config.hash()
    for name in ("ingest_meta.json", "embedding_meta.json",
                 "eval_report.json", "sensitivity_meta.json"):
        doc = json.loads((out / name).read_text())
        assert doc["config_hash"] == expected, name
        assert doc["master_seed"] == 77, name
    model = json.loads((out / "models" / "s1_rf.json").read_text())
    assert model["provenance"] == {"config": expected, "seed": 77}
    svg = (out / "figs" / "fig_bars_outcome.svg").read_text()
    assert f"config={expected} seed=77" in svg
    assert (out / "rejections.txt").read_text().startswith(f"# config={expected} seed=77")


def test_embedding_meta_records_kl_checkpoints(tiny_run):
    root, _, _ = tiny_run
    meta = json.loads((root / "out" / "embedding_meta.json").read_text())
    trace = meta["kl_trace"]
    assert [t for t, _ in trace] == [50, 100, 150]
    assert all(isinstance(t, int) and kl > 0.0 for t, kl in trace)
    assert trace[-1][1] == meta["final_kl"]


def test_eval_report_structure(tiny_run):
    root, _, _ = tiny_run
    report = json.loads((root / "out" / "eval_report.json").read_text())
    assert set(report["scenarios"]) == {"s1", "s2", "s3"}
    assert report["classifier_configs"]["random_forest"]["n_trees"] == 10
    for entry in report["scenarios"].values():
        assert set(entry["classifiers"]) == {
            "random_forest", "svm", "logistic_regression", "knn"
        }
        for stats in entry["classifiers"].values():
            assert 0.0 <= stats["cv_accuracy_mean"] <= 1.0
            assert {"accuracy", "precision", "recall", "f1", "confusion"} <= set(stats["holdout"])


def test_hash_ignores_locations_but_not_semantics():
    base = config_from_dict({**TINY, "input": "a.csv", "out": "x"})
    moved = config_from_dict({**TINY, "input": "b.csv", "out": "y"})
    assert base.hash() == moved.hash()
    reweighted = config_from_dict({**TINY, "weights": [2, 1, 1]})
    assert reweighted.hash() != base.hash()


def test_unknown_config_keys_rejected():
    with pytest.raises(UsageError, match="unknown config keys"):
        config_from_dict({"grid": 3})
    with pytest.raises(UsageError, match="tsne"):
        config_from_dict({"tsne": {"iterations": 5}})
    with pytest.raises(UsageError, match="classifier"):
        config_from_dict({"classifier_configs": {"boost": {}}})
    with pytest.raises(UsageError):
        config_from_dict({"classifier_configs": {"rf": {"depth": 1}}})
    with pytest.raises(UsageError):
        config_from_dict({"weights": [1, 2]})
    with pytest.raises(UsageError):
        config_from_dict({"scenarios": ["s9"]})
    with pytest.raises(UsageError):
        config_from_dict({"holdout_fraction": 1.2})


def test_scenario_and_classifier_normalization():
    config = config_from_dict({"scenarios": "s2", "classifiers": ["rf", "knn"]})
    assert config.scenarios == ("s2",)
    assert config.classifiers == ("random_forest", "knn")
    assert config_from_dict({"classifiers": "all"}).classifiers == (
        "random_forest", "svm", "logistic_regression", "knn"
    )


@pytest.mark.parametrize("doc, expected", [
    ({}, "7610e47dcdfae7ae"),
    ({"tsne": {"n_iterations": 500}, "sensitivity": {"n_trees": 10}, "seed": 2024},
     "ac7e93399ebe07af"),
    ({"weights": [2, 1, 1], "scenarios": "s2", "classifiers": ["rf", "knn"],
      "classifier_configs": {"rf": {"n_trees": 5}}, "subsample": 30, "schema": {"id": "ID"},
      "holdout_fraction": 0.25}, "6e473713fe2e6c0f"),
    ({"tsne": {"perplexity": 8, "learning_rate": 100},
      "classifier_configs": {"svm": {"c": 2, "gamma": None}},
      "sensitivity": {"max_depth": None, "combination": "sum_abs"}}, "8bbf314f58ac8314"),
])
def test_config_hash_is_pinned(doc, expected):
    # every artifact records this hash, so a change here changes every artifact
    assert config_from_dict(doc).hash() == expected


@pytest.mark.parametrize("doc", [
    {"tsne": {"seed": 1}},
    {"tsne": {"output_dims": 2}},
    {"sensitivity": {"seed": 1}},
    {"classifier_configs": {"rf": {"task": "classification"}}},
    {"classifier_configs": {"knn": {"seed": 1}}},
])
def test_fields_the_pipeline_sets_are_not_config_keys(doc):
    with pytest.raises(UsageError, match="set by the pipeline"):
        config_from_dict(doc)


def test_readme_config_example_passes_the_schema():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"## Configuration\n.*?```jsonc\n(.*?)```", text, re.S).group(1)
    doc = json.loads(re.sub(r"//.*", "", block))
    config = config_from_dict(doc)
    assert set(doc) == {f.name for f in fields(config)}
    assert set(doc["classifier_configs"]) == set(config.classifiers)


def test_missing_upstream_artifacts_fail_with_marker(tmp_path):
    config = config_from_dict({**TINY, "out": str(tmp_path / "fresh")})
    with pytest.raises(DataError, match="features"):
        run_stage("embed", config)
    marker = tmp_path / "fresh" / "FAILED"
    assert marker.exists()
    assert "stage: embed" in marker.read_text()


def test_missing_embedding_artifact_names_itself(tmp_path, tiny_run):
    root, data, _ = tiny_run
    config = tiny_config(data, tmp_path / "out")
    run_stage("ingest", config)
    with pytest.raises(DataError, match="missing embedding artifact"):
        run_stage("eval", config)
    with pytest.raises(DataError, match="missing embedding artifact"):
        run_stage("explain", config)


def test_failed_marker_cleared_on_success(tmp_path, tiny_run):
    _, data, _ = tiny_run
    config = tiny_config(data, tmp_path / "out")
    with pytest.raises(DataError):
        run_stage("embed", config)
    assert (tmp_path / "out" / "FAILED").exists()
    run_stage("ingest", config)
    assert not (tmp_path / "out" / "FAILED").exists()


def test_features_csv_reads_back_the_records_ingest_wrote(tmp_path):
    """The ChirpRecords read back from features.csv equal, field for field
    and bit for bit, the input records with their features standardized
    and weighted; the feature table holds the same bits."""
    data = write_dataset(str(tmp_path))
    config = config_from_dict({**TINY, "input": data, "out": str(tmp_path / "out"),
                               "weights": [2.0, 0.5, 1.0]})
    run_stage("ingest", config)
    records, _ = load_records(data)
    values = apply_weights(standardize(records_to_matrix(records))[0], config.weights)
    expected = [r._replace(**dict(zip(FEATURE_NAMES, row))) for r, row in zip(records, values.tolist())]
    ids, table, read = _read_features(artifact_paths(config.out)["features"])

    def cells(rows):
        return [[(type(v), v.hex() if isinstance(v, float) else v) for v in row] for row in rows]

    assert all(type(r) is ChirpRecord for r in read)
    assert cells(read) == cells(expected)
    assert ids == [r.id for r in expected]
    assert table.tobytes() == values.tobytes()


def test_records_in_any_row_order_give_the_same_artifacts(tmp_path):
    """A metamorphic relation: the hard cohort (clusters at separation 2)
    in three seeded row orders gives the same artifacts, byte for byte,
    because ingest sorts the records by id before anything reads them."""
    records = generate_records(40, 3, separation=2.0, seed=12)
    runs = []
    for seed in range(3):
        root = tmp_path / f"order{seed}"
        root.mkdir()
        data = str(root / "data.csv")
        write_records_csv([records[i] for i in np.random.default_rng(seed).permutation(120)], data)
        run_pipeline(config_from_dict({"input": data, "seed": 2024, "out": str(root / "out")}))
        runs.append(read_tree(root / "out"))
    assert len(runs[0]) == 45
    for other in runs[1:]:
        assert [name for name in runs[0] if other.get(name) != runs[0][name]] == []


def test_subsample_limits_rows(tmp_path):
    data = write_dataset(str(tmp_path))
    config = config_from_dict({**TINY, "input": data, "out": str(tmp_path / "out"),
                               "subsample": 30})
    run_stage("ingest", config)
    lines = (tmp_path / "out" / "features.csv").read_text().strip().splitlines()
    assert len(lines) == 31  # header + 30 rows
    meta = json.loads((tmp_path / "out" / "ingest_meta.json").read_text())
    assert meta["n_after_subsample"] == 30
    assert meta["n_accepted"] == 45


def test_zero_weights_error_names_the_weighting_step():
    with pytest.raises(UsageError, match="feature weight must be strictly positive"):
        config_from_dict({**TINY, "weights": [0, 0, 0]})


def test_weights_must_not_all_vanish():
    with pytest.raises(UsageError):
        config_from_dict({"weights": [0.0, 0.0, 0.0]})
    with pytest.raises(UsageError):
        config_from_dict({"weights": [-1.0, 1.0, 1.0]})
    config_from_dict({"weights": [0.0, 1.0, 0.0]})  # a single live feature is allowed


def test_ingest_requires_input(tmp_path):
    config = config_from_dict({**TINY, "out": str(tmp_path / "out")})
    with pytest.raises(UsageError, match="input"):
        run_stage("ingest", config)


def test_artifact_paths_shape(tmp_path):
    paths = artifact_paths(str(tmp_path))
    assert paths["features"].endswith("features.csv")
    assert paths["failed"].endswith("FAILED")


def run_stagewise(root, overrides) -> tuple[PipelineConfig, dict[str, set[str]]]:
    """Run every stage in turn into a fresh root/out; the config, and the
    files each stage added, by path relative to root/out."""
    data = write_dataset(str(root))
    config = config_from_dict({**TINY, **overrides, "input": data, "out": str(root / "out")})
    written, before = {}, set()
    for stage in STAGES:
        run_stage(stage.name, config)
        after = {path.replace(os.sep, "/") for path in read_tree(root / "out")}
        written[stage.name], before = after - before, after
    return config, written


@pytest.fixture(scope="module")
def stagewise_defaults(tmp_path_factory):
    return run_stagewise(tmp_path_factory.mktemp("defaults"), {})


@pytest.fixture(scope="module")
def stagewise_subset(tmp_path_factory):
    return run_stagewise(tmp_path_factory.mktemp("subset"),
                         {"scenarios": ["s2"], "classifiers": ["knn", "rf"]})


@pytest.mark.parametrize("run", ["stagewise_defaults", "stagewise_subset"])
def test_each_stage_writes_exactly_what_the_table_declares(request, run):
    config, written = request.getfixturevalue(run)
    n_s, n_k = len(config.scenarios), len(config.classifiers)
    models = {f"models/{s}_{LONG_KIND_NAMES[k]}.json" for s in config.scenarios for k in config.classifiers}
    figs = {path for path in written["render"] if path.startswith("figs/") and path.endswith(".svg")}
    assert len(models) == n_s * n_k
    assert len(figs) == 4 + n_s * n_k + 2 * n_s + 3
    in_dirs = {"eval": models, "render": figs}
    for stage in STAGES:
        files = {name for name, _ in stage.files.values()}
        assert written[stage.name] == files | in_dirs.get(stage.name, set()), stage.name
        assert {path.split("/")[0] for path in in_dirs.get(stage.name, ())} == {
            name for name, _ in stage.dirs.values()}, stage.name


def _load_workloads(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_expects_what_the_stages_write(stagewise_defaults, monkeypatch):
    """perfbench keeps its own list of every stage's artifacts; it must
    name exactly the files those stages write under the default config."""
    _, written = stagewise_defaults
    bench = _load_workloads(monkeypatch)
    assert set(bench.WORKLOADS) == {"pipeline_n120", "embed_eval_n900", "classify_n450"}
    for workload in bench.WORKLOADS.values():
        expected = bench.expected_artifacts(workload.stages)
        assert sorted(expected) == sorted(set().union(*(written[s] for s in workload.stages)))
