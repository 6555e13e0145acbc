import json
import os
import shutil

import pytest

import chirpmap.cli as cli
from chirpmap.errors import NumericError, UsageError
from chirpmap.cli import build_parser, config_from_args, entrypoint


def test_synth_succeeds_and_writes_dataset(tmp_path, capsys):
    code = entrypoint(["synth", "--seed", "5", "--out", str(tmp_path),
                       "--n-per-cluster", "10"])
    assert code == 0
    assert (tmp_path / "synth_data.csv").exists()
    assert "synth" in capsys.readouterr().err


def test_unrecognized_flag_is_usage_error(capsys):
    assert entrypoint(["embed", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_choice_is_usage_error():
    assert entrypoint(["eval", "--scenario", "s9"]) == 1
    assert entrypoint(["eval", "--classifier", "boosting"]) == 1
    assert entrypoint(["frobnicate"]) == 1


def test_missing_input_file_is_data_error(tmp_path, capsys):
    code = entrypoint(["ingest", "--input", str(tmp_path / "absent.csv"),
                       "--out", str(tmp_path / "out")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_ingest_without_input_is_usage_error(tmp_path):
    assert entrypoint(["ingest", "--out", str(tmp_path / "out")]) == 1


def test_zero_weights_exit_code_and_message(tmp_path, capsys):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "8"])
    code = entrypoint(["ingest", "--input", str(tmp_path / "synth_data.csv"),
                       "--out", str(tmp_path / "out"), "--weights", "0,0,0"])
    assert code == 2
    assert "apply_weights" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, cell",
    [("frequency_onset", "abc"), ("temporal_duration", "nan"), ("difficulty", "2.5")],
)
def test_bad_features_cell_is_data_error(tmp_path, capsys, column, cell):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "8"])
    out = tmp_path / "out"
    assert entrypoint(["ingest", "--input", str(tmp_path / "synth_data.csv"), "--out", str(out)]) == 0
    features = out / "features.csv"
    lines = features.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[3].split(",")
    fields[header.index(column)] = cell
    lines[3] = ",".join(fields)
    features.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert entrypoint(["embed", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "features.csv line 4" in err and repr(column) in err and "Traceback" not in err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The out directory of a small pipeline run that went through render."""
    root = tmp_path_factory.mktemp("finished")
    entrypoint(["synth", "--out", str(root), "--n-per-cluster", "15", "--seed", "2"])
    config_path = root / "c.json"
    config_path.write_text(json.dumps({
        "input": str(root / "synth_data.csv"),
        "out": str(root / "out"),
        "tsne": {"perplexity": 8, "n_iterations": 100,
                 "momentum_switch_iter": 40, "exaggeration_until_iter": 40},
        "k_folds": 3,
        "classifier_configs": {"rf": {"n_trees": 5}},
        "sensitivity": {"n_trees": 5},
        "grid_resolution": 25,
    }))
    assert entrypoint(["pipeline", "--config", str(config_path), "--scenario", "s1"]) == 0
    return root / "out"


def corrupt_line_4(run_dir, tmp_path, name, column, cell):
    """A copy of run_dir whose `name` has `cell` in `column` of file line 4;
    cell None drops the column's field instead."""
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    path = out / name
    lines = path.read_text().splitlines()
    at = lines[0].split(",").index(column)
    fields = lines[3].split(",")
    if cell is None:
        del fields[at]
    else:
        fields[at] = cell
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return out


@pytest.mark.parametrize("stage", ["eval", "render"])
@pytest.mark.parametrize(
    "column, cell, message",
    [("tsne_x", "abc", "'tsne_x'"), ("tsne_y", "nan", "'tsne_y'"),
     ("tsne_y", "-inf", "'tsne_y'"), ("tsne_y", None, "expected 3 fields, got 2")],
)
def test_bad_embedding_cell_is_data_error(tmp_path, capsys, finished_run, stage, column, cell,
                                          message):
    out = corrupt_line_4(finished_run, tmp_path, "embedding.csv", column, cell)
    capsys.readouterr()
    assert entrypoint([stage, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "embedding.csv line 4" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "column, cell, message",
    [("phi_x", "abc", "'phi_x'"), ("combined", "nan", "'combined'"),
     ("phi_y", None, "expected 5 fields, got 4")],
)
def test_bad_sensitivity_cell_is_data_error(tmp_path, capsys, finished_run, column, cell, message):
    out = corrupt_line_4(finished_run, tmp_path, "sensitivity.csv", column, cell)
    capsys.readouterr()
    assert entrypoint(["render", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sensitivity.csv line 4" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [(lambda meta: "{nope", "is not valid JSON"),
     (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "feature_names"}),
      "has no feature_names list"),
     (lambda meta: json.dumps({**meta, "feature_names": "temporal_duration"}),
      "has no feature_names list"),
     (lambda meta: json.dumps([meta]), "is not a JSON object"),
     (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "base_y"}),
      "is missing base_y")],
    ids=["bad-json", "no-feature-names", "feature-names-not-a-list", "not-an-object",
         "no-base-y"],
)
def test_malformed_sensitivity_meta_is_data_error(tmp_path, capsys, finished_run, edit, message):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    path = out / "sensitivity_meta.json"
    path.write_text(edit(json.loads(path.read_text())))
    capsys.readouterr()
    assert entrypoint(["render", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sensitivity_meta.json" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [(lambda lines: lines + [lines[1]], "has feature 'temporal_duration' twice"),
     (lambda lines: lines + [lines[1].replace("temporal_duration", "not_a_feature")],
      "has unknown feature 'not_a_feature'")],
    ids=["duplicate-row", "unknown-feature"],
)
def test_inconsistent_sensitivity_rows_are_data_error(tmp_path, capsys, finished_run, edit,
                                                      message):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    path = out / "sensitivity.csv"
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[1] == "temporal_duration"
    path.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    assert entrypoint(["render", "--out", str(out), "--scenario", "s1"]) == 2
    err = capsys.readouterr().err
    assert "sensitivity.csv" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, argv",
    [("eval_report.json", ["render"]), ("models/s1_knn.json", ["render"]),
     ("sensitivity.csv", ["render"]), ("sensitivity_meta.json", ["render"]),
     ("features.csv", ["embed"]), ("embedding.csv", ["eval"]),
     ("in.csv", ["ingest", "--input"])],
    ids=["eval-report", "model", "sensitivity", "sensitivity-meta", "features", "embedding",
         "ingest-input"],
)
def test_non_utf8_artifact_is_data_error(tmp_path, capsys, finished_run, name, argv):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    path = out / name
    path.write_bytes(b"\xff\xfe\x7b")
    if argv[-1] == "--input":
        argv = argv + [str(path)]
    capsys.readouterr()
    code = entrypoint(argv + ["--out", str(out), "--scenario", "s1", "--classifier", "knn"])
    err = capsys.readouterr().err
    assert code == 2
    assert name.split("/")[-1] + " is not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "short, path, value",
    [("rf", ("parameters", "trees", 0, "threshold", 0), float("nan")),
     ("rf", ("parameters", "trees", 0, "threshold", 0), float("inf")),
     ("knn", ("parameters", "x", 3, 1), float("nan")),
     ("svm", ("parameters", "alpha", 0), float("nan")),
     ("logreg", ("parameters", "w", 0), float("-inf")),
     ("logreg", ("parameters", "b"), float("nan"))],
    ids=["rf-threshold-nan", "rf-threshold-inf", "knn-x-nan", "svm-alpha-nan", "logreg-w-inf",
         "logreg-b-nan"],
)
def test_non_finite_model_parameter_is_data_error(tmp_path, capsys, finished_run, short, path,
                                                  value):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    model_file = out / "models" / f"s1_{short}.json"
    doc = json.loads(model_file.read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    model_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert entrypoint(["render", "--out", str(out), "--scenario", "s1"]) == 2
    err = capsys.readouterr().err
    assert f"s1_{short}.json" in err and "not finite" in err and "Traceback" not in err


def without(*keys):
    """An edit that deletes report[keys[0]]...[keys[-1]]."""
    def edit(report):
        doc = report
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
        return report
    return edit


KNN_S1 = ("scenarios", "s1", "classifiers", "knn")


@pytest.mark.parametrize(
    "edit, scenario, message",
    [(lambda report: [1], "s1", "is not a JSON object"),
     (lambda report: {}, "s1", "has no scenarios"),
     (lambda report: report, "s2", "has no scenarios.s2"),
     (without(*KNN_S1, "cv_accuracy_mean"), "s1",
      "has no scenarios.s1.classifiers.knn.cv_accuracy_mean"),
     (without(*KNN_S1, "holdout", "confusion"), "s1",
      "has no scenarios.s1.classifiers.knn.holdout.confusion"),
     (without(*KNN_S1, "holdout", "f1"), "s1", "has no scenarios.s1.classifiers.knn.holdout.f1")],
    ids=["list", "empty", "no-s2", "no-cv-accuracy", "no-confusion", "no-f1"],
)
def test_malformed_eval_report_is_data_error_before_any_figure(tmp_path, capsys, finished_run,
                                                               edit, scenario, message):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    shutil.rmtree(out / "figs")
    path = out / "eval_report.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    code = entrypoint(["render", "--out", str(out), "--scenario", scenario, "--classifier", "knn"])
    err = capsys.readouterr().err
    assert code == 2
    assert "eval_report.json " + message in err and "Traceback" not in err
    assert not (out / "figs").exists()


def test_malformed_weights_is_usage_error():
    assert entrypoint(["ingest", "--weights", "a,b,c", "--input", "x.csv"]) == 1
    assert entrypoint(["ingest", "--weights", "1,2", "--input", "x.csv"]) == 1


def test_numeric_failures_map_to_exit_3(monkeypatch, capsys):
    def boom(name, config):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli, "run_stage", boom)
    assert entrypoint(["embed", "--out", "unused"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_config_file_round_trip(tmp_path):
    doc = {"seed": 9, "weights": [2, 1, 1], "scenarios": ["s1"],
           "classifiers": ["knn"], "grid_resolution": 50}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    args = build_parser().parse_args(["eval", "--config", str(path)])
    config = config_from_args(args)
    assert config.seed == 9
    assert config.weights == (2.0, 1.0, 1.0)
    assert config.scenarios == ("s1",)
    assert config.classifiers == ("knn",)


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 9, "out": "from_file"}))
    args = build_parser().parse_args(
        ["eval", "--config", str(path), "--seed", "13", "--scenario", "s3",
         "--classifier", "logreg", "--weights", "1,2,1"]
    )
    config = config_from_args(args)
    assert config.seed == 13
    assert config.out == "from_file"
    assert config.scenarios == ("s3",)
    assert config.classifiers == ("logistic_regression",)
    assert config.weights == (1.0, 2.0, 1.0)


def test_invalid_config_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    assert entrypoint(["eval", "--config", str(bad)]) == 1
    assert entrypoint(["eval", "--config", str(tmp_path / "missing.json")]) == 1
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert entrypoint(["eval", "--config", str(listy)]) == 1
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x7b")
    capsys.readouterr()
    assert entrypoint(["eval", "--config", str(binary)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "binary.json is not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("command, doc", [
    ("eval", {"subsample": "abc"}),
    ("eval", {"k_folds": None}),
    ("eval", {"grid_resolution": [3]}),
    ("eval", {"holdout_fraction": "most"}),
    ("eval", {"seed": {"a": 1}}),
    ("eval", {"classifier_configs": [1]}),
    ("eval", {"classifier_configs": {"rf": {"max_depth": "x"}}}),
    ("embed", {"tsne": {"perplexity": "x"}}),
    ("embed", {"tsne": {"n_iterations": 100.5}}),
    ("embed", {"tsne": {"learning_rate": True}}),
    ("embed", {"tsne": [1]}),
    ("explain", {"sensitivity": {"n_trees": "many"}}),
    ("explain", {"sensitivity": {"max_depth": "deep"}}),
    ("explain", {"sensitivity": {"combination": 3}}),
    ("eval", {"classifier_configs": {"rf": {"task": "regression"}}}),
    ("eval", {"classifier_configs": {"knn": {"k": 2.5}}}),
    ("eval", {"classifier_configs": {"rf": {"n_trees": 5.5}}}),
    ("eval", {"classifier_configs": {"rf": {"seed": 5}}}),
    ("explain", {"sensitivity": {"n_trees": 5.7}}),
    ("eval", {"k_folds": 3.9}),
    ("eval", {"k_folds": "5"}),
    ("explain", {"sensitivity": {"combination": "foo"}}),
    ("eval", {"weights": ["2", True, 1]}),
])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**doc, "out": str(tmp_path / "out")}))
    assert entrypoint([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


@pytest.mark.parametrize("tsne", [
    {"learning_rate": -1},
    {"perplexity": 0},
    {"momentum_late": 1.0},
    {"exaggeration_factor": 0.5},
    {"n_iterations": 0},
    {"n_iterations": 100},
    {"learning_rate": float("nan")},
    {"exaggeration_factor": float("inf")},
    {"perplexity": float("inf")},
    {"momentum_early": float("nan")},
])
def test_tsne_setting_out_of_range_fails_before_ingest_writes(tmp_path, capsys, tsne):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "10"])
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"input": str(tmp_path / "synth_data.csv"),
                                "out": str(tmp_path / "out"), "tsne": {"perplexity": 5, **tsne}}))
    capsys.readouterr()
    assert entrypoint(["pipeline", "--config", str(path)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, flags", [
    ({"classifier_configs": {"logreg": {"l2_lambda": float("nan")}}}, []),
    ({"classifier_configs": {"logreg": {"l2_lambda": float("inf")}}}, []),
    ({"classifier_configs": {"logreg": {"tol": float("nan")}}}, []),
    ({"classifier_configs": {"svm": {"c": float("nan")}}}, []),
    ({"classifier_configs": {"svm": {"c": float("inf")}}}, []),
    ({"classifier_configs": {"svm": {"gamma": float("nan")}}}, []),
    ({"classifier_configs": {"svm": {"c": 10 ** 400}}}, []),
    ({"weights": [float("nan"), 1, 1]}, []),
    ({}, ["--weights", "nan,1,1"]),
    ({}, ["--weights", "inf,1,1"]),
])
def test_non_finite_config_value_fails_before_ingest_writes(tmp_path, capsys, doc, flags):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "10"])
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"input": str(tmp_path / "synth_data.csv"),
                                "out": str(tmp_path / "out"), "tsne": {"perplexity": 5}, **doc}))
    capsys.readouterr()
    assert entrypoint(["pipeline", "--config", str(path), "--scenario", "s1", *flags]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cells, flags", [
    (("1e308", "1.5e308"), []),  # the mean overflows
    (("1e200",), []),  # the sd overflows, which would zero the column
    ((), ["--weights", "1e308,1,1"]),
])
def test_overflowing_features_are_data_error_with_nothing_written(tmp_path, capsys, recwarn,
                                                                   cells, flags):
    column = "temporal_duration"
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "10"])
    data = tmp_path / "synth_data.csv"
    lines = data.read_text().splitlines()
    index = lines[0].split(",").index(column)
    for row, cell in enumerate(cells, start=1):
        fields = lines[row].split(",")
        fields[index] = cell
        lines[row] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert entrypoint(["ingest", "--input", str(data), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and column in err and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert os.listdir(out) == ["FAILED"]


def test_duplicate_input_id_is_rejected_at_ingest(tmp_path, capsys):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "10"])
    data = tmp_path / "synth_data.csv"
    lines = data.read_text().splitlines()
    first_id = lines[1].split(",")[0]
    fields = lines[3].split(",")
    fields[0] = first_id
    lines[3] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert entrypoint(["ingest", "--input", str(data), "--out", str(out)]) == 0
    rejections = (out / "rejections.txt").read_text().splitlines()
    assert rejections[1:] == ["row 3: duplicate id (first at row 1)"]
    ids = [line.split(",")[0] for line in (out / "features.csv").read_text().splitlines()[1:]]
    assert len(ids) == 29 and len(set(ids)) == 29
    assert json.loads((out / "ingest_meta.json").read_text())["n_rejected"] == 1


def test_duplicate_features_id_is_data_error(tmp_path, capsys):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "8"])
    out = tmp_path / "out"
    assert entrypoint(["ingest", "--input", str(tmp_path / "synth_data.csv"), "--out", str(out)]) == 0
    features = out / "features.csv"
    lines = features.read_text().splitlines()
    repeated = lines[2].split(",")[0]
    fields = lines[5].split(",")
    fields[0] = repeated
    lines[5] = ",".join(fields)
    features.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert entrypoint(["embed", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"features.csv line 6: duplicate id {repeated!r} (first at line 3)" in err
    assert "Traceback" not in err
    assert not (out / "embedding.csv").exists()


def test_perplexity_above_n_minus_1_is_data_error(tmp_path, capsys):
    # 120 records give each row 119 neighbours, the most perplexity it can reach
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "40"])
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "input": str(tmp_path / "synth_data.csv"), "out": str(tmp_path / "out"),
        "tsne": {"perplexity": 119.5, "n_iterations": 60,
                 "momentum_switch_iter": 30, "exaggeration_until_iter": 30},
        "k_folds": 3, "classifier_configs": {"rf": {"n_trees": 5}},
        "sensitivity": {"n_trees": 5}, "grid_resolution": 10,
    }))
    capsys.readouterr()
    assert entrypoint(["pipeline", "--config", str(path), "--scenario", "s1"]) == 2
    err = capsys.readouterr().err
    assert "perplexity 119.5 exceeds 119" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "embedding.csv").exists()


@pytest.mark.parametrize("weight", ["1e100", "1e150", "1e-160"])
def test_unreachable_perplexity_is_numeric_failure(tmp_path, capsys, weight):
    # squared distances near 1e200 leave only the nearest neighbour at any
    # beta in [1e-20, 1e20] (perplexity 1), and near 1e300 beta * d^2
    # overflows at the top of the range; near 1e-320 they leave every row
    # uniform (perplexity 119): none reaches the default 30
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "40"])
    out = tmp_path / "out"
    weights = ["--weights", ",".join([weight] * 3)]
    assert entrypoint(["ingest", "--input", str(tmp_path / "synth_data.csv"),
                       "--out", str(out), *weights]) == 0
    capsys.readouterr()
    assert entrypoint(["embed", "--out", str(out), *weights]) == 3
    err = capsys.readouterr().err
    assert "perplexity unreachable at row 0" in err and "Traceback" not in err
    assert not (out / "embedding.csv").exists()


def test_input_with_a_byte_order_mark_ingests_like_one_without(tmp_path):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "10"])
    plain = tmp_path / "synth_data.csv"
    marked_dir = tmp_path / "marked"
    marked_dir.mkdir()
    marked = marked_dir / "synth_data.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for source, out in ((plain, "out_plain"), (marked, "out_marked")):
        assert entrypoint(["ingest", "--input", str(source), "--out", str(tmp_path / out)]) == 0
    for name in ("features.csv", "rejections.txt", "ingest_meta.json"):
        written = (tmp_path / "out_marked" / name).read_bytes()
        assert written == (tmp_path / "out_plain" / name).read_bytes()
        assert not written.startswith(b"\xef\xbb\xbf")


def test_scenario_selection_narrows_outputs(tmp_path):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "15", "--seed", "2"])
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "input": str(tmp_path / "synth_data.csv"),
        "out": str(tmp_path / "out"),
        "tsne": {"perplexity": 8, "n_iterations": 100,
                 "momentum_switch_iter": 40, "exaggeration_until_iter": 40},
        "k_folds": 3,
        "classifier_configs": {"rf": {"n_trees": 5}},
        "sensitivity": {"n_trees": 5},
        "grid_resolution": 25,
    }))
    code = entrypoint(["pipeline", "--config", str(config_path),
                       "--scenario", "s2", "--classifier", "knn"])
    assert code == 0
    figs = sorted(os.listdir(tmp_path / "out" / "figs"))
    assert "fig_boundary_s2_knn.svg" in figs
    assert not any("s1" in f or "s3" in f for f in figs)
    assert not any("_rf" in f or "_svm" in f or "_logreg" in f for f in figs)
    report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
    assert list(report["scenarios"]) == ["s2"]
    assert list(report["scenarios"]["s2"]["classifiers"]) == ["knn"]


def test_parser_rejects_via_usage_error_not_exit():
    with pytest.raises(UsageError):
        build_parser().parse_args(["eval", "--scenario", "nope"])
