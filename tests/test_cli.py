import dataclasses
import json
import math
import os
import shutil

import pytest

import chirpmap.cli as cli
import chirpmap.pipeline
from chirpmap.errors import NumericError, UsageError
from chirpmap.cli import build_parser, config_from_args, entrypoint


def test_synth_succeeds_and_writes_dataset(tmp_path, capsys):
    code = entrypoint(["synth", "--seed", "5", "--out", str(tmp_path),
                       "--n-per-cluster", "10"])
    assert code == 0
    assert (tmp_path / "synth_data.csv").exists()
    assert "synth" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--separation", "nan"], ["--separation", "inf"]])
def test_unusable_synth_argument_is_data_error(tmp_path, capsys, flags):
    assert entrypoint(["synth", "--out", str(tmp_path / "out")] + flags) == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "pipeline"])
@pytest.mark.parametrize("below", [False, True])
def test_out_path_through_a_file_is_data_error(tmp_path, capsys, command, below):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "8"])
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    out = afile / "sub" if below else afile
    argv = [command, "--out", str(out)]
    if command == "pipeline":
        argv += ["--input", str(tmp_path / "synth_data.csv")]
    assert entrypoint(argv) == 2
    assert str(out) in capsys.readouterr().err
    assert afile.read_text() == "keep\n"


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
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "at least one feature weight must be strictly positive" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "column, cell",
    [("frequency_onset", "abc"), ("temporal_duration", "nan"), ("difficulty", "2.5"),
     pytest.param("difficulty", "9" * 400, id="difficulty-past-the-float-range"),
     pytest.param("outcome", "X", id="unknown-outcome-code"),
     pytest.param("difficulty", "7", id="difficulty-out-of-range")],
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


def spread_tsne_x(run_dir, tmp_path, value):
    """A copy of run_dir whose embedding has tsne_x = value on its first
    row and -value on its second."""
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    path = out / "embedding.csv"
    lines = path.read_text().splitlines()
    at = lines[0].split(",").index("tsne_x")
    for line, cell in ((1, value), (2, f"-{value}")):
        fields = lines[line].split(",")
        fields[at] = cell
        lines[line] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return out


@pytest.mark.parametrize("value", ["1.7e308", "8.5e307", "1e200"],
                         ids=["span-overflows", "padding-overflows", "squares-overflow"])
@pytest.mark.parametrize("flags", [["--classifier", "rf"], []], ids=["rf", "every-classifier"])
def test_embedding_window_that_overflows_is_data_error_before_any_figure(tmp_path, capsys,
                                                                        finished_run, value, flags):
    out = spread_tsne_x(finished_run, tmp_path, value)
    figures = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in (out / "figs").iterdir()}
    capsys.readouterr()
    assert entrypoint(["render", "--out", str(out), "--scenario", "s1", *flags]) == 2
    err = capsys.readouterr().err
    assert "padded bounding box overflows" in err and "Traceback" not in err
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in (out / "figs").iterdir()} == figures


def output_snapshot(out):
    """Relative path -> (bytes, mtime) of every file under out."""
    return {str(p.relative_to(out)): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("value", ["1.7e308", "8.5e307", "1e200"],
                         ids=["span-overflows", "padding-overflows", "squares-overflow"])
@pytest.mark.parametrize("stage", ["eval", "explain"])
def test_embedding_window_that_overflows_is_refused_before_any_fit(tmp_path, capsys, recwarn,
                                                                  finished_run, stage, value):
    """Eval and explain read the embedding through the reader render uses,
    so they refuse the embedding render cannot draw before fitting on it."""
    out = spread_tsne_x(finished_run, tmp_path, value)
    before = output_snapshot(out)
    capsys.readouterr()
    assert entrypoint([stage, "--out", str(out), "--scenario", "s1"]) == 2
    err = capsys.readouterr().err
    assert "padded bounding box overflows" in err and "embedding.csv" in err
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    after = output_snapshot(out)
    assert after.pop("FAILED")[0].startswith(f"stage: {stage}\n".encode())
    assert after == before


@pytest.mark.parametrize("scale", [1e6, 1e150])
def test_explain_attributes_a_rescaled_embedding(tmp_path, capsys, finished_run, scale):
    """Rescaling a valid embedding rescales every attribution, so explain
    holds the efficiency gap to a bound that scales with the values."""
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    path = out / "embedding.csv"
    header, *rows = path.read_text().splitlines()
    at = [header.split(",").index(name) for name in ("tsne_x", "tsne_y")]
    scaled = []
    for row in rows:
        fields = row.split(",")
        for i in at:
            fields[i] = repr(float(fields[i]) * scale)
        scaled.append(",".join(fields))
    path.write_text("\n".join([header, *scaled]) + "\n")
    capsys.readouterr()
    assert entrypoint(["explain", "--out", str(out)]) == 0, capsys.readouterr().err
    header, *rows = (out / "sensitivity.csv").read_text().splitlines()
    cells = [float(cell) for row in rows for cell in row.split(",")[2:]]
    assert len(cells) == 45 * 3 * 3  # a line per record and feature: phi_x, phi_y, combined
    assert all(math.isfinite(cell) for cell in cells)
    assert max(abs(cell) for cell in cells) > scale


def non_finite_svm(monkeypatch):
    """Make eval's s1 SVM carry a NaN intercept."""
    run_all_scenarios = chirpmap.pipeline.run_all_scenarios

    def patched(*args, **kwargs):
        report, models = run_all_scenarios(*args, **kwargs)
        models["s1", "svm"] = dataclasses.replace(models["s1", "svm"], b=float("nan"))
        return report, models

    monkeypatch.setattr(chirpmap.pipeline, "run_all_scenarios", patched)


def non_finite_base(monkeypatch):
    """Make explain's sensitivity map carry a NaN base value."""
    build_sensitivity_map = chirpmap.pipeline.build_sensitivity_map
    monkeypatch.setattr(chirpmap.pipeline, "build_sensitivity_map", lambda *args: dataclasses.replace(
        build_sensitivity_map(*args), base_x=float("nan")))


@pytest.mark.parametrize("stage, written", [("eval", "s1_svm.json"), ("explain", "sensitivity_meta.json")])
def test_non_finite_result_is_data_error_not_a_json_token(tmp_path, capsys, monkeypatch, finished_run,
                                                          stage, written):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    {"eval": non_finite_svm, "explain": non_finite_base}[stage](monkeypatch)
    capsys.readouterr()
    assert entrypoint([stage, "--out", str(out), "--scenario", "s1"]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err and written in err and "not JSON compliant" in err
    assert "Traceback" not in err
    for path in out.rglob("*.json"):
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text, path


def test_explain_refused_for_a_non_finite_result_leaves_its_outputs_untouched(
        tmp_path, capsys, monkeypatch, finished_run):
    """Explain checks its sidecar and table before writing either, so the
    previous sensitivity.csv and sensitivity_meta.json keep their bytes
    and mtimes."""
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    non_finite_base(monkeypatch)
    names = ("sensitivity.csv", "sensitivity_meta.json")
    before = {name: ((out / name).read_bytes(), (out / name).stat().st_mtime_ns) for name in names}
    capsys.readouterr()
    assert entrypoint(["explain", "--out", str(out), "--scenario", "s1"]) == 2
    assert "not JSON compliant" in capsys.readouterr().err
    assert {name: ((out / name).read_bytes(), (out / name).stat().st_mtime_ns)
            for name in names} == before


def test_eval_writes_its_report_after_its_models(tmp_path, capsys, finished_run):
    """A model file eval cannot write leaves the previous eval_report.json
    as it was, not a new report beside old models."""
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    blocked = out / "models" / "s1_svm.json"
    blocked.unlink()
    blocked.mkdir()
    report = out / "eval_report.json"
    before = (report.read_bytes(), report.stat().st_mtime_ns)
    capsys.readouterr()
    assert entrypoint(["eval", "--out", str(out), "--scenario", "s1"]) == 2
    assert f"cannot write {blocked}" in capsys.readouterr().err
    assert (report.read_bytes(), report.stat().st_mtime_ns) == before


def test_failed_marker_stops_later_stages_until_its_stage_succeeds(tmp_path, capsys, finished_run):
    """After a failed embed, render refuses to run and keeps the marker and
    the old figures; a successful embed then removes the marker."""
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"out": str(out), "tsne": {"perplexity": 100}}))
    assert entrypoint(["embed", "--config", str(config)]) == 2
    marker = (out / "FAILED").read_bytes()
    assert marker.startswith(b"stage: embed\n")
    figures = output_snapshot(out / "figs")
    capsys.readouterr()
    assert entrypoint(["render", "--out", str(out), "--scenario", "s1"]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'FAILED'}: the embed stage failed" in err and "Traceback" not in err
    assert (out / "FAILED").read_bytes() == marker
    assert output_snapshot(out / "figs") == figures
    assert entrypoint(["embed", "--out", str(out)]) == 0
    assert not (out / "FAILED").exists()


def test_failed_eval_stops_render_but_not_explain(tmp_path, capsys, finished_run):
    """A FAILED marker stops only the stages that read the failed stage's
    outputs: explain reads features.csv and embedding.csv, render reads
    eval's. Each failed stage keeps its own entry until it, or a stage
    it reads from, succeeds."""
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    blocked = out / "models" / "s1_svm.json"
    blocked.unlink()
    blocked.mkdir()
    assert entrypoint(["eval", "--out", str(out), "--scenario", "s1"]) == 2
    marker = (out / "FAILED").read_bytes()
    assert marker.startswith(b"stage: eval\n")
    capsys.readouterr()
    assert entrypoint(["explain", "--out", str(out), "--scenario", "s1"]) == 0
    assert (out / "FAILED").read_bytes() == marker
    assert entrypoint(["render", "--out", str(out), "--scenario", "s1"]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'FAILED'}: the eval stage failed" in err and "Traceback" not in err
    assert (out / "FAILED").read_bytes() == marker

    table = out / "sensitivity.csv"
    table.unlink()
    table.mkdir()
    assert entrypoint(["explain", "--out", str(out), "--scenario", "s1"]) == 2
    both = (out / "FAILED").read_bytes()
    assert both.startswith(marker) and b"\nstage: explain\ncause: " in both
    table.rmdir()
    assert entrypoint(["explain", "--out", str(out), "--scenario", "s1"]) == 0
    assert (out / "FAILED").read_bytes() == marker
    blocked.rmdir()
    assert entrypoint(["eval", "--out", str(out), "--scenario", "s1"]) == 0
    assert not (out / "FAILED").exists()
    assert entrypoint(["render", "--out", str(out), "--scenario", "s1"]) == 0


def test_failed_marker_naming_no_stage_is_data_error(tmp_path, capsys, finished_run):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    (out / "FAILED").write_text("stage: frobnicate\ncause: unknown\n")
    capsys.readouterr()
    assert entrypoint(["render", "--out", str(out), "--scenario", "s1"]) == 2
    assert f"{out / 'FAILED'} names no stage of ingest, embed, eval, explain, render" in capsys.readouterr().err


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
      "has no feature_names"),
     (lambda meta: json.dumps({**meta, "feature_names": "temporal_duration"}),
      "has feature_names = 'temporal_duration', not a list of strings"),
     (lambda meta: json.dumps([meta]), "is not a JSON object"),
     (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "base_y"}),
      "has no base_y"),
     (lambda meta: json.dumps({**meta, "feature_names": [meta["feature_names"]]}),
      "not a list of strings"),
     (lambda meta: json.dumps({**meta, "feature_names": meta["feature_names"][:-1] + [{}]}),
      "not a list of strings"),
     (lambda meta: json.dumps({**meta, "feature_names": meta["feature_names"] + ["temporal_duration"]}),
      "not ['temporal_duration', 'frequency_onset', 'spectral_duration']")],
    ids=["bad-json", "no-feature-names", "feature-names-not-a-list", "not-an-object",
         "no-base-y", "feature-name-a-list", "feature-name-an-object", "feature-name-repeated"],
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
    [(lambda lines: lines + [lines[1]],
      "line {end} holds record {first} feature 'temporal_duration', not the end of the table"),
     (lambda lines: lines + [lines[1].replace("temporal_duration", "not_a_feature")],
      "line {end} holds record {first} feature 'not_a_feature', not the end of the table"),
     (lambda lines: lines[:1] + lines[4:7] + lines[1:4] + lines[7:],
      "line 2 holds record {second} feature 'temporal_duration', "
      "not record {first} feature 'temporal_duration'")],
    ids=["duplicate-row", "unknown-feature", "records-swapped"],
)
def test_inconsistent_sensitivity_rows_are_data_error(tmp_path, capsys, finished_run, edit,
                                                      message):
    """Render names the first line whose (id, feature) is not the one
    explain writes there: each embedding id in turn, with the features in
    order."""
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    path = out / "sensitivity.csv"
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[1] == "temporal_duration"
    assert lines[4].split(",")[1] == "temporal_duration"
    path.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    assert entrypoint(["render", "--out", str(out), "--scenario", "s1"]) == 2
    err = capsys.readouterr().err
    message = message.format(end=len(lines) + 1, first=repr(lines[1].split(",")[0]),
                             second=repr(lines[4].split(",")[0]))
    assert f"sensitivity.csv {message}" in err and "Traceback" not in err


def test_embedding_rows_out_of_features_order_are_data_error(tmp_path, capsys, finished_run):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    path = out / "embedding.csv"
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert entrypoint(["eval", "--out", str(out), "--scenario", "s1"]) == 2
    err = capsys.readouterr().err
    assert "embedding rows do not match features.csv rows" in err and "Traceback" not in err


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
    assert f"s1_{short}.json" in err and "finite number" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [(lambda config, p: config.update(k=len(p["x"]) + 1), "exceeds training size"),
     (lambda config, p: p.update(y=p["y"][:-1]), "one per training row"),
     (lambda config, p: p.update(x=[], y=[]), "nonempty 2-D array"),
     (lambda config, p: p.update(y=[-1] + p["y"][1:]), "labels must be nonnegative"),
     (lambda config, p: p.update(y=[1.5] + p["y"][1:]), "not a list of integers"),
     (lambda config, p: config.update(k=2.5), "config.k = 2.5, not an integer"),
     (lambda config, p: config.update(k=True), "config.k = True, not an integer")],
    ids=["k-above-rows", "labels-short", "no-rows", "negative-label", "fractional-label",
         "fractional-k", "bool-k"],
)
def test_malformed_knn_model_is_data_error(tmp_path, capsys, finished_run, edit, message):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    model_file = out / "models" / "s1_knn.json"
    doc = json.loads(model_file.read_text())
    edit(doc["config"], doc["parameters"])
    model_file.write_text(json.dumps(doc))
    capsys.readouterr()
    code = entrypoint(["render", "--out", str(out), "--scenario", "s1", "--classifier", "knn"])
    err = capsys.readouterr().err
    assert code == 2
    assert "s1_knn.json" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "short, path",
    [("knn", ("parameters", "y", 0)),
     ("rf", ("parameters", "trees", 0, "right", 0)),
     ("rf", ("parameters", "trees", 0, "counts", 0, 0))],
    ids=["knn-label", "rf-child", "rf-count"],
)
def test_model_integer_beyond_int64_is_data_error(tmp_path, capsys, finished_run, short, path):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    model_file = out / "models" / f"s1_{short}.json"
    doc = json.loads(model_file.read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 10**30
    model_file.write_text(json.dumps(doc))
    capsys.readouterr()
    code = entrypoint(["render", "--out", str(out), "--scenario", "s1", "--classifier", short])
    err = capsys.readouterr().err
    assert code == 2
    assert f"s1_{short}.json" in err and "Traceback" not in err


def _rows_widened(p):
    p["x"] = [row + [0.0] for row in p["x"]]


@pytest.mark.parametrize(
    "short, edit, message",
    [("svm", lambda p: p.update(alpha=p["alpha"][:-1]), "one per training row"),
     ("svm", lambda p: p.update(y_signed=p["y_signed"][1:]), "one per training row"),
     ("svm", lambda p: p.update(x=[], y_signed=[], alpha=[]), "nonempty 2-D array"),
     ("svm", lambda p: p.update(x=[v for row in p["x"] for v in row][:len(p["alpha"])]),
      "not a list of lists of finite numbers"),
     ("svm", lambda p: p.update(y_signed=[0.5] + p["y_signed"][1:]), "-1 or +1"),
     ("svm", lambda p: p.update(alpha=[-1.0] + p["alpha"][1:]), "nonnegative"),
     ("svm", lambda p: p.update(gamma_value=-0.5), "gamma must be nonnegative"),
     ("svm", _rows_widened, "expected 3 features, got 2"),
     ("logreg", lambda p: p.update(w=[p["w"]]), "not a list of finite numbers"),
     ("logreg", lambda p: p.update(w=p["w"] + [1.0]), "expected 3 features, got 2")],
    ids=["svm-alpha-short", "svm-labels-short", "svm-no-rows", "svm-flat-x", "svm-label-half",
         "svm-negative-alpha", "svm-negative-gamma", "svm-three-features", "logreg-2d-w",
         "logreg-three-weights"],
)
def test_malformed_svm_or_logistic_model_is_data_error(tmp_path, capsys, finished_run, short,
                                                       edit, message):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    model_file = out / "models" / f"s1_{short}.json"
    doc = json.loads(model_file.read_text())
    edit(doc["parameters"])
    model_file.write_text(json.dumps(doc))
    capsys.readouterr()
    code = entrypoint(["render", "--out", str(out), "--scenario", "s1", "--classifier", short])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


def without(*keys):
    """An edit that deletes report[keys[0]]...[keys[-1]]."""
    def edit(report):
        doc = report
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
        return report
    return edit


def replaced(value, *keys):
    """An edit that sets report[keys[0]]...[keys[-1]] to value."""
    def edit(report):
        doc = report
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
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
     (without(*KNN_S1, "holdout", "f1"), "s1", "has no scenarios.s1.classifiers.knn.holdout.f1"),
     (replaced("high", *KNN_S1, "cv_accuracy_mean"), "s1",
      "has scenarios.s1.classifiers.knn.cv_accuracy_mean = 'high', not a number in [0, 1]"),
     (replaced("7", *KNN_S1, "holdout", "confusion", "tp"), "s1",
      "has scenarios.s1.classifiers.knn.holdout.confusion.tp = '7', not a nonnegative integer"),
     (replaced(True, *KNN_S1, "holdout", "confusion", "fn"), "s1",
      "has scenarios.s1.classifiers.knn.holdout.confusion.fn = True, not a nonnegative integer"),
     (replaced(float("nan"), *KNN_S1, "holdout", "precision"), "s1",
      "has scenarios.s1.classifiers.knn.holdout.precision = nan, not a number in [0, 1]")],
    ids=["list", "empty", "no-s2", "no-cv-accuracy", "no-confusion", "no-f1", "text-accuracy",
         "text-count", "bool-count", "nan-precision"],
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


@pytest.mark.parametrize("doc, message", [
    ({"sensitivity": {"n_trees": 0}}, "n_trees must be positive"),
    ({"sensitivity": {"max_depth": -1}}, "max_depth must be nonnegative"),
    ({"classifiers": []}, "classifiers must name at least one classifier"),
    ({"scenarios": []}, "scenarios must name at least one scenario"),
    ({"scenarios": 5}, "scenarios must be a name, a list of names or all"),
    ({"classifiers": {"knn": 1}}, "classifiers must be a name, a list of names or all"),
    ({"scenarios": ["s1", "S1"]}, "scenarios lists 's1' twice"),
    ({"classifiers": ["knn", "rf", "random_forest"]}, "classifiers lists 'random_forest' twice"),
    ({"schema": {"idx": "ID"}}, "schema maps unknown canonical columns: ['idx']"),
    ({"schema": {"id": ["a"]}}, "schema = {'id': ['a']}, not an object of strings or null"),
    ({"weights": [0, 0, 0]}, "at least one feature weight must be strictly positive"),
    ({"weights": [-1, 1, 1]}, "feature weights must be nonnegative, got (-1.0, 1.0, 1.0)"),
    ({"subsample": 0}, "subsample must be a positive integer"),
    ({"k_folds": 1}, "k_folds must be at least 2"),
    ({"grid_resolution": 1}, "grid_resolution must be at least 2"),
    ({"delimiter": ";;"}, "delimiter must be a single character"),
], ids=["zero-trees", "negative-depth", "no-classifiers", "no-scenarios", "scenarios-number",
        "classifiers-object", "scenario-twice", "classifier-twice", "schema-unknown-column",
        "schema-list-value", "zero-weights", "negative-weight", "zero-subsample", "one-fold",
        "one-cell-grid", "long-delimiter"])
def test_config_the_stages_cannot_run_fails_before_ingest_writes(tmp_path, capsys, doc, message):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "10"])
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"input": str(tmp_path / "synth_data.csv"),
                                "out": str(tmp_path / "out"), "tsne": {"perplexity": 5}, **doc}))
    capsys.readouterr()
    assert entrypoint(["pipeline", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and message in err and "Traceback" not in err
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


def repeat_column(lines):
    """The synthetic data with a seventh column that repeats the second's
    name and holds the third's values."""
    return [lines[0] + ",temporal_duration"] + [f"{line},{line.split(',')[2]}" for line in lines[1:]]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [], "{data} has no header row"),
    (lambda lines: ["id,outcome"] + ["x,S"],
     "{data} header is missing mapped columns: ['temporal_duration', 'frequency_onset', "
     "'spectral_duration', 'difficulty']"),
    (lambda lines: lines[:1] + [line.replace(",S,", ",Q,") for line in lines[1:] if ",S," in line],
     "{data} contains zero valid rows"),
    (repeat_column, "{data} header repeats mapped column 'temporal_duration' (columns 2, 7)"),
], ids=["no-header", "missing-columns", "no-valid-row", "repeated-column"])
def test_unreadable_input_is_data_error(tmp_path, capsys, edit, message):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "8"])
    data = tmp_path / "synth_data.csv"
    data.write_text("".join(line + "\n" for line in edit(data.read_text().splitlines())))
    out = tmp_path / "out"
    capsys.readouterr()
    assert entrypoint(["ingest", "--input", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message.format(data=data) in err and "Traceback" not in err
    assert not (out / "features.csv").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0].replace("id,", "key,", 1)] + lines[1:],
     "does not have the header"),
    (lambda lines: lines[:1], "contains no rows"),
], ids=["other-header", "header-only"])
def test_unreadable_features_table_is_data_error(tmp_path, capsys, edit, message):
    entrypoint(["synth", "--out", str(tmp_path), "--n-per-cluster", "8"])
    out = tmp_path / "out"
    assert entrypoint(["ingest", "--input", str(tmp_path / "synth_data.csv"), "--out", str(out)]) == 0
    features = out / "features.csv"
    features.write_text("".join(line + "\n" for line in edit(features.read_text().splitlines())))
    capsys.readouterr()
    assert entrypoint(["embed", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{features} {message}" in err and "Traceback" not in err
    assert not (out / "embedding.csv").exists()


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
