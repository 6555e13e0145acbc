import json

import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.models import CLASSIFIER_KINDS, fit_classifier
from chirpmap.models.io import load_model, model_from_dict, model_to_dict, save_model
from tests.conftest import make_blobs


@pytest.fixture(scope="module")
def training_data():
    return make_blobs([(-3.0, 0.0), (3.0, 0.0)], n_per=40, seed=5)


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_round_trip_preserves_predictions(kind, training_data, tmp_path):
    x, y = training_data
    model = fit_classifier(kind, x, y, seed=9)
    path = tmp_path / f"{kind}.json"
    save_model(model, str(path))
    restored = load_model(str(path))
    grid = np.random.default_rng(1).normal(0, 4, size=(80, 2))
    assert np.array_equal(model.predict(grid), restored.predict(grid))
    assert restored.kind == kind


def test_double_round_trip_is_stable(training_data, tmp_path):
    x, y = training_data
    model = fit_classifier("random_forest", x, y, seed=2)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_model(model, str(p1))
    save_model(load_model(str(p1)), str(p2))
    assert p1.read_text() == p2.read_text()


def test_extra_keys_survive_and_load(training_data, tmp_path):
    x, y = training_data
    model = fit_classifier("knn", x, y)
    path = tmp_path / "m.json"
    save_model(model, str(path), extra={"provenance": {"config": "abc", "seed": 1}})
    doc = json.loads(path.read_text())
    assert doc["provenance"]["config"] == "abc"
    load_model(str(path))  # unknown top-level keys are ignored


def test_unknown_kind_rejected():
    with pytest.raises(DataError):
        model_from_dict({"kind": "perceptron", "config": {}, "parameters": {}})


def test_unreadable_file_rejected(tmp_path):
    with pytest.raises(DataError):
        load_model(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError):
        load_model(str(bad))


def test_svm_round_trip_keeps_decision_values(training_data, tmp_path):
    x, y = training_data
    model = fit_classifier("svm", x, y)
    path = tmp_path / "svm.json"
    save_model(model, str(path))
    restored = load_model(str(path))
    grid = np.random.default_rng(2).normal(0, 4, size=(30, 2))
    assert np.allclose(model.decision_function(grid), restored.decision_function(grid))
    assert model_to_dict(model) == model_to_dict(restored)


def _break_missing_trees(doc):
    del doc["parameters"]["trees"]


def _break_lengths(doc):
    doc["parameters"]["trees"][0]["threshold"].pop()


def _break_child_range(doc):
    doc["parameters"]["trees"][0]["right"][0] = 10**6


def _break_child_backwards(doc):
    doc["parameters"]["trees"][0]["right"][0] = 0


def _break_two_parents(doc):
    """A tree whose root points right at its left child's right child,
    which two nodes then reach; the last leaf is reached by none."""
    doc["parameters"]["trees"][0] = {
        "feature": [0, 1, -1, -1, -1], "threshold": [0.0] * 5, "right": [3, 3, -1, -1, -1],
        "counts": [[2, 2], [1, 1], [1, 0], [0, 1], [1, 1]],
    }


def _break_threshold_nan(doc):
    doc["parameters"]["trees"][0]["threshold"][0] = float("nan")


def _break_old_nested_format(doc):
    doc["parameters"]["trees"][0] = {
        "n": 4, "value": 0.0, "counts": [3, 1], "feature": 0, "threshold": 0.5,
        "left": {"n": 3, "value": 0.0, "counts": [3, 0]},
        "right": {"n": 1, "value": 1.0, "counts": [0, 1]},
    }


def _break_negative_count(doc):
    root = doc["parameters"]["trees"][0]["counts"][0]
    root[:] = [-5, sum(root) + 5]  # the node total is unchanged


def _break_fractional_count(doc):
    doc["parameters"]["trees"][0]["counts"][0][1] += 0.5


def _break_bool_feature(doc):
    feature = doc["parameters"]["trees"][0]["feature"]
    feature[0] = bool(feature[0])  # a root split on feature 0 or 1


def _break_float_feature(doc):
    doc["parameters"]["trees"][0]["feature"][0] += 0.0


def _break_float_child(doc):
    doc["parameters"]["trees"][0]["right"][0] += 0.0


def _break_float_class_count(doc):
    doc["parameters"]["n_classes"] = 2.0


def _break_bool_feature_count(doc):
    doc["parameters"]["n_features"] = True


def _break_svm_key(doc):
    del doc["parameters"]["alpha"]


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("random_forest", _break_missing_trees),
        ("random_forest", _break_lengths),
        ("random_forest", _break_child_range),
        ("random_forest", _break_child_backwards),
        ("random_forest", _break_two_parents),
        ("random_forest", _break_threshold_nan),
        ("random_forest", _break_old_nested_format),
        ("random_forest", _break_negative_count),
        ("random_forest", _break_fractional_count),
        ("random_forest", _break_bool_feature),
        ("random_forest", _break_float_feature),
        ("random_forest", _break_float_child),
        ("random_forest", _break_float_class_count),
        ("random_forest", _break_bool_feature_count),
        ("svm", _break_svm_key),
    ],
)
def test_malformed_model_file_is_data_error(kind, corrupt, training_data, tmp_path):
    x, y = training_data
    doc = model_to_dict(fit_classifier(kind, x, y, seed=3))
    corrupt(doc)
    with pytest.raises(DataError):
        model_from_dict(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="m.json"):
        load_model(str(path))


def test_forest_file_stores_node_arrays(training_data):
    x, y = training_data
    doc = model_to_dict(fit_classifier("random_forest", x, y, seed=3))
    tree = doc["parameters"]["trees"][0]
    assert sorted(tree) == ["counts", "feature", "right", "threshold"]
    assert len({len(tree[k]) for k in tree}) == 1
