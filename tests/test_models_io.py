import json

import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.models import CLASSIFIER_KINDS, fit_classifier
from chirpmap.models.forest import ForestConfig, fit_random_forest
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


# each edit below breaks one tree of a forest file, the first by default
def _break_lengths(doc, tree=0):
    doc["parameters"]["trees"][tree]["threshold"].pop()


def _break_child_range(doc, tree=0):
    doc["parameters"]["trees"][tree]["right"][0] = 10**6


def _break_child_backwards(doc, tree=0):
    doc["parameters"]["trees"][tree]["right"][0] = 0


def _break_child_past_its_tree(doc, tree=0):
    """A root whose right child is a node of the next tree: in range for
    the forest's nodes end to end (but for the last tree's), and not for
    its own tree's."""
    nodes = doc["parameters"]["trees"][tree]
    nodes["right"][0] = len(nodes["feature"]) + 1


def _break_two_parents(doc, tree=0):
    """A tree whose root points right at its left child's right child,
    which two nodes then reach; the last leaf is reached by none."""
    doc["parameters"]["trees"][tree] = {
        "feature": [0, 1, -1, -1, -1], "threshold": [0.0] * 5, "right": [3, 3, -1, -1, -1],
        "counts": [[2, 2], [1, 1], [1, 0], [0, 1], [1, 1]],
    }


def _break_threshold_nan(doc, tree=0):
    doc["parameters"]["trees"][tree]["threshold"][0] = float("nan")


def _break_old_nested_format(doc, tree=0):
    doc["parameters"]["trees"][tree] = {
        "n": 4, "value": 0.0, "counts": [3, 1], "feature": 0, "threshold": 0.5,
        "left": {"n": 3, "value": 0.0, "counts": [3, 0]},
        "right": {"n": 1, "value": 1.0, "counts": [0, 1]},
    }


def _break_negative_count(doc, tree=0):
    root = doc["parameters"]["trees"][tree]["counts"][0]
    root[:] = [-5, sum(root) + 5]  # the node total is unchanged


def _break_fractional_count(doc, tree=0):
    doc["parameters"]["trees"][tree]["counts"][0][1] += 0.5


def _break_bool_feature(doc, tree=0):
    feature = doc["parameters"]["trees"][tree]["feature"]
    feature[0] = bool(feature[0])  # a root split on feature 0 or 1


def _break_float_feature(doc, tree=0):
    doc["parameters"]["trees"][tree]["feature"][0] += 0.0


def _break_float_child(doc, tree=0):
    doc["parameters"]["trees"][tree]["right"][0] += 0.0


def _break_float_class_count(doc):
    doc["parameters"]["n_classes"] = 2.0


def _break_one_class(doc):
    """A classification forest of one class: every node's counts one column."""
    doc["parameters"]["n_classes"] = 1
    for tree in doc["parameters"]["trees"]:
        tree["counts"] = [[sum(row)] for row in tree["counts"]]


def _break_bool_feature_count(doc):
    doc["parameters"]["n_features"] = True


def _break_svm_key(doc):
    del doc["parameters"]["alpha"]


def _break_string_threshold(doc, tree=0):
    thresholds = doc["parameters"]["trees"][tree]["threshold"]
    thresholds[:] = [repr(v) for v in thresholds]


def _break_string_weights(doc):
    doc["parameters"]["w"] = [repr(v) for v in doc["parameters"]["w"]]


def _break_bool_intercept(doc):
    doc["parameters"]["b"] = True


def _break_string_point(doc):
    doc["parameters"]["x"][0][0] = repr(doc["parameters"]["x"][0][0])


def _break_bool_multiplier(doc):
    doc["parameters"]["alpha"][-1] = True


def _break_text_converged(doc):
    doc["parameters"]["converged"] = "maybe"


def _break_integer_converged(doc):
    doc["parameters"]["converged"] = 1


def _break_fractional_updates(doc):
    doc["parameters"]["n_updates"] += 0.5


def _break_string_iterations(doc):
    doc["parameters"]["n_iters"] = str(doc["parameters"]["n_iters"])


# the one-tree defects and the rejection each gets, whichever tree has it
TREE_DEFECTS = {
    _break_lengths: "nonempty and of equal length",
    _break_child_range: "out of range",
    _break_child_backwards: "out of range",
    _break_child_past_its_tree: "out of range",
    _break_two_parents: "do not form one tree",
    _break_threshold_nan: r"threshold = .*, not a list of finite numbers",
    _break_old_nested_format: "nested-node model files",
    _break_negative_count: "out of range",
    _break_fractional_count: r"counts = .*, not a list of lists of integers",
    _break_bool_feature: r"feature = .*, not a list of integers",
    _break_float_feature: r"feature = .*, not a list of integers",
    _break_float_child: r"right = .*, not a list of integers",
    _break_string_threshold: r"threshold = .*, not a list of finite numbers",
}

# numbers and flags of the other kinds stored as the wrong JSON type, a
# forest's class count that no fit gives, and the rejection each gets
FLAT_DEFECTS = {
    _break_one_class: r"parameters.n_classes = 1, not an integer >= 2",
    _break_string_weights: r"parameters.w = .*, not a list of finite numbers",
    _break_bool_intercept: r"parameters.b = True, not a finite number",
    _break_string_point: r"parameters.x = .*, not a list of lists of finite numbers",
    _break_bool_multiplier: r"parameters.alpha = .*, not a list of finite numbers",
    _break_text_converged: r"parameters.converged = 'maybe', not true or false",
    _break_integer_converged: r"parameters.converged = 1, not true or false",
    _break_fractional_updates: r"parameters.n_updates = .*, not an integer",
    _break_string_iterations: r"parameters.n_iters = '\d+', not an integer",
}


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("random_forest", _break_missing_trees),
        *(("random_forest", corrupt) for corrupt in TREE_DEFECTS),
        ("random_forest", _break_float_class_count),
        ("random_forest", _break_one_class),
        ("random_forest", _break_bool_feature_count),
        ("svm", _break_svm_key),
        ("logistic_regression", _break_string_weights),
        ("logistic_regression", _break_bool_intercept),
        ("svm", _break_string_point),
        ("svm", _break_bool_multiplier),
        ("svm", _break_text_converged),
        ("logistic_regression", _break_integer_converged),
        ("svm", _break_fractional_updates),
        ("logistic_regression", _break_string_iterations),
    ],
)
def test_malformed_model_file_is_data_error(kind, corrupt, training_data, tmp_path):
    x, y = training_data
    doc = model_to_dict(fit_classifier(kind, x, y, seed=3))
    corrupt(doc)
    assert_rejected(doc, tmp_path, {**TREE_DEFECTS, **FLAT_DEFECTS}.get(corrupt))


@pytest.mark.parametrize("which", ["middle", "last"])
@pytest.mark.parametrize("corrupt", TREE_DEFECTS)
def test_a_defect_in_a_later_tree_is_data_error(corrupt, which, training_data, tmp_path):
    # the test above breaks the first tree
    x, y = training_data
    doc = model_to_dict(fit_classifier("random_forest", x, y, seed=3))
    n_trees = len(doc["parameters"]["trees"])
    tree = n_trees // 2 if which == "middle" else n_trees - 1
    assert all(t["feature"][0] >= 0 for t in doc["parameters"]["trees"])  # root splits
    corrupt(doc, tree)
    assert_rejected(doc, tmp_path, TREE_DEFECTS[corrupt])


def assert_rejected(doc, tmp_path, message=None):
    with pytest.raises(DataError, match=message):
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


def test_multi_output_forest_is_not_saved(training_data, tmp_path):
    """A model file holds one value per node, so a forest grown on a
    two-column target is refused by name; one on a single column saves."""
    x, _ = training_data
    config = ForestConfig(n_trees=3, seed=1, task="regression")
    with pytest.raises(DataError, match="multi-output random forest"):
        save_model(fit_random_forest(x, x, config), str(tmp_path / "m.json"))
    assert not (tmp_path / "m.json").exists()
    single = fit_random_forest(x, x[:, 0], config)
    save_model(single, str(tmp_path / "m.json"))
    assert np.array_equal(load_model(str(tmp_path / "m.json")).predict(x), single.predict(x))
