import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.models.forest import ForestConfig, RandomForestModel, fit_random_forest
from chirpmap.models.tree import DecisionTree, NodeTable, TreeConfig
from tests.conftest import make_blobs


def leaf_tree(value, task="classification"):
    """Single-leaf tree that predicts `value` everywhere."""
    if task == "classification":
        table = NodeTable.build([-1], [0.0], [-1], counts=np.eye(2, dtype=np.int64)[[value]])
    else:
        table = NodeTable.build([-1], [0.0], [-1], n_samples=[1], value=[value])
    return DecisionTree(root=table, config=TreeConfig(task=task), n_features=2, n_classes=2)


def test_same_seed_same_forest(two_blobs):
    x, y = two_blobs
    config = ForestConfig(n_trees=10, seed=42)
    grid = np.random.default_rng(0).normal(0, 4, size=(50, 2))
    a = fit_random_forest(x, y, config)
    b = fit_random_forest(x, y, config)
    assert np.array_equal(a.predict(grid), b.predict(grid))


def test_holdout_accuracy_on_blobs(two_blobs):
    x, y = two_blobs
    train = np.arange(0, 200, 2)
    test = np.arange(1, 200, 2)
    model = fit_random_forest(x[train], y[train], ForestConfig(n_trees=30, seed=0))
    assert (model.predict(x[test]) == y[test]).mean() >= 0.95


def test_single_row_forest_is_constant():
    model = fit_random_forest(np.array([[1.0, 2.0]]), np.array([1]), ForestConfig(n_trees=1, seed=0))
    assert model.predict(np.array([[9.0, -9.0], [0.0, 0.0]])).tolist() == [1, 1]


def test_vote_tie_goes_to_class_zero():
    model = RandomForestModel(
        trees=[leaf_tree(0), leaf_tree(1)],
        config=ForestConfig(n_trees=2),
        n_features=2,
        n_classes=2,
    )
    assert model.predict(np.zeros((3, 2))).tolist() == [0, 0, 0]


def test_regression_prediction_is_tree_mean():
    model = RandomForestModel(
        trees=[leaf_tree(1.0, "regression"), leaf_tree(2.0, "regression")],
        config=ForestConfig(n_trees=2, task="regression"),
        n_features=2,
        n_classes=0,
    )
    assert model.predict(np.zeros((1, 2)))[0] == pytest.approx(1.5)


def test_regression_forest_fits_smooth_target():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(150, 3))
    y = 2.0 * x[:, 0] - x[:, 1]
    model = fit_random_forest(x, y, ForestConfig(n_trees=40, seed=1, task="regression"))
    pred = model.predict(x)
    residual = y - pred
    assert 1.0 - residual.var() / y.var() >= 0.9


def test_needs_both_classes():
    with pytest.raises(DataError):
        fit_random_forest(np.zeros((4, 2)), np.zeros(4, dtype=int), ForestConfig(n_trees=2))


def test_config_validation():
    with pytest.raises(DataError):
        ForestConfig(n_trees=0)
