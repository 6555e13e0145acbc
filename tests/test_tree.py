import sys

import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.models.forest import ForestConfig, fit_tree
from chirpmap.models.io import load_model, save_model
from chirpmap.models.tree import NodeTable, count_leaves
from chirpmap.sensitivity import tree_subset_values
from tests.conftest import forest_of, make_blobs


def tree_depth(table: NodeTable) -> int:
    """Edges on the longest root-to-leaf path, walked one level at a time."""
    depth, level = 0, np.zeros(1, dtype=np.int64)
    while True:
        split = level[table.feature[level] >= 0]
        if not split.size:
            return depth
        level = np.concatenate([split + 1, table.right[split]])
        depth += 1


def test_single_split_on_separated_line():
    x = np.array([[-3.0, 1.0], [-1.0, -2.0], [1.0, 5.0], [3.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(x, y)
    assert tree_depth(tree.root) == 1
    assert np.array_equal(tree.predict(x), y)
    assert tree.root.feature[0] == 0
    assert tree.root.threshold[0] == 0.0  # midpoint of -1 and 1


def test_identical_rows_mixed_labels_yield_majority_leaf():
    x = np.ones((5, 2))
    y = np.array([0, 1, 1, 1, 0])
    tree = fit_tree(x, y)
    assert tree.root.feature[0] == -1
    assert tree.predict(np.zeros((1, 2)))[0] == 1


def test_majority_tie_prefers_lowest_class():
    x = np.ones((4, 2))
    y = np.array([1, 0, 1, 0])
    tree = fit_tree(x, y)
    assert tree.root.feature[0] == -1
    assert tree.predict(x)[0] == 0


def test_blob_training_accuracy():
    x, y = make_blobs([(-3.0, 0.0), (3.0, 0.0)], n_per=100, seed=1)
    tree = fit_tree(x, y)
    assert (tree.predict(x) == y).mean() >= 0.99


def test_thresholds_are_midpoints():
    x = np.array([[1.0], [3.0]])
    tree = fit_tree(x, np.array([0, 1]))
    assert tree.root.threshold[0] == 2.0


def test_split_tie_prefers_lowest_feature_then_threshold():
    # both features separate perfectly; the split must name feature 0
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    tree = fit_tree(x, np.array([0, 1]))
    assert tree.root.feature[0] == 0
    assert tree.root.threshold[0] == 0.5


def test_exact_gini_tie_follows_lowest_feature_rule():
    # feature 0 at 2.5 and feature 1 at 1.5 both score Q = 16/3 exactly;
    # the rule picks the lower feature, whatever the rounding of a float Gini
    x = np.array([[2, 3], [3, 3], [1, 1], [3, 3], [2, 2], [1, 1], [2, 3], [1, 3]], dtype=float)
    y = np.array([0, 1, 0, 1, 1, 1, 1, 1])
    tree = fit_tree(x, y, ForestConfig(n_trees=1, max_depth=1))
    assert tree.root.feature[0] == 0
    assert tree.root.threshold[0] == 2.5


def test_zero_gain_split_still_grows():
    # no first split improves impurity, yet growth must continue to purity
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = fit_tree(x, y)
    assert np.array_equal(tree.predict(x), y)
    assert count_leaves(tree.root) >= 3


def test_max_depth_truncates():
    x, y = make_blobs([(-1.0, 0.0), (1.0, 0.0)], n_per=50, sd=2.0, seed=2)
    tree = fit_tree(x, y, ForestConfig(n_trees=1, max_depth=2))
    assert tree_depth(tree.root) <= 2


def test_leaf_counts_sum_to_training_rows():
    x, y = make_blobs([(-1.0, 0.0), (1.0, 0.0)], n_per=30, sd=1.5, seed=3)

    table = fit_tree(x, y).root
    assert table.counts[table.feature < 0].sum() == 60
    assert table.n_samples[table.feature < 0].sum() == 60


def test_regression_memorizes_distinct_points():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 4.0, 8.0])
    tree = fit_tree(x, y, ForestConfig(n_trees=1, task="regression"))
    assert np.allclose(tree.predict(x), y)


def test_regression_leaf_is_mean():
    x = np.ones((3, 1))
    y = np.array([1.0, 2.0, 6.0])
    tree = fit_tree(x, y, ForestConfig(n_trees=1, task="regression"))
    assert tree.root.feature[0] == -1
    assert tree.predict(x)[0] == pytest.approx(3.0)


def test_single_row_is_a_leaf():
    tree = fit_tree(np.array([[5.0, 5.0]]), np.array([1]))
    assert tree.root.feature[0] == -1
    assert tree.predict(np.array([[0.0, 0.0]]))[0] == 1


def test_config_validation():
    with pytest.raises(DataError):
        ForestConfig(n_trees=1, task="clustering")
    with pytest.raises(DataError):
        ForestConfig(n_trees=1, max_depth=-1)
    with pytest.raises(DataError):
        fit_tree(np.empty((0, 2)), np.empty(0))


def test_max_depth_zero_is_a_stump():
    x = np.array([[0.0], [1.0], [2.0]])
    tree = fit_tree(x, np.array([0, 1, 1]), ForestConfig(n_trees=1, max_depth=0))
    assert tree.root.feature[0] == -1
    assert tree.predict(x).tolist() == [1, 1, 1]


def chain_tree(depth):
    """Regression chain: split k sends x <= k + 0.5 to a leaf of value k."""
    n_nodes = 2 * depth + 1
    nodes = np.arange(n_nodes)
    internal = (nodes % 2 == 0) & (nodes < 2 * depth)
    k = nodes // 2
    table = NodeTable.build(
        feature=np.where(internal, 0, -1),
        threshold=np.where(internal, k + 0.5, 0.0),
        right=np.where(internal, nodes + 2, -1),
        n_samples=np.where(internal, depth + 1 - k, 1),
        value=k,
    )
    return forest_of([table], "regression", n_features=1)


def test_deep_chain_predicts_attributes_and_round_trips(tmp_path):
    depth = 5000
    tree = chain_tree(depth)
    assert tree_depth(tree.root) == depth
    assert count_leaves(tree.root) == depth + 1
    x = np.arange(depth + 1, dtype=np.float64)[:, None]
    assert np.array_equal(tree.predict(x), x[:, 0])
    values = tree_subset_values(tree, x[::1000])
    assert np.array_equal(values[:, 1], x[::1000, 0])
    assert values[:, 0] == pytest.approx(depth / 2.0, rel=1e-12)  # every leaf weighs 1/(depth+1)
    path = tmp_path / "chain.json"
    save_model(tree, str(path))
    restored = load_model(str(path)).trees[0].root
    for name in ("feature", "threshold", "right", "n_samples", "value"):
        assert np.array_equal(getattr(restored, name), getattr(tree.root, name))


def test_fit_leaves_recursion_limit_unchanged():
    limit = sys.getrecursionlimit()
    x = np.random.default_rng(8).normal(size=(3000, 2))
    fit_tree(x, (x[:, 0] > 0).astype(np.int64) ^ (x[:, 1] > 1.0))
    assert sys.getrecursionlimit() == limit


def test_midpoint_rounding_onto_upper_value_makes_a_leaf():
    # (a + 1) / 2 rounds to 1.0, so x <= threshold cannot separate the rows
    a = np.nextafter(1.0, 0.0)
    tree = fit_tree(np.array([[a], [1.0]]), np.array([0, 1]))
    assert tree.root.feature.tolist() == [-1]
    assert tree.predict(np.array([[a], [1.0]])).tolist() == [0, 0]


@pytest.mark.parametrize("seed", range(8))
def test_regression_root_finds_a_small_step_on_a_large_offset(seed):
    """A 1e-7 step on a target near 30, with 1e-9 noise: the step is the
    best cut by far, but s2/n - (s/n)^2 cancels to rounding noise at this
    offset, where a centered score does not."""
    rng = np.random.default_rng(seed)
    cut = int(rng.integers(5, 36))
    x = np.arange(40.0)[:, None]
    y = 30.0 + 1e-7 * (x[:, 0] >= cut) + 1e-9 * rng.normal(size=40)
    tree = fit_tree(x, y, ForestConfig(n_trees=1, task="regression", max_depth=1))
    assert tree.root.threshold[0] == cut - 0.5
