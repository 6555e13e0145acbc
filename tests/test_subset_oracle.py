"""Painted subset values against the root-to-leaf walk they replaced.

`walk_subset_values` is the former per-node walk, kept here only as the
oracle: it walks a tree's node table depth-first, left before right, so
each leaf's weight is its path product taken root to leaf and leaves add
into the result in preorder. The painted values sum the same leaf terms
in another order, so they must match the walk to rounding,
max |dv| <= 1e-12 * max |v|, while the column of every split feature
equals the walk's bit for bit.
"""

import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.ingest import records_to_matrix, standardize
from chirpmap.models.forest import ForestConfig, RandomForestModel, fit_random_forest, fit_tree
from chirpmap.models.tree import NodeTable, leaf_path_shares
from chirpmap.sensitivity import shapley_values, tree_subset_values
from chirpmap.synth import generate_records
from chirpmap.tsne import TsneConfig, run_tsne
from tests.conftest import forest_of

GATE = 1e-12


def walk_subset_values(tree: RandomForestModel, x) -> np.ndarray:
    """v(S) of one tree for every instance and subset, by the node walk."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    table = tree.root
    feature = table.feature.tolist()
    threshold = table.threshold.tolist()
    right = table.right.tolist()
    n_samples = table.n_samples.tolist()
    value = table.value.tolist()
    xt = np.ascontiguousarray(x.T)
    subsets = np.arange(1 << tree.n_features)
    in_subset = [((subsets >> f) & 1).astype(bool) for f in range(tree.n_features)]
    out = np.zeros((x.shape[0], subsets.size), dtype=np.float64)
    stack = [(0, np.ones_like(out))]
    while stack:
        node, weights = stack.pop()
        f = feature[node]
        if f < 0:
            out += weights * value[node]
            continue
        # a feature in S follows the instance's branch; one outside S
        # splits the weight by the children's training shares
        left_child, right_child = node + 1, right[node]
        share_left = n_samples[left_child] / n_samples[node]
        share_right = n_samples[right_child] / n_samples[node]
        goes_left = (xt[f] <= threshold[node])[:, None]
        w_right = weights * np.where(in_subset[f], ~goes_left, share_right)
        w_left = weights * np.where(in_subset[f], goes_left, share_left)
        if w_right.any():
            stack.append((right_child, w_right))
        if w_left.any():
            stack.append((left_child, w_left))
    return out


def walk_forest_values(model, x) -> np.ndarray:
    """The walk's values summed tree by tree and averaged, as the former
    `shapley_values` did."""
    trees = model.trees
    total = np.zeros((np.atleast_2d(x).shape[0], 1 << trees[0].n_features))
    for tree in trees:
        total += walk_subset_values(tree, x)
    return total / len(trees)


def assert_painted_matches_walk(model, x):
    painted, walked = tree_subset_values(model, x), walk_forest_values(model, x)
    scale = np.abs(walked).max()
    assert np.abs(painted - walked).max() <= GATE * scale
    assert np.array_equal(painted[:, -1], walked[:, -1])  # every feature: routed
    return painted


def cohort(seed: int, n: int):
    """Standardized features of a synth cohort and a short t-SNE of them:
    the explain stage's inputs, with fewer gradient steps."""
    values, _ = standardize(records_to_matrix(generate_records(n // 3, seed=seed)))
    tsne = TsneConfig(perplexity=min(30.0, n / 4), n_iterations=100, momentum_switch_iter=40,
                      exaggeration_until_iter=40, seed=seed)
    return values, run_tsne(values, tsne).coords


def test_leaf_path_shares_have_the_walks_bits():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(300, 3))
    tree = fit_tree(x, x[:, 0] * x[:, 1] - x[:, 2], ForestConfig(n_trees=1, task="regression"))
    table, d = tree.root, 3
    expected = []
    stack = [(0, [1.0] * (1 << d))]
    while stack:  # depth-first, left before right: leaves in preorder
        node, weights = stack.pop()
        f = int(table.feature[node])
        if f < 0:
            expected.append(weights)
            continue
        for child in (int(table.right[node]), node + 1):
            share = int(table.n_samples[child]) / int(table.n_samples[node])
            stack.append((child, [w if s >> f & 1 else w * share for s, w in enumerate(weights)]))
    assert np.array_equal(leaf_path_shares(table, d), np.array(expected))


@pytest.mark.parametrize("n, n_trees", [(120, 20), (450, 5)])
@pytest.mark.parametrize("seed", range(1, 11))
def test_painted_values_match_the_walk_on_synth_cohorts(seed, n, n_trees):
    x, coords = cohort(seed, n)
    for axis in range(2):
        forest = fit_random_forest(x, coords[:, axis],
                                   ForestConfig(n_trees=n_trees, seed=seed, task="regression"))
        assert_painted_matches_walk(forest, x)


def test_painted_values_match_the_walk_with_duplicate_instances():
    rng = np.random.default_rng(4)
    x = np.repeat(np.round(rng.normal(size=(40, 3)), 1), 3, axis=0)
    y = x[:, 0] - 2.0 * x[:, 1] * x[:, 2] + rng.normal(scale=0.1, size=x.shape[0])
    forest = fit_random_forest(x, y, ForestConfig(n_trees=15, seed=2, task="regression"))
    painted = assert_painted_matches_walk(forest, x)
    # a repeated instance reads the same cells
    assert np.array_equal(painted[0::3], painted[1::3])


def test_painted_values_match_the_walk_on_criterion_8_forests():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(200, 3))
    y = 2.0 * x[:, 0] - 0.5 * x[:, 1] * x[:, 2]
    forest = fit_random_forest(x, y, ForestConfig(n_trees=25, seed=5, task="regression"))
    assert_painted_matches_walk(forest, x)
    x4 = np.hstack([x, np.full((200, 1), 3.3)])
    assert_painted_matches_walk(fit_tree(x4, y, ForestConfig(n_trees=1, task="regression", max_depth=6)), x4)
    assert_painted_matches_walk(fit_tree(x, y, ForestConfig(n_trees=1, task="regression", max_depth=5)), x[:50])


def test_never_split_feature_earns_exactly_zero_at_four_features():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(150, 4))
    y = x[:, 0] + np.sin(x[:, 1]) * x[:, 3]
    # feature 2 is constant in training, so no tree can split on it
    x[:, 2] = 0.5
    forest = fit_random_forest(x, y, ForestConfig(n_trees=10, seed=1, task="regression"))
    assert all(2 not in tree.root.feature for tree in forest.trees)
    probe = rng.normal(size=(30, 4))  # other values of feature 2 change nothing
    values = tree_subset_values(forest, probe)
    for s in range(16):
        assert np.array_equal(values[:, s], values[:, s & ~0b100])
    att = shapley_values(forest, probe)
    assert np.all(att.phi[:, 2] == 0.0)
    assert np.abs(values - walk_forest_values(forest, probe)).max() <= GATE * np.abs(values).max()


def test_more_than_three_split_features_is_a_data_error():
    # a chain splitting on features 0, 1, 2 and 3 in turn
    table = NodeTable.build(
        feature=[0, -1, 1, -1, 2, -1, 3, -1, -1],
        threshold=[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        right=[2, -1, 4, -1, 6, -1, 8, -1, -1],
        n_samples=[5, 1, 4, 1, 3, 1, 2, 1, 1],
        value=[0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 5.0],
    )
    forest = forest_of([table], "regression", n_features=4)
    with pytest.raises(DataError, match="4 features"):
        tree_subset_values(forest, np.zeros((2, 4)))
    with pytest.raises(DataError, match="4 features"):
        shapley_values(forest, np.zeros((2, 4)))
