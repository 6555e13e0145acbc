"""Boundary grids from model geometry against `predict` on every grid centre.

`RandomForestModel.predict_grid` paints leaf boxes and
`KnnModel.predict_grid` prunes candidates per grid tile, filling a tile
whose candidates share one class without computing a distance; the
routing and all-pairs `predict` (and, for k-NN, the former argpartition
selection) are the oracles: every class must be the same.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from chirpmap.models import knn
from chirpmap.models.forest import ForestConfig, fit_random_forest, fit_tree
from chirpmap.models.knn import KnnConfig, fit_knn
from chirpmap.models.tree import NodeTable, leaf_boxes
from chirpmap.render import boundary_grid
from tests.conftest import forest_of, make_blobs
from tests.test_knn_oracle import argpartition_predict, clustered_training_set


def meshgrid_predict(predict, xc, yc):
    gx, gy = np.meshgrid(xc, yc)
    return predict(np.column_stack([gx.ravel(), gy.ravel()])).reshape(yc.size, xc.size)


def assert_grid_equals_predict(model, coords, g=300):
    """boundary_grid through predict_grid equals it through predict."""
    xc, yc, preds = boundary_grid(model, coords, g=g)
    _, _, expected = boundary_grid(SimpleNamespace(predict=model.predict), coords, g=g)
    assert np.array_equal(preds, expected)
    assert np.array_equal(model.predict_grid(xc, yc), expected)
    return xc, yc


def route_to_leaf(table: NodeTable, x: np.ndarray) -> int:
    node = 0
    while table.feature[node] >= 0:
        goes_left = x[table.feature[node]] <= table.threshold[node]
        node = node + 1 if goes_left else table.right[node]
    return node


# ---- forests ---------------------------------------------------------------


@pytest.mark.parametrize("n", [84, 315, 630])
def test_clustered_forest_grid_equals_routing(n):
    x, y = clustered_training_set(n, seed=n)
    assert_grid_equals_predict(fit_random_forest(x, y, ForestConfig(n_trees=60, seed=n)), x)


def test_thresholds_on_grid_centres_follow_the_le_rule():
    x, y = clustered_training_set(315, seed=3)
    model = fit_random_forest(x, y, ForestConfig(n_trees=40, seed=3))
    xc, yc, _ = boundary_grid(model, x, g=120)
    axes = (xc, yc)
    for tree in model.trees:
        table = tree.root
        for node in np.flatnonzero(table.feature >= 0):
            axis = axes[table.feature[node]]
            table.threshold[node] = axis[np.abs(axis - table.threshold[node]).argmin()]
    assert np.isin(model.trees[0].root.threshold[model.trees[0].root.feature >= 0], axes[0]).any()
    assert_grid_equals_predict(model, x, g=120)


def test_single_leaf_trees():
    x, y = clustered_training_set(84, seed=4)
    model = fit_random_forest(x, y, ForestConfig(n_trees=25, max_depth=0, seed=4))
    assert all(t.root.feature.size == 1 for t in model.trees)
    assert_grid_equals_predict(model, x, g=50)


def test_three_class_forest():
    x, y = clustered_training_set(315, seed=5)
    y = np.where(x[:, 0] > 10.0, 2, y)
    model = fit_random_forest(x, y, ForestConfig(n_trees=40, seed=5))
    assert model.n_classes == 3
    assert_grid_equals_predict(model, x, g=97)


def test_vote_ties_go_to_class_zero():
    x, y = clustered_training_set(84, seed=6)
    model = fit_random_forest(x, y, ForestConfig(n_trees=2, seed=6))
    xc, yc, _ = boundary_grid(model, x, g=80)
    votes = sum(meshgrid_predict(t.predict, xc, yc) for t in model.trees)
    assert np.any(votes == 1)  # one tree for each class somewhere
    assert_grid_equals_predict(model, x, g=80)


def test_unreachable_leaf_paints_nothing():
    # x0 <= 0, then x0 > 1: leaf 3 holds no point. With a one-leaf tree for
    # class 1 every centre is a 1:1 tie, which goes to class 0; a vote
    # taken away anywhere by the empty box would turn it to class 1.
    table = NodeTable.build(feature=[0, 0, -1, -1, -1], threshold=[0.0, 1.0, 0.0, 0.0, 0.0],
                            right=[4, 3, -1, -1, -1], n_samples=[4, 2, 1, 1, 2],
                            value=[0.0, 0.0, 0.0, 0.0, 0.0])
    lo, hi, _ = leaf_boxes(table, 2)
    assert hi[1, 0] <= lo[1, 0]
    one_leaf = NodeTable.build(feature=[-1], threshold=[0.0], right=[-1], n_samples=[1],
                               value=[1.0])
    model = forest_of([table, one_leaf])
    coords = np.array([[-3.0, -1.0], [3.0, 1.0]])
    assert_grid_equals_predict(model, coords, g=40)
    assert not model.predict_grid(*boundary_grid(model, coords, g=40)[:2]).any()


def test_all_class_zero_leaves_paint_nothing():
    # one-leaf trees on a class-0 majority: no leaf of class >= 1, so
    # every vote is class 0's complement, len(trees) minus nothing
    x, _ = clustered_training_set(84, seed=19)
    y = (np.arange(len(x)) % 6 == 0).astype(np.int64)
    model = fit_random_forest(x, y, ForestConfig(n_trees=25, max_depth=0, seed=19))
    assert all(t.root.value.tolist() == [0.0] for t in model.trees)
    xc, yc = assert_grid_equals_predict(model, x, g=60)
    assert not model.predict_grid(xc, yc).any()


def stump(feature: int, left_class: int, right_class: int) -> NodeTable:
    return NodeTable.build(feature=[feature, -1, -1], threshold=[0.0, 0.0, 0.0],
                           right=[2, -1, -1], n_samples=[2, 1, 1],
                           value=[0.0, float(left_class), float(right_class)])


def test_three_class_ties_go_to_the_lower_class():
    # x0 <= 0 votes class 0, else 1; x1 <= 0 votes class 2, else 1. In
    # the lower left class 0 ties painted class 2, in the lower right
    # classes 1 and 2 tie
    model = forest_of([stump(f, lc, rc) for f, lc, rc in ((0, 0, 1), (1, 2, 1))], n_classes=3)
    trees = model.trees
    coords = np.array([[-3.0, -2.0], [3.0, 2.0]])
    xc, yc = assert_grid_equals_predict(model, coords, g=41)
    votes = [sum(meshgrid_predict(t.predict, xc, yc) == c for t in trees) for c in range(3)]
    assert np.any((votes[0] == 1) & (votes[2] == 1))
    assert np.any((votes[1] == 1) & (votes[2] == 1))
    expected = np.where(xc > 0, 1, 0)[None, :].repeat(yc.size, axis=0)
    assert np.array_equal(model.predict_grid(xc, yc), expected)


def test_three_class_forest_without_a_class_one_leaf():
    x, y = clustered_training_set(315, seed=20)
    model = fit_random_forest(x, 2 * y, ForestConfig(n_trees=40, seed=20))
    assert model.n_classes == 3
    assert not any(np.any(t.root.value == 1.0) for t in model.trees)
    xc, yc = assert_grid_equals_predict(model, x, g=97)
    assert set(np.unique(model.predict_grid(xc, yc))) == {0, 2}


def test_window_with_zero_spread_on_one_axis():
    rng = np.random.default_rng(7)
    x = np.column_stack([np.full(60, 2.5), rng.normal(0.0, 5.0, size=60)])
    y = (x[:, 1] > 0).astype(np.int64)
    y[:5] = 1 - y[:5]
    for coords in (x, x[:, ::-1].copy()):
        model = fit_random_forest(coords, y, ForestConfig(n_trees=20, seed=7))
        assert_grid_equals_predict(model, coords, g=64)


@pytest.mark.parametrize("task, d", [("classification", 2), ("regression", 3)])
def test_leaf_boxes_hold_exactly_the_rows_routed_to_each_leaf(task, d):
    rng = np.random.default_rng(8)
    x = np.round(rng.normal(size=(200, d)), 1)  # repeated values: rows on thresholds' sides
    y = (x[:, 0] + x[:, -1] > 0).astype(np.int64) if task == "classification" else x.sum(axis=1)
    tree = fit_tree(x, y, ForestConfig(n_trees=1, task=task))
    table = tree.root
    lo, hi, value = leaf_boxes(table, d)
    leaves = np.flatnonzero(table.feature < 0)
    inside = np.all((lo[:, None, :] < x) & (x <= hi[:, None, :]), axis=2)  # (leaves, rows)
    routed = np.array([route_to_leaf(table, row) for row in x])
    assert np.array_equal(inside, leaves[:, None] == routed)
    assert np.array_equal(value, table.value[leaves])
    assert len(leaves) > 10


# ---- k-NN ------------------------------------------------------------------


def assert_knn_grid_equals_oracles(model, xc, yc):
    got = model.predict_grid(xc, yc)
    assert got.shape == (yc.size, xc.size)
    assert np.array_equal(got, meshgrid_predict(model.predict, xc, yc))
    assert np.array_equal(got, meshgrid_predict(lambda p: argpartition_predict(model, p), xc, yc))


@pytest.mark.parametrize("n", [84, 315, 630])
def test_clustered_knn_grid_equals_predict(n):
    # test_knn_oracle.py checks these grids against the argpartition selection
    x, y = clustered_training_set(n, seed=n)
    model = fit_knn(x, y, KnnConfig(k=5))
    xc, yc, preds = boundary_grid(model, x, g=300)
    assert np.array_equal(preds, meshgrid_predict(model.predict, xc, yc))


def test_training_points_on_grid_centres():
    x, y = clustered_training_set(315, seed=10)
    xc, yc, _ = boundary_grid(fit_knn(x, y), x, g=100)
    rng = np.random.default_rng(10)
    on_grid = np.column_stack([rng.choice(xc, 150), rng.choice(yc, 150)])
    model = fit_knn(np.vstack([on_grid, x[:50]]), np.concatenate([y[:150], y[:50]]),
                    KnnConfig(k=4))
    assert_knn_grid_equals_oracles(model, xc, yc)


@pytest.mark.parametrize("k", range(1, 9))
def test_lattice_ties(k):
    lattice = np.array([(i, j) for i in range(-6, 7) for j in range(-6, 7)], dtype=float)
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, size=len(lattice))
    axis = np.arange(-15, 16) / 2.0  # centres on lattice points and midpoints
    model = fit_knn(lattice[rng.permutation(len(lattice))], y, KnnConfig(k=k))
    assert_knn_grid_equals_oracles(model, axis, axis)
    assert_knn_grid_equals_oracles(model, axis[::2], axis[1:-1])
    assert_knn_grid_equals_oracles(model, axis[:17], axis[-17:])  # a one-centre corner tile


def test_duplicate_training_rows():
    x, y = clustered_training_set(84, seed=12)
    rng = np.random.default_rng(12)
    twice = np.vstack([x, x[rng.permutation(84)[:40]]])
    labels = np.concatenate([y, rng.integers(0, 2, size=40)])
    xc, yc, _ = boundary_grid(fit_knn(x, y), x, g=90)
    for k in (2, 5, 7):
        assert_knn_grid_equals_oracles(fit_knn(twice, labels, KnnConfig(k=k)), xc, yc)


def test_k_equals_training_size():
    x, y = clustered_training_set(84, seed=13)
    xc, yc, _ = boundary_grid(fit_knn(x, y), x, g=70)
    assert_knn_grid_equals_oracles(fit_knn(x, y, KnnConfig(k=len(x))), xc, yc)


@pytest.mark.parametrize("gx, gy", [(17, 33), (1, 1), (301, 5), (2, 47)])
def test_grid_not_a_multiple_of_the_tile(gx, gy):
    x, y = clustered_training_set(315, seed=14)
    xc, yc, _ = boundary_grid(fit_knn(x, y), x, g=max(gx, gy, 2))
    model = fit_knn(x, y, KnnConfig(k=5))
    assert_knn_grid_equals_oracles(model, xc[:: max(1, xc.size // gx)][:gx], yc[-gy:])


def test_three_classes():
    x, y = clustered_training_set(315, seed=15)
    y = np.where(x[:, 1] > 10.0, 2, y)
    xc, yc, _ = boundary_grid(fit_knn(x, y), x, g=150)
    assert_knn_grid_equals_oracles(fit_knn(x, y, KnnConfig(k=6)), xc, yc)


def grid_points_computed(monkeypatch, model, xc, yc):
    """`predict_grid`'s classes, and the number of distinct grid centres
    it passed to `squared_distances`."""
    seen, original = [], knn.squared_distances

    def counting(a, b, **kwargs):
        seen.append(a.reshape(-1, 2).copy())
        return original(a, b, **kwargs)

    monkeypatch.setattr(knn, "squared_distances", counting)
    got = model.predict_grid(xc, yc)
    monkeypatch.undo()
    return got, len(np.unique(np.vstack(seen), axis=0)) if seen else 0


def test_one_class_training_set_computes_no_distance(monkeypatch):
    x, _ = clustered_training_set(84, seed=16)
    model = fit_knn(x, np.ones(len(x), dtype=np.int64), KnnConfig(k=3))
    xc, yc, _ = boundary_grid(model, x, g=100)
    got, computed = grid_points_computed(monkeypatch, model, xc, yc)
    assert computed == 0
    assert np.array_equal(got, np.ones((yc.size, xc.size), dtype=np.int64))
    assert np.array_equal(got, meshgrid_predict(model.predict, xc, yc))


@pytest.mark.parametrize("k", [1, 4, 5])
def test_filled_and_computed_tiles_both_equal_predict(monkeypatch, k):
    # the clusters overlap, but without label noise most tiles are one-class
    x, y = make_blobs([(-20.0, 5.0), (15.0, 15.0), (5.0, -20.0)], n_per=105, sd=8.0, seed=17)
    model = fit_knn(x, y, KnnConfig(k=k))
    xc, yc, _ = boundary_grid(model, x, g=300)
    got, computed = grid_points_computed(monkeypatch, model, xc, yc)
    assert 0 < computed < xc.size * yc.size
    assert np.array_equal(got, meshgrid_predict(model.predict, xc, yc))


@pytest.mark.parametrize("layout", ["class-1-absent", "three-bands"])
def test_three_classes_with_two_in_each_mixed_tile(monkeypatch, layout):
    if layout == "class-1-absent":
        x, y = clustered_training_set(315, seed=18)
        y = 2 * y  # classes 0 and 2; the vote still counts class 1
    else:
        # classes 0, 1, 2 in bands from left to right: a mixed tile holds
        # 0 and 1 or 1 and 2, never 0 and 2
        x, y = make_blobs([(-30.0, 0.0), (0.0, 0.0), (30.0, 0.0)], n_per=60, sd=4.0, seed=18)
    model = fit_knn(x, y, KnnConfig(k=4))
    xc, yc, _ = boundary_grid(model, x, g=300)
    got, computed = grid_points_computed(monkeypatch, model, xc, yc)
    assert 0 < computed < xc.size * yc.size
    assert set(np.unique(got)) == ({0, 2} if layout == "class-1-absent" else {0, 1, 2})
    assert np.array_equal(got, meshgrid_predict(model.predict, xc, yc))
