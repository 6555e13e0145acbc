import tracemalloc

import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.models import forest as forest_module
from chirpmap.models.forest import ForestConfig, fit_random_forest
from chirpmap.models.io import model_from_dict, model_to_dict
from chirpmap.models.tree import NodeTable
from chirpmap.render import boundary_grid
from chirpmap.sensitivity import SensitivityConfig, fit_coordinate_regressors
from tests.conftest import forest_of, make_blobs
from tests.test_knn_oracle import clustered_training_set


def leaf_tree(value, task="classification"):
    """Single-leaf tree that predicts `value` everywhere."""
    if task == "classification":
        return NodeTable.build([-1], [0.0], [-1], counts=np.eye(2, dtype=np.int64)[[value]])
    return NodeTable.build([-1], [0.0], [-1], n_samples=[1], value=[value])


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
    model = forest_of([leaf_tree(0), leaf_tree(1)])
    assert model.predict(np.zeros((3, 2))).tolist() == [0, 0, 0]


def test_regression_prediction_is_tree_mean():
    model = forest_of([leaf_tree(1.0, "regression"), leaf_tree(2.0, "regression")], "regression")
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


def _walk_tree(tree, x):
    """The former per-tree predict, kept as the oracle: a stack walk
    that splits the points reaching each node into its children."""
    out = np.empty(x.shape[0], dtype=np.float64)
    feature = tree.root.feature.tolist()
    threshold = tree.root.threshold.tolist()
    right = tree.root.right.tolist()
    xt = np.ascontiguousarray(x.T)
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        f = feature[node]
        if f < 0:
            out[idx] = tree.root.value[node]
            continue
        mask = xt[f].take(idx) <= threshold[node]
        if np.any(~mask):
            stack.append((right[node], idx[~mask]))
        if np.any(mask):
            stack.append((node + 1, idx[mask]))
    return out


def _walk_predict(model, x):
    """The former forest predict, kept as the oracle: one stack walk per
    tree, votes or sums in tree order."""
    if model.config.task == "regression":
        acc = np.zeros(x.shape[0])
        for tree in model.trees:
            acc += _walk_tree(tree, x)
        return acc / len(model.trees)
    votes = np.zeros((model.n_classes, x.shape[0]), dtype=np.int64)
    for tree in model.trees:
        pred = _walk_tree(tree, x).astype(np.int64)
        for c in range(model.n_classes):
            votes[c] += pred == c
    return np.argmax(votes, axis=0)


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("n_trees", [1, 2, 24])
def test_routed_predict_matches_the_per_tree_walk(task, n_trees):
    """Bit for bit, on points exactly on thresholds, one point, and, with
    an even number of trees, vote ties. Each tree's own predict must
    match its walk too."""
    rng = np.random.default_rng(n_trees)
    x = np.round(rng.normal(size=(80, 3)), 1)
    if task == "regression":
        y = np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.1 * rng.normal(size=80)
    else:
        y = (x[:, 0] + rng.normal(size=80) > 0).astype(np.int64) + (x[:, 1] > 0.8)
    model = fit_random_forest(x, y, ForestConfig(n_trees=n_trees, seed=3, task=task))
    on_cuts = []
    for tree in model.trees:
        internal = np.flatnonzero(tree.root.feature >= 0)
        point = x[rng.integers(0, 80, size=internal.size)]
        point[np.arange(internal.size), tree.root.feature[internal]] = tree.root.threshold[internal]
        on_cuts.append(point)
    points = np.vstack([x, rng.normal(size=(50, 3))] + on_cuts)
    for queries in (points, points[:1], np.asfortranarray(points)):
        got, want = model.predict(queries), _walk_predict(model, queries)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for tree in model.trees:
            walked = _walk_tree(tree, np.atleast_2d(queries))
            if task == "classification":
                walked = walked.astype(np.int64)
            assert tree.predict(queries).tobytes() == walked.tobytes()
    if task == "classification" and n_trees == 2:
        pred = np.array([tree.predict(points) for tree in model.trees])
        assert np.any(pred[0] != pred[1])  # some point's vote ties


def _tables(model):
    return [[getattr(t.root, k).tolist() for k in ("feature", "threshold", "right", "n_samples", "value")]
            for t in model.trees]


@pytest.mark.parametrize("task, d", [("regression", 3), ("classification", 2)])
def test_first_trees_equal_a_smaller_forest(task, d):
    rng = np.random.default_rng(3)
    x = np.round(rng.normal(size=(60, d)), 1)
    y = x[:, 0] - x[:, -1] if task == "regression" else (x[:, 0] > 0).astype(np.int64)
    full = fit_random_forest(x, y, ForestConfig(n_trees=100, seed=9, task=task))
    for k in (1, 7, 40):
        assert _tables(fit_random_forest(x, y, ForestConfig(n_trees=k, seed=9, task=task))) \
            == _tables(full)[:k]


@pytest.mark.parametrize("task, d", [("regression", 3), ("classification", 2)])
def test_forest_does_not_depend_on_block_size(task, d, monkeypatch):
    rng = np.random.default_rng(4)
    x = np.round(rng.normal(size=(70, d)), 1)
    y = x[:, 0] * x[:, 1] if task == "regression" else (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    config = ForestConfig(n_trees=12, seed=2, task=task)
    forests = []
    # 1, 3, 11 and 12 trees per block: blocks count each bootstrap's
    # distinct rows
    for rows in (1, 150, 500, 10**6):
        monkeypatch.setattr(forest_module, "_BLOCK_ROWS", rows)
        forests.append(_tables(fit_random_forest(x, y, config)))
    assert all(f == forests[0] for f in forests[1:])


def test_forest_draws_from_a_fixed_number_of_generators(monkeypatch):
    """A forest's bootstraps and candidate keys come from streams of one
    generator, however many trees it grows."""
    rng = np.random.default_rng(8)
    x = np.round(rng.normal(size=(50, 3)), 1)
    y = x[:, 0] - x[:, 1] * x[:, 2]
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args) or default_rng(*args))
    calls = []
    for n_trees in (1, 200):
        made.clear()
        fit_random_forest(x, y, ForestConfig(n_trees=n_trees, seed=5, task="regression"))
        calls.append(len(made))
    assert calls[0] == calls[1]


def test_classification_forest_fit_peak_memory():
    """As below, for eval's forests: two features, none subsampled."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(900, 2))
    y = (x[:, 0] + 0.5 * rng.normal(size=900) > 0).astype(np.int64) + (x[:, 1] > 0.8)
    tracemalloc.start()
    try:
        fit_random_forest(x, y, ForestConfig(n_trees=100, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_forest_fit_peak_memory():
    """The grower's working memory stays small next to the fitted model."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(900, 3))
    y = np.sin(x[:, 0]) + x[:, 1] * x[:, 2]
    tracemalloc.start()
    try:
        fit_random_forest(x, y, ForestConfig(n_trees=100, seed=1, task="regression"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_forest_grid_peak_memory():
    """A boundary grid paints the votes of classes >= 1 only: class 0's
    are the complement, so a binary forest paints one layer, not two."""
    x, y = clustered_training_set(630, seed=630)
    model = fit_random_forest(x, y, ForestConfig(n_trees=100, seed=1))
    xc, yc, _ = boundary_grid(model, x, 300)
    tracemalloc.start()
    try:
        model.predict_grid(xc, yc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("labels", [(0, 10**4), (0, 7, 10**4)])
def test_large_labels_vote_over_the_classes_present(labels):
    """Votes are counted over the classes the leaves hold, so a label's
    value sets no array: with labels {0, 1e4} a grid paints one layer,
    not 9,999, and within `test_forest_grid_peak_memory`'s bound. The
    trees are those of labels 0, 1, ..., so every answer is theirs,
    relabelled, and the grid is `predict` at its centres."""
    centers = [(-20.0, 5.0), (15.0, 15.0), (5.0, -20.0)]
    x, cluster = make_blobs(centers, n_per=60, sd=8.0, seed=8)
    y = cluster % len(labels)
    config = ForestConfig(n_trees=20, seed=2)
    small = fit_random_forest(x, y, config)
    large = fit_random_forest(x, np.array(labels)[y], config)
    xc, yc, _ = boundary_grid(small, x, 60)
    tracemalloc.start()
    try:
        grid = large.predict_grid(xc, yc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert grid.dtype == np.int64
    assert np.array_equal(grid, np.array(labels)[small.predict_grid(xc, yc)])
    centres = np.column_stack([np.tile(xc, yc.size), np.repeat(yc, xc.size)])
    assert np.array_equal(grid.ravel(), large.predict(centres))
    assert set(np.unique(grid, return_counts=True)[0]) == set(labels)


@pytest.fixture(scope="module", params=["eval", "explain"])
def joined_forest(request):
    """A forest grown in several blocks and joined into one table: eval's
    (N = 900, d = 2, classification) or explain's two-output regressor
    (N = 900, d = 3)."""
    rng = np.random.default_rng(11)
    blocks = []
    grow_trees = forest_module.grow_trees
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_module, "grow_trees", lambda *args: blocks.append(1) or grow_trees(*args))
        if request.param == "eval":
            x = rng.normal(size=(900, 2))
            y = (x[:, 0] + 0.5 * rng.normal(size=900) > 0).astype(np.int64) + (x[:, 1] > 0.8)
            model = fit_random_forest(x, y, ForestConfig(seed=1))
        else:
            x = rng.normal(size=(900, 3))
            coords = np.column_stack([3.0 * np.sin(x[:, 0]), x[:, 1] * x[:, 2]])
            model = fit_coordinate_regressors(x, coords, SensitivityConfig())
    assert len(blocks) > 1
    return model


def _same_table(a: NodeTable, b: NodeTable) -> bool:
    return all((u is None and v is None) or (u is not None and v is not None and u.dtype == v.dtype
                                              and u.shape == v.shape and u.tobytes() == v.tobytes())
               for u, v in zip(vars(a).values(), vars(b).values()))


def test_the_trees_restack_into_the_forests_one_table(joined_forest):
    model = joined_forest
    trees = model.trees
    assert len(trees) == model.roots.size == 100
    restacked = forest_of([t.root for t in trees], model.config.task, model.n_features,
                          model.n_classes)
    assert _same_table(restacked.root, model.root)
    assert restacked.roots.tobytes() == model.roots.tobytes()


def test_each_tree_view_indexes_within_its_tree(joined_forest):
    for tree in joined_forest.trees:
        table = tree.root
        internal = np.flatnonzero(table.feature >= 0)
        assert tree.roots.tolist() == [0]
        assert np.all(table.right[table.feature < 0] == -1)
        assert np.all((table.right[internal] > internal + 1)
                      & (table.right[internal] < table.feature.size))


def test_a_saved_forest_loads_its_one_table_bit_for_bit(joined_forest):
    if joined_forest.config.task != "classification":  # model files hold one value per node
        with pytest.raises(DataError, match="multi-output"):
            model_to_dict(joined_forest)
        return
    loaded = model_from_dict(model_to_dict(joined_forest))
    assert _same_table(loaded.root, joined_forest.root)
    assert loaded.roots.dtype == joined_forest.roots.dtype
    assert loaded.roots.tobytes() == joined_forest.roots.tobytes()


def test_a_large_class_label_costs_only_its_table():
    """The scorer sums over the classes present, so labels {0, 1e4} grow
    the trees of labels {0, 1}; only the stored counts have a column per
    class. Summing over all 10,001 classes took 1.7 s and 10 MiB."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 2))
    y = (x[:, 0] + 0.5 * rng.normal(size=30) > 0).astype(np.int64)
    config = ForestConfig(n_trees=3, seed=1)
    tracemalloc.start()
    try:
        large = fit_random_forest(x, y * 10**4, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
    small = fit_random_forest(x, y, config)
    for key in ("feature", "threshold", "right", "n_samples"):
        assert getattr(large.root, key).tobytes() == getattr(small.root, key).tobytes()
    assert np.array_equal(large.root.counts[:, [0, 10**4]], small.root.counts)
    assert np.array_equal(large.root.value, small.root.value * 10**4)
