"""The level-wise grower against the recursive object-graph grower.

`_reference_grow` and `_reference_best_split` are a former recursive
implementation (per-node stable argsort, one feature at a time), kept
here only as the oracle: every node of every tree must match it exactly.
The reference grows on every repeated row of a bootstrap, so it also
checks that classification trees grown on distinct rows with weights
are the same trees.
With feature subsampling the reference is fed the candidates of the
grower's schedule, drawn independently here one node at a time from a
breadth-first queue (`_queue_schedule`).
"""

from collections import deque

import numpy as np
import pytest

from chirpmap.models import forest as forest_module
from chirpmap.models.forest import ForestConfig, fit_random_forest
from chirpmap.models.tree import TreeConfig, _best_splits, _segment_sums, fit_tree


def _reference_best_split(x, y, idx, features, task, n_classes):
    n = idx.size
    best = None
    y_node = y[idx]
    for f in features:
        vals = x[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cut = np.nonzero(sv[:-1] < sv[1:])[0]
        if cut.size == 0:
            continue
        n_left = cut + 1
        n_right = n - n_left
        ys = y_node[order]
        if task == "classification":
            left_impurity = np.zeros(cut.size)
            right_impurity = np.zeros(cut.size)
            total = np.bincount(ys, minlength=n_classes)
            for c in range(n_classes):
                cum_c = np.cumsum(ys == c)[cut]
                pl = cum_c / n_left
                pr = (total[c] - cum_c) / n_right
                left_impurity += pl * pl
                right_impurity += pr * pr
            weighted = (n_left * (1.0 - left_impurity) + n_right * (1.0 - right_impurity)) / n
        else:
            s = np.cumsum(ys)[cut]
            s2 = np.cumsum(ys * ys)[cut]
            total_s = ys.sum()
            total_s2 = (ys * ys).sum()
            var_left = np.maximum(s2 / n_left - (s / n_left) ** 2, 0.0)
            var_right = np.maximum(
                (total_s2 - s2) / n_right - ((total_s - s) / n_right) ** 2, 0.0
            )
            weighted = (n_left * var_left + n_right * var_right) / n
        j = int(np.argmin(weighted))
        if best is None or weighted[j] < best[0]:
            threshold = (sv[cut[j]] + sv[cut[j] + 1]) / 2.0
            best = (float(weighted[j]), int(f), threshold)
    if best is None:
        return None
    return best[1], best[2]


def _reference_leaf(y_node, task, n_classes):
    if task == "classification":
        counts = np.bincount(y_node, minlength=n_classes)
        return {"n": y_node.size, "value": float(np.argmax(counts)), "counts": counts.tolist()}
    return {"n": y_node.size, "value": float(y_node.mean()), "counts": None}


def _reference_grow(x, y, idx, depth, config, n_classes, features_of, path=""):
    """`features_of(path)` gives the candidates of the node at `path`, a
    string of L and R steps from the root."""
    y_node = y[idx]
    n = idx.size
    if config.task == "classification":
        pure = bool(np.all(y_node == y_node[0]))
    else:
        pure = bool(y_node.max() == y_node.min())
    if pure or n < 2 or (config.max_depth is not None and depth >= config.max_depth):
        return _reference_leaf(y_node, config.task, n_classes)
    split = _reference_best_split(x, y, idx, features_of(path), config.task, n_classes)
    node = _reference_leaf(y_node, config.task, n_classes)
    node["scored"] = True
    if split is None:
        return node
    feature, threshold = split
    mask = x[idx, feature] <= threshold
    node["feature"] = feature
    node["threshold"] = threshold
    node["left"] = _reference_grow(x, y, idx[mask], depth + 1, config, n_classes, features_of,
                                   path + "L")
    node["right"] = _reference_grow(x, y, idx[~mask], depth + 1, config, n_classes, features_of,
                                    path + "R")
    return node


def _queue_schedule(tree, rng, d, m):
    """Candidates of every scored node of `tree`: m of the d features with
    the smallest uniform keys, d keys per node, nodes taken from a FIFO queue."""
    schedule = {}
    queue = deque([(tree, "")])
    while queue:
        node, path = queue.popleft()
        if node.get("scored"):
            schedule[path] = tuple(np.sort(np.argsort(rng.random(d), kind="stable")[:m]).tolist())
        if "feature" in node:
            queue.extend([(node["left"], path + "L"), (node["right"], path + "R")])
    return schedule


def _reference_tree(x, y, config, n_classes, m, make_rng):
    """The reference tree, with the level-order schedule when m < d.

    The schedule of a level depends only on the levels above it, so
    growing on the last schedule and redrawing converges, level by level.
    `make_rng()` returns the generator in the state the tree's draws start.
    """
    d = x.shape[1]
    if m >= d:
        return _reference_grow(x, y, np.arange(x.shape[0]), 0, config, n_classes,
                               lambda path: np.arange(d))
    schedule = {}
    for _ in range(200):
        tree = _reference_grow(x, y, np.arange(x.shape[0]), 0, config, n_classes,
                               lambda path: np.array(schedule.get(path, range(m))))
        drawn = _queue_schedule(tree, make_rng(), d, m)
        if drawn == schedule:
            return tree
        schedule = drawn
    raise AssertionError("schedule did not converge")


def _preorder(node):
    yield node
    if "feature" in node:
        yield from _preorder(node["left"])
        yield from _preorder(node["right"])


def _assert_same_tree(table, reference):
    nodes = list(_preorder(reference))
    assert table.feature.size == len(nodes)
    for i, node in enumerate(nodes):
        assert table.feature[i] == node.get("feature", -1)
        if "feature" in node:
            assert table.threshold[i] == node["threshold"]
            assert table.left[i] == i + 1
        assert table.n_samples[i] == node["n"]
        assert table.value[i] == node["value"]
        if node["counts"] is None:
            assert table.counts is None
        else:
            assert table.counts[i].tolist() == node["counts"]


def _data(task, seed, n=90, d=3):
    rng = np.random.default_rng(seed)
    # rounding makes ties between rows, as standardized integer fields do
    x = np.round(rng.normal(size=(n, d)), 1)
    if task == "classification":
        y = (x[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int64) + (x[:, 1] > 1.0)
    else:
        y = np.sin(2.0 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.1 * rng.normal(size=n)
    return x, y


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("max_depth", [None, 3])
@pytest.mark.parametrize("m_features", [None, 2])
@pytest.mark.parametrize("bootstrap", [False, True])
def test_grower_matches_recursive_reference(task, max_depth, m_features, bootstrap):
    seed = 7 * (max_depth or 1) + (m_features or 0) + 3 * bootstrap
    x, y = _data(task, seed)
    if bootstrap:
        boot = np.random.default_rng(seed).integers(0, x.shape[0], size=x.shape[0])
        x, y = x[boot], y[boot]
    config = TreeConfig(task=task, max_depth=max_depth)
    n_classes = 3 if task == "classification" else 0
    m = x.shape[1] if m_features is None else m_features
    tree = fit_tree(x, y, config, rng=np.random.default_rng(seed), m_features=m_features,
                    n_classes=n_classes or None)
    reference = _reference_tree(x, y, config, n_classes, m, lambda: np.random.default_rng(seed))
    _assert_same_tree(tree.root, reference)


def _repeated_rows(task, seed, n=80, d=3):
    """Rows drawn from 20 distinct ones, on a 0.5 grid, so that bootstraps
    repeat rows many times over and values tie across rows; a few labels
    are redrawn, so equal rows can disagree."""
    x, y = _data(task, seed, n=20, d=d)
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, 20, size=n)
    x, y = np.round(2.0 * x[pick]) / 2.0, y[pick]
    flip = rng.random(n) < 0.15
    y[flip] = rng.permutation(y)[flip]
    return x, y


@pytest.mark.parametrize("task, d, cohort", [
    pytest.param("regression", 3, _data, id="regression-3"),
    pytest.param("classification", 2, _data, id="classification-2"),
    pytest.param("classification", 3, _data, id="classification-3"),
    pytest.param("regression", 3, _repeated_rows, id="regression-3-repeated"),
    pytest.param("classification", 3, _repeated_rows, id="classification-3-repeated"),
])
@pytest.mark.parametrize("block_rows", [1, 10**6])
def test_forest_matches_recursive_reference(task, d, cohort, block_rows, monkeypatch):
    """Every tree of a forest against the reference grown on its bootstrap's
    rows, repeats included: classification grows on distinct rows with
    weights, and with d = 3 draws 2 candidates per node."""
    monkeypatch.setattr(forest_module, "_BLOCK_ROWS", block_rows)
    x, y = cohort(task, 11, n=80, d=d)
    config = ForestConfig(n_trees=6, seed=4, task=task)
    forest = fit_random_forest(x, y, config)
    n_classes = forest.n_classes
    m = int(np.ceil(np.sqrt(d)))
    tree_config = TreeConfig(task=task)
    for tree, seed in zip(forest.trees, np.random.SeedSequence(4).spawn(6)):
        def tree_rng(seed=seed):  # after its bootstrap draw
            rng = np.random.default_rng(seed)
            rng.integers(0, x.shape[0], size=x.shape[0])
            return rng

        boot = np.random.default_rng(seed).integers(0, x.shape[0], size=x.shape[0])
        _assert_same_tree(tree.root, _reference_tree(x[boot], y[boot], tree_config, n_classes, m,
                                                     tree_rng))


def _former_best_split(xt, y, orders, features, task, n_classes, class_totals):
    """The former per-node scorer: every candidate in one (m, n - 1) pass."""
    n = orders.shape[1]
    rows = orders.take(features, axis=0)
    sv = xt[features[:, None], rows]
    ys = y[rows]
    is_cut = sv[:, :-1] < sv[:, 1:]
    n_left = np.arange(1, n)
    n_right = n - n_left
    if task == "classification":
        below = (ys[:, :, None] == np.arange(n_classes)).cumsum(axis=1)[:, :-1]
        pl = below / n_left[:, None]
        pr = (class_totals - below) / n_right[:, None]
        left_sq = pl * pl
        right_sq = pr * pr
        left_impurity = left_sq[:, :, 0]
        right_impurity = right_sq[:, :, 0]
        for c in range(1, n_classes):
            left_impurity = left_impurity + left_sq[:, :, c]
            right_impurity = right_impurity + right_sq[:, :, c]
        weighted = (n_left * (1.0 - left_impurity) + n_right * (1.0 - right_impurity)) / n
    else:
        ys2 = ys * ys
        s = ys.cumsum(axis=1)[:, :-1]
        s2 = ys2.cumsum(axis=1)[:, :-1]
        total_s = ys.sum(axis=1, keepdims=True)
        total_s2 = ys2.sum(axis=1, keepdims=True)
        var_left = np.maximum(s2 / n_left - (s / n_left) ** 2, 0.0)
        var_right = np.maximum(
            (total_s2 - s2) / n_right - ((total_s - s) / n_right) ** 2, 0.0
        )
        weighted = (n_left * var_left + n_right * var_right) / n
    weighted = np.where(is_cut, weighted, np.inf)
    best = None
    for r, j in enumerate(weighted.argmin(axis=1).tolist()):
        if is_cut[r, j] and (best is None or weighted[r, j] < weighted[best]):
            best = (r, j)
    if best is None:
        return -1, 0.0
    r, j = best
    return int(features[r]), float((sv[r, j] + sv[r, j + 1]) / 2.0)


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_batched_scorer_matches_former_per_node_scorer(task):
    """Many nodes of mixed sizes scored in one call, each as if alone:
    near-ties between candidates make any change of bits visible."""
    rng = np.random.default_rng(5)
    d, n_classes = 3, 3
    sizes = np.concatenate([np.arange(2, 40), rng.integers(2, 700, size=30), [129, 128, 257]])
    n = int(sizes.sum())
    xt = np.round(rng.normal(size=(d, n)), 1)
    if task == "classification":
        y = rng.integers(0, n_classes, size=n)
    else:
        y = np.round(rng.normal(size=n), 1) * 10.0 ** rng.integers(-3, 4, size=n)
    starts = np.cumsum(sizes) - sizes
    orders = np.empty((d + 1, n), dtype=np.intp)
    cand = np.sort(np.argsort(rng.random((sizes.size, d)), axis=1)[:, :2], axis=1)
    counts = np.zeros((sizes.size, n_classes), dtype=np.int64)
    expected = []
    for i, (lo, size) in enumerate(zip(starts, sizes)):
        rows = np.arange(lo, lo + size)
        node_orders = np.vstack([rows[np.argsort(xt[:, rows], axis=1, kind="stable")], rows])
        orders[:, lo:lo + size] = node_orders
        if task == "classification":
            counts[i] = np.bincount(y[rows], minlength=n_classes)
        expected.append(_former_best_split(xt, y, node_orders, cand[i], task, n_classes,
                                           counts[i]))
    feature, threshold = _best_splits(xt, y, orders, np.arange(n), sizes, cand,
                                      counts if task == "classification" else None, n_classes)
    assert list(zip(feature.tolist(), threshold.tolist())) == expected
    if task == "classification":
        # the same rows weighted score as those rows repeated, bit for bit
        weights = rng.integers(1, 5, size=n)
        repeated = np.repeat(np.arange(n), weights)
        expected = []
        for i, (lo, size) in enumerate(zip(starts, sizes)):
            rows = np.flatnonzero((repeated >= lo) & (repeated < lo + size))
            node_orders = np.vstack([rows[np.argsort(xt[:, repeated[rows]], axis=1,
                                                     kind="stable")], rows])
            counts[i] = np.bincount(y[repeated[rows]], minlength=n_classes)
            expected.append(_former_best_split(xt[:, repeated], y[repeated], node_orders,
                                               cand[i], task, n_classes, counts[i]))
        feature, threshold = _best_splits(xt, y, orders, np.arange(n), sizes, cand, counts,
                                          n_classes, weights)
        assert list(zip(feature.tolist(), threshold.tolist())) == expected


@pytest.mark.parametrize("channels", [1, 3, 4])
def test_segment_sums_have_the_bits_of_one_dimensional_sums(channels):
    rng = np.random.default_rng(channels)
    sizes = np.concatenate([np.arange(1, 300), rng.integers(1, 1000, size=40), [1, 2, 9, 129]])
    rng.shuffle(sizes)
    values = rng.normal(size=(channels, int(sizes.sum())))
    values *= 10.0 ** rng.integers(-8, 9, size=values.shape)
    values[:, ::7] = -0.0
    starts = np.cumsum(sizes) - sizes
    sums = _segment_sums(values, starts, sizes)
    for c in range(channels):
        expected = [values[c, lo:lo + size].sum() for lo, size in zip(starts, sizes)]
        assert sums[c].tolist() == expected
