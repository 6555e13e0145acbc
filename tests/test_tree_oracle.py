"""The flat-table grower against the recursive object-graph grower it replaced.

`_reference_grow` and `_reference_best_split` are the former recursive
implementation (per-node stable argsort, one feature at a time), kept
here only as the oracle: every node of every tree must match it exactly.
"""

import numpy as np
import pytest

from chirpmap.models.tree import TreeConfig, fit_tree


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


def _reference_grow(x, y, idx, depth, config, n_classes, rng, m_features):
    y_node = y[idx]
    n = idx.size
    if config.task == "classification":
        pure = bool(np.all(y_node == y_node[0]))
    else:
        pure = bool(y_node.max() == y_node.min())
    if pure or n < 2 or (config.max_depth is not None and depth >= config.max_depth):
        return _reference_leaf(y_node, config.task, n_classes)
    d = x.shape[1]
    if rng is not None and m_features < d:
        features = np.sort(rng.choice(d, size=m_features, replace=False))
    else:
        features = np.arange(d)
    split = _reference_best_split(x, y, idx, features, config.task, n_classes)
    if split is None:
        return _reference_leaf(y_node, config.task, n_classes)
    feature, threshold = split
    mask = x[idx, feature] <= threshold
    node = _reference_leaf(y_node, config.task, n_classes)
    node["feature"] = feature
    node["threshold"] = threshold
    node["left"] = _reference_grow(x, y, idx[mask], depth + 1, config, n_classes, rng, m_features)
    node["right"] = _reference_grow(x, y, idx[~mask], depth + 1, config, n_classes, rng, m_features)
    return node


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
    reference = _reference_grow(x, y, np.arange(x.shape[0]), 0, config, n_classes,
                                np.random.default_rng(seed), m)
    _assert_same_tree(tree.root, reference)
