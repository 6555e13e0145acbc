"""Greedy binary decision trees stored as flat node tables.

Splits minimize weighted child impurity: Gini for classification,
variance for regression. Candidate thresholds are midpoints between
consecutive sorted unique values; growth stops at a pure node, the
depth cap, or fewer than 2 samples. Ties between equally good splits go
to the lowest feature index, then the lowest threshold.

A fitted tree is one `NodeTable` of per-node arrays in preorder. Growth
is depth-first on an explicit stack, so no depth needs recursion. Each
feature is argsorted once per tree and its order split stably at every
node, which equals a stable argsort of the node's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class TreeConfig:
    task: str = "classification"  # or "regression"
    max_depth: int | None = None

    def __post_init__(self):
        if self.task not in ("classification", "regression"):
            raise DataError(f"unknown tree task {self.task!r}")
        if self.max_depth is not None and self.max_depth < 0:
            raise DataError("max_depth must be nonnegative")


@dataclass
class NodeTable:
    """One tree as parallel per-node arrays, in preorder with the root at 0.

    Leaves have feature -1, threshold 0.0 and left = right = -1; an
    internal node sends x[feature] <= threshold to left (always i + 1)
    and the rest to right.
    """

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64
    right: np.ndarray  # int64
    n_samples: np.ndarray  # int64, training rows reaching the node
    value: np.ndarray  # float64: majority class (classification) or mean target
    counts: np.ndarray | None = None  # (n_nodes, n_classes) int64, classification only

    @classmethod
    def build(cls, feature, threshold, right, n_samples=None, value=None, counts=None):
        """The table from the arrays that cannot be derived: `left` is
        i + 1 at internal nodes, and given `counts` (classification) a
        node's value is its majority class and n_samples the counts' total."""
        feature = np.asarray(feature, dtype=np.int64)
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
            n_samples = counts.sum(axis=1)
            value = counts.argmax(axis=1)  # ties go to the lowest class
        return cls(
            feature=feature,
            threshold=np.asarray(threshold, dtype=np.float64),
            left=np.where(feature >= 0, np.arange(feature.size) + 1, -1),
            right=np.asarray(right, dtype=np.int64),
            n_samples=np.asarray(n_samples, dtype=np.int64),
            value=np.asarray(value, dtype=np.float64),
            counts=counts,
        )


def gini_impurity(counts) -> float:
    """1 - sum_c (n_c / n)^2 over per-class counts; 0 iff pure."""
    c = np.asarray(counts, dtype=np.float64)
    n = c.sum()
    if n < 1:
        raise DataError("gini_impurity needs at least one sample")
    p = c / n
    return float(1.0 - np.sum(p * p))


def _best_split(xt, y, orders, features, task: str, n_classes: int, class_totals):
    """Scan candidate features for the split with lowest weighted impurity.

    `orders[f]` lists the node's rows sorted by feature f. Every candidate
    is scored in one (m, n - 1) pass over the split positions; positions
    between equal values are no candidates. Returns (feature, threshold),
    or None when every candidate column is constant over the node.
    Features are compared in ascending order and improvements must be
    strict, which yields the documented tie-breaking.
    """
    n = orders.shape[1]
    rows = orders.take(features, axis=0)
    sv = xt[features[:, None], rows]
    ys = y[rows]
    is_cut = sv[:, :-1] < sv[:, 1:]  # split after position i
    n_left = np.arange(1, n)
    n_right = n - n_left
    if task == "classification":
        # left-side class counts at every split position, all classes at once
        below = (ys[:, :, None] == np.arange(n_classes)).cumsum(axis=1)[:, :-1]
        pl = below / n_left[:, None]
        pr = (class_totals - below) / n_right[:, None]
        left_sq = pl * pl
        right_sq = pr * pr
        # summed class by class, in the order the impurity formula adds them
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
    # first minimum per feature: lowest threshold wins; a constant column has no cut
    for r, j in enumerate(weighted.argmin(axis=1).tolist()):
        if is_cut[r, j] and (best is None or weighted[r, j] < weighted[best]):
            best = (r, j)
    if best is None:
        return None
    r, j = best
    return int(features[r]), float((sv[r, j] + sv[r, j + 1]) / 2.0)


def _grow(x, y, config: TreeConfig, n_classes: int, rng, m_features: int) -> NodeTable:
    """Depth-first growth in preorder; feature draws follow the same order."""
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
    classify = config.task == "classification"
    subsample = rng is not None and m_features < d
    all_features = np.arange(d)
    goes_left = np.empty(n, dtype=bool)
    # row d of each order block lists the node's rows ascending
    root_orders = np.vstack([np.argsort(xt, axis=1, kind="stable"), np.arange(n)])

    feature, threshold, right, n_samples, value, counts = [], [], [], [], [], []
    stack = [(root_orders, 0, -1)]  # (orders, depth, parent awaiting its right child)
    while stack:
        orders, depth, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        right.append(-1)
        idx = orders[d]
        y_node = y[idx]
        size = idx.size
        class_totals = None
        if classify:
            class_totals = np.bincount(y_node, minlength=n_classes)
            counts.append(class_totals)
            pure = np.count_nonzero(class_totals) == 1
        else:
            n_samples.append(size)
            value.append(float(y_node.sum()) / size)  # what y_node.mean() computes
            pure = size < 2 or y_node.max() == y_node.min()
        if pure or size < 2 or (config.max_depth is not None and depth >= config.max_depth):
            continue
        if subsample:
            features = np.sort(rng.choice(d, size=m_features, replace=False))
        else:
            features = all_features
        split = _best_split(xt, y, orders, features, config.task, n_classes, class_totals)
        if split is None:
            continue
        f, t = split
        goes_left[idx] = xt[f, idx] <= t
        keep = goes_left[orders]
        size_left = int(np.count_nonzero(keep[d]))
        if size_left in (0, size):
            continue  # a midpoint that rounds onto a value separates nothing
        feature[node] = f
        threshold[node] = t
        stack.append((orders[~keep].reshape(d + 1, size - size_left), depth + 1, node))
        stack.append((orders[keep].reshape(d + 1, size_left), depth + 1, -1))
    return NodeTable.build(feature, threshold, right, n_samples, value, counts if classify else None)


@dataclass
class DecisionTree:
    root: NodeTable  # the whole tree; node 0 is the root
    config: TreeConfig
    n_features: int
    n_classes: int  # 0 for regression

    def predict(self, points) -> np.ndarray:
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if x.shape[1] != self.n_features:
            raise DataError(f"expected {self.n_features} features, got {x.shape[1]}")
        out = np.empty(x.shape[0], dtype=np.float64)
        feature = self.root.feature.tolist()
        threshold = self.root.threshold.tolist()
        right = self.root.right.tolist()
        value = self.root.value
        xt = np.ascontiguousarray(x.T)  # free when x is column-major
        stack = [(0, np.arange(x.shape[0]))]
        while stack:
            node, idx = stack.pop()
            f = feature[node]
            if f < 0:
                out[idx] = value[node]
                continue
            column = xt[f] if node == 0 else xt[f].take(idx)  # the root holds every row
            mask = column <= threshold[node]
            right_idx = idx[~mask]
            left_idx = idx[mask]
            if right_idx.size:
                stack.append((right[node], right_idx))
            if left_idx.size:
                stack.append((node + 1, left_idx))
        if self.config.task == "classification":
            return out.astype(np.int64)
        return out


def fit_tree(
    x,
    y,
    config: TreeConfig = TreeConfig(),
    rng: np.random.Generator | None = None,
    m_features: int | None = None,
    n_classes: int | None = None,
) -> DecisionTree:
    """Grow one tree. `rng` plus `m_features` enables per-split feature
    subsampling (used by forests); by default every feature is a candidate.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n < 1:
        raise DataError("fit_tree needs at least one row")
    if config.task == "classification":
        y = np.asarray(y, dtype=np.int64)
        if y.min() < 0:
            raise DataError("class labels must be nonnegative integers")
        if n_classes is None:
            n_classes = max(2, int(y.max()) + 1)
    else:
        y = np.asarray(y, dtype=np.float64)
        n_classes = 0
    if y.shape[0] != n:
        raise DataError("labels misaligned with rows")
    if m_features is None:
        m_features = x.shape[1]
    else:
        m_features = max(1, min(m_features, x.shape[1]))
    root = _grow(x, y, config, n_classes, rng, m_features)
    return DecisionTree(root=root, config=config, n_features=x.shape[1], n_classes=n_classes)


def tree_depth(table: NodeTable) -> int:
    """Edges on the longest root-to-leaf path, walked one level at a time."""
    depth, level = 0, np.zeros(1, dtype=np.int64)
    while True:
        split = level[table.feature[level] >= 0]
        if not split.size:
            return depth
        level = np.concatenate([table.left[split], table.right[split]])
        depth += 1


def count_leaves(table: NodeTable) -> int:
    return int(np.count_nonzero(table.feature < 0))


__all__ = [
    "TreeConfig",
    "NodeTable",
    "DecisionTree",
    "gini_impurity",
    "fit_tree",
    "tree_depth",
    "count_leaves",
]
