"""Random forests over the decision trees in tree.py.

Each tree trains on a bootstrap resample, and every node it scores
draws ceil(sqrt(d)) of the d features uniformly as split candidates.
Classification predicts by majority vote with ties going to the lowest
class index; regression predicts the mean of the tree outputs. A
regression forest fitted on an (n, q) target is one forest for all q
outputs (see `grow_trees`) and predicts (N, q).

A forest draws from two streams spawned off the config seed: one
`integers` call draws every tree's bootstrap, and, when the forest
subsamples features, one `random` call per block of trees draws the
candidate keys (see `grow_trees`). Tree t reads row t of each draw.
Trees grow together in blocks of about `_BLOCK_ROWS` rows; a double
takes one 64-bit output of its stream, so drawing the keys block by
block gives the keys of one draw, and the forest does not depend on the
block size. The first k trees of a forest are the forest of k trees.

A tree grows on its bootstrap's distinct rows, each weighted by its
multiplicity, about 63% of the n rows drawn (Breiman 2001); a node's
sample count is still the number of drawn rows that reach it.

`predict` routes every point down every tree in one `route_trees` call,
over the trees' stacked node tables; boundary grids are painted from the
leaf boxes instead (`predict_grid`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .tree import DecisionTree, NodeTable, TreeConfig, grow_trees, leaf_boxes, route_trees

# distinct rows grown together, on average: bounds the grower's working memory
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    seed: int = 0
    task: str = "classification"

    def __post_init__(self):
        if self.n_trees < 1:
            raise DataError("n_trees must be positive")
        if self.max_depth is not None and self.max_depth < 0:
            raise DataError("max_depth must be nonnegative")
        if self.task not in ("classification", "regression"):
            raise DataError(f"unknown forest task {self.task!r}")


@dataclass
class RandomForestModel:
    trees: list[DecisionTree]
    config: ForestConfig
    n_features: int
    n_classes: int  # 0 for regression

    kind = "random_forest"

    def predict(self, points) -> np.ndarray:
        """Route every point down every tree at once (`route_trees`); the
        votes are integers, and the regression mean adds the trees' outputs
        one tree at a time in tree order, with the bits of walking each tree.
        A forest on a q-column target answers (N, q), every output from
        the one routing."""
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if x.shape[1] != self.n_features:
            raise DataError(f"expected {self.n_features} features, got {x.shape[1]}")
        table = stack_trees(self.trees)
        roots = np.cumsum([0] + [t.root.feature.size for t in self.trees[:-1]])
        value = table.value[route_trees(table, roots, x)]  # (trees, points)
        if self.config.task == "regression":
            return sum(value, np.zeros(value.shape[1:])) / len(self.trees)
        votes = [np.count_nonzero(value == c, axis=0) for c in range(self.n_classes)]
        return np.argmax(votes, axis=0)  # first max: ties go to class 0

    def predict_grid(self, xc, yc) -> np.ndarray:
        """`predict` at every (xc[col], yc[row]) of ascending axes, as a
        (len(yc), len(xc)) array, painted from the leaf boxes.

        Every grid point lies in exactly one leaf of each tree. Each leaf
        of a class c >= 1 adds one vote to layer c - 1 over its box
        (`paint_boxes`), and class 0's votes are the trees left over:
        len(trees) minus the painted votes. The votes are the integers
        `predict` counts, and a scan over the classes keeps the first
        maximum, so ties go to the lower class as in `predict`.
        """
        if self.config.task != "classification" or self.n_features != 2:
            raise DataError("grid prediction needs a classification forest over 2 features")
        axes = [np.asarray(a, dtype=np.float64) for a in (yc, xc)]
        if any(np.any(np.diff(a) < 0) for a in axes):
            raise DataError("grid axes must be ascending")
        lo, hi, value = leaf_boxes(stack_trees(self.trees), 2)
        painted = value > 0
        ranges = [box_ranges(a, lo[painted, k], hi[painted, k]) for a, k in zip(axes, (1, 0))]
        votes = paint_boxes(ranges, [a.size for a in axes],
                            layer=value[painted].astype(np.int64) - 1, n_layers=self.n_classes - 1)
        best = len(self.trees) - votes.sum(axis=0)
        classes = np.zeros_like(best)
        for c, layer in enumerate(votes, start=1):
            classes[layer > best] = c
            np.maximum(best, layer, out=best)
        return classes


def box_ranges(axis, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The points of the ascending `axis` that each box lo < p <= hi holds,
    as index ranges [start, stop). On a sorted axis, p <= t holds exactly
    for the indices below searchsorted(axis, t, side="right"); an empty
    box (hi <= lo) gets zero width."""
    start = np.searchsorted(axis, lo, side="right")
    return start, np.maximum(np.searchsorted(axis, hi, side="right"), start)


def paint_boxes(ranges, sizes, weights=None, layer=None, n_layers: int = 1) -> np.ndarray:
    """The sum of the weights of the boxes that hold each point of a grid
    of sizes[k] points along axis k: an (n_layers, *sizes) array in which
    box i adds weights[i] (an integer 1 without weights) to layer[i]
    (layer 0 without layers).

    Box i holds the points whose index on axis k lies in
    [ranges[k][0][i], ranges[k][1][i]) (`box_ranges`), so it adds at the
    corners of a difference array whose running sums along every axis
    paint it.
    """
    start, stop = zip(*ranges)
    shape = (n_layers, *(size + 1 for size in sizes))
    layer = np.zeros(start[0].size, dtype=np.int64) if layer is None else layer
    painted = None
    for corner in itertools.product((0, 1), repeat=len(sizes)):
        at = np.ravel_multi_index(
            (layer, *(stop[k] if c else start[k] for k, c in enumerate(corner))), shape)
        added = np.bincount(at, weights, minlength=math.prod(shape))
        if painted is None:
            painted = added
        elif sum(corner) % 2:
            painted -= added
        else:
            painted += added
    painted = painted.reshape(shape)
    for axis in range(1, painted.ndim):
        np.cumsum(painted, axis=axis, out=painted)
    return painted[(slice(None),) + (slice(-1),) * len(sizes)]


def stack_trees(trees: list[DecisionTree]) -> NodeTable:
    """The trees' node tables end to end, child indices shifted to match:
    one table whose roots are the trees' roots."""
    sizes = [t.root.feature.size for t in trees]
    shift = np.repeat(np.cumsum(sizes) - sizes, sizes)
    feature = np.concatenate([t.root.feature for t in trees])
    right = np.concatenate([t.root.right for t in trees])
    return NodeTable.build(
        feature=feature,
        threshold=np.concatenate([t.root.threshold for t in trees]),
        right=np.where(feature >= 0, right + shift, -1),
        n_samples=np.concatenate([t.root.n_samples for t in trees]),
        value=np.concatenate([t.root.value for t in trees]),
    )


def fit_random_forest(x, y, config: ForestConfig = ForestConfig()) -> RandomForestModel:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, d = x.shape
    if n < 1:
        raise DataError("fit_random_forest needs at least one row")
    if config.task == "classification":
        y = np.asarray(y, dtype=np.int64)
        # return_counts: plain np.unique imports numpy.ma (numpy >= 2)
        if n > 1 and np.unique(y, return_counts=True)[0].size < 2:
            raise DataError("forest training needs both classes present")
        n_classes = max(2, int(y.max()) + 1)
    else:
        y = np.asarray(y, dtype=np.float64)
        n_classes = 0
        if y.ndim not in (1, 2) or y.size == 0:
            raise DataError("a regression target must have shape (n,) or (n, q) with q >= 1")
    if y.shape[0] != n:
        raise DataError("labels misaligned with rows")

    m_features = math.ceil(math.sqrt(d))
    tree_config = TreeConfig(task=config.task, max_depth=config.max_depth)
    boot_rng, key_rng = np.random.default_rng(config.seed).spawn(2)
    boots = boot_rng.integers(0, n, size=(config.n_trees, n))
    # a tree grows on its bootstrap's distinct rows, on average
    # n (1 - (1 - 1/n)^n) of them, about 63%
    rows_per_tree = n * (1.0 - (1.0 - 1.0 / n) ** n)
    block = max(1, int(_BLOCK_ROWS // rows_per_tree))
    trees: list[DecisionTree] = []
    for lo in range(0, config.n_trees, block):
        block_boots = boots[lo:lo + block]
        keys = key_rng.random((block_boots.shape[0], n - 1, d)) if m_features < d else None
        tables = grow_trees(x, y, block_boots, tree_config, n_classes, keys, m_features)
        trees += [DecisionTree(root=t, config=tree_config, n_features=d, n_classes=n_classes)
                  for t in tables]
    return RandomForestModel(trees=trees, config=config, n_features=d, n_classes=n_classes)


__all__ = ["ForestConfig", "RandomForestModel", "box_ranges", "fit_random_forest", "paint_boxes",
           "stack_trees"]
