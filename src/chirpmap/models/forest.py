"""Random forests over the decision trees in tree.py.

A forest keeps one `NodeTable`, `root`, with every tree's nodes end to
end, and `roots`, the node each tree starts at; a tree is a forest of
one (`fit_tree`), and `trees` gives each tree of a forest as one.
`ForestConfig` is where a tree's task and depth cap are declared and
checked, for a forest and for a tree alike. Both fits read their
training set through `inputs.training_set`: class labels are
nonnegative integers, and a regression target is (n,) or (n, q).

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

`predict` routes every point down every tree in one `route_trees` call
over the one table; boundary grids are painted from its leaf boxes
instead (`predict_grid`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import DataError
from .inputs import query_points, training_set
from .tree import NodeTable, grow_trees, leaf_boxes, route_trees

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
    root: NodeTable  # every tree's nodes, tree after tree
    roots: np.ndarray  # int64: the node each tree starts at
    config: ForestConfig
    n_features: int
    n_classes: int  # 0 for regression

    kind = "random_forest"

    @property
    def trees(self) -> list[RandomForestModel]:
        """Each tree as a forest of one, its child indices within the tree;
        every array but `right` is a view of this forest's."""
        config = replace(self.config, n_trees=1)
        ends = [*self.roots[1:].tolist(), self.root.feature.size]
        trees = []
        for lo, hi in zip(self.roots.tolist(), ends):
            table = NodeTable(**{k: a if a is None else a[lo:hi] for k, a in vars(self.root).items()})
            table.right = np.where(table.feature >= 0, table.right - lo, -1)
            trees.append(RandomForestModel(table, np.zeros(1, dtype=np.int64), config,
                                           self.n_features, self.n_classes))
        return trees

    def predict(self, points) -> np.ndarray:
        """Route every point down every tree at once (`route_trees`); the
        votes are integers, and the regression mean adds the trees' outputs
        one tree at a time in tree order, with the bits of walking each tree.
        A forest on a q-column target answers (N, q), every output from
        the one routing."""
        x = query_points(points, self.n_features)
        value = self.root.value[route_trees(self.root, self.roots, x)]  # (trees, points)
        if self.config.task == "regression":
            return sum(value, np.zeros(value.shape[1:])) / self.roots.size
        votes = [np.count_nonzero(value == c, axis=0) for c in range(self.n_classes)]
        return np.argmax(votes, axis=0)  # first max: ties go to class 0

    def predict_grid(self, xc, yc) -> np.ndarray:
        """`predict` at every (xc[col], yc[row]) of ascending axes, as a
        (len(yc), len(xc)) array, painted from the leaf boxes.

        Every grid point lies in exactly one leaf of each tree. Each leaf
        of a class c >= 1 adds one vote to layer c - 1 over its box
        (`paint_boxes`), and class 0's votes are the trees left over:
        the number of trees minus the painted votes. The votes are the integers
        `predict` counts, and a scan over the classes keeps the first
        maximum, so ties go to the lower class as in `predict`.
        """
        if self.config.task != "classification" or self.n_features != 2:
            raise DataError("grid prediction needs a classification forest over 2 features")
        axes = [np.asarray(a, dtype=np.float64) for a in (yc, xc)]
        if any(np.any(np.diff(a) < 0) for a in axes):
            raise DataError("grid axes must be ascending")
        lo, hi, value = leaf_boxes(self.root, 2)
        painted = value > 0
        ranges = [box_ranges(a, lo[painted, k], hi[painted, k]) for a, k in zip(axes, (1, 0))]
        votes = paint_boxes(ranges, [a.size for a in axes],
                            layer=value[painted].astype(np.int64) - 1, n_layers=self.n_classes - 1)
        best = self.roots.size - votes.sum(axis=0)
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


def fit_random_forest(x, y, config: ForestConfig = ForestConfig()) -> RandomForestModel:
    x, y, n_classes = training_set(x, y, config.task)
    n, d = x.shape
    if n_classes and n > 1 and y.min() == y.max():
        raise DataError("forest training needs both classes present")
    m_features = math.ceil(math.sqrt(d))
    boot_rng, key_rng = np.random.default_rng(config.seed).spawn(2)
    boots = boot_rng.integers(0, n, size=(config.n_trees, n))
    # a tree grows on its bootstrap's distinct rows, on average
    # n (1 - (1 - 1/n)^n) of them, about 63%
    rows_per_tree = n * (1.0 - (1.0 - 1.0 / n) ** n)
    block = max(1, int(_BLOCK_ROWS // rows_per_tree))
    blocks, roots, n_nodes = [], [], 0
    for lo in range(0, config.n_trees, block):
        block_boots = boots[lo:lo + block]
        keys = key_rng.random((block_boots.shape[0], n - 1, d)) if m_features < d else None
        table, block_roots = grow_trees(x, y, block_boots, n_classes, config.max_depth, keys,
                                        m_features)
        table.right[table.feature >= 0] += n_nodes  # into the joined table
        block_roots += n_nodes
        roots.append(block_roots)
        n_nodes += table.feature.size
        blocks.append(vars(table))
    # joined field by field, each block's arrays dropped once joined: a
    # copy of the whole table at once would hold it twice
    joined = {}
    for key in list(blocks[0]):
        parts = [b.pop(key) for b in blocks]
        joined[key] = None if parts[0] is None else np.concatenate(parts)
    return RandomForestModel(root=NodeTable(**joined), roots=np.concatenate(roots), config=config,
                             n_features=d, n_classes=n_classes)


def fit_tree(
    x,
    y,
    config: ForestConfig = ForestConfig(),
    rng: np.random.Generator | None = None,
    m_features: int | None = None,
) -> RandomForestModel:
    """Grow one tree on all rows of (x, y), as a forest of one: the task
    and depth cap are `config`'s, and the model keeps it with n_trees 1.
    Given `rng` and `m_features` below the feature count d, one
    `rng.random((1, n - 1, d))` draw gives the candidate keys of
    `grow_trees`; by default every feature is a candidate.
    """
    x, y, n_classes = training_set(x, y, config.task)
    n, d = x.shape
    keys = None
    if m_features is not None:
        m_features = max(1, min(m_features, d))
        if rng is not None and m_features < d:
            keys = rng.random((1, n - 1, d))
    root, roots = grow_trees(x, y, np.arange(n), n_classes, config.max_depth, keys, m_features)
    return RandomForestModel(root=root, roots=roots, config=replace(config, n_trees=1),
                             n_features=d, n_classes=n_classes)


__all__ = ["ForestConfig", "RandomForestModel", "box_ranges", "fit_random_forest", "fit_tree",
           "paint_boxes"]
