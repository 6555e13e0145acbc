"""k-nearest-neighbor classification with explicit tie rules.

Prediction is the majority vote among the k Euclidean-nearest training
points. Equal distances are resolved toward the lower training-row
index (stable sort order); vote ties are resolved to the class of the
single nearest neighbor.

`predict` takes every query's squared distances in one call and picks
the k neighbours by k rounds of argmin: k passes over the distances
instead of a sort.

`predict_grid` gives `predict`'s answers on a grid of centres. Exact
bounds on every distance within a grid tile certify which training
points can be a neighbour of any of the tile's centres: the tile's
candidates. A tile whose candidates all share one class is filled with
that class, since every centre's k neighbours vote it unanimously; each
other tile is answered by `predict` on a model of its candidates alone.

A model, fitted or loaded, holds a training set that meets
`inputs.training_set` (rows, and one nonnegative integer class label
per row) and an integer k with 1 <= k <= rows; anything else raises
`DataError` on construction. Votes are counted over the labels the
training set holds, in ascending order, so no array grows with a
label's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distances import squared_distances
from ..errors import DataError
from .inputs import query_points, training_set

# grid centres per tile side in `predict_grid`
_TILE = 16


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5

    def __post_init__(self):
        if type(self.k) is not int or self.k < 1:
            raise DataError(f"k must be an integer >= 1, got {self.k!r}")


@dataclass
class KnnModel:
    x: np.ndarray
    y: np.ndarray
    config: KnnConfig
    classes: np.ndarray = field(init=False, repr=False)  # the distinct labels, ascending
    codes: np.ndarray = field(init=False, repr=False)  # each row's label's index in classes

    kind = "knn"

    def __post_init__(self):
        self.x, self.y, _ = training_set(self.x, self.y, "classification")
        self.classes, self.codes = np.unique(self.y, return_inverse=True)
        if self.config.k > self.x.shape[0]:
            raise DataError(f"k={self.config.k} exceeds training size {self.x.shape[0]}")

    def predict(self, points) -> np.ndarray:
        p = query_points(points, self.x.shape[1])
        return self._vote(_nearest(squared_distances(p, self.x), self.config.k))

    def predict_grid(self, xc, yc) -> np.ndarray:
        """The classes `predict` gives at every (xc[col], yc[row]), as a
        (len(yc), len(xc)) array.

        The grid is cut into `_TILE` x `_TILE` tiles. Rounding is monotone,
        so the distance terms computed at a tile's extreme centres bound
        from below and above every distance `squared_distances` computes
        for a point of the tile, exactly. The k-th smallest upper bound is
        then at least every point's k-th smallest distance, and a training
        point whose lower bound exceeds it is no point's neighbour. The
        other training points are the tile's candidates, in ascending row
        order, so picking among them keeps the stable first k.

        When every candidate of a tile has one class, each centre's k
        neighbours all have it: no vote tie can arise, and the tile is
        filled with that class without computing a distance. Each other
        tile's centres go through `predict` on a model of the tile's
        candidates alone: its distances have the full model's bits, and
        its vote, ties included, is the full model's.
        """
        if self.x.shape[1] != 2:
            raise DataError("grid prediction needs a model over 2 features")
        xc = np.asarray(xc, dtype=np.float64)
        yc = np.asarray(yc, dtype=np.float64)
        k = self.config.k
        n_tiles = -(-xc.size // _TILE)
        # the last tile repeats the last centre, which leaves its extremes as they are
        x_tiles = np.concatenate([xc, np.repeat(xc[-1:], n_tiles * _TILE - xc.size)])
        x_tiles = x_tiles.reshape(n_tiles, _TILE)
        x_lower, x_upper = _term_bounds(x_tiles, self.x[:, 0])
        onehot = self.codes[:, None] == np.arange(self.classes.size)
        out = np.empty((yc.size, n_tiles, _TILE), dtype=np.int64)
        for r0 in range(0, yc.size, _TILE):
            rows = yc[r0 : r0 + _TILE]
            y_lower, y_upper = _term_bounds(rows[None], self.x[:, 1])
            cutoff = np.partition(x_upper + y_upper, k - 1, axis=1)[:, k - 1]
            keep = x_lower + y_lower <= cutoff[:, None]
            # a tile whose candidates share one class votes it at every centre
            present = keep @ onehot
            one_class = present.sum(axis=1) == 1
            pred = np.empty((n_tiles, _TILE * rows.size), dtype=np.int64)
            pred[one_class] = self.classes[present[one_class].argmax(axis=1)][:, None]
            for t in np.flatnonzero(~one_class):  # the tile's centres, row-major
                points = np.column_stack([np.tile(x_tiles[t], rows.size), np.repeat(rows, _TILE)])
                pred[t] = KnnModel(self.x[keep[t]], self.y[keep[t]], self.config).predict(points)
            out[r0 : r0 + rows.size] = pred.reshape(n_tiles, rows.size, _TILE).transpose(1, 0, 2)
        return out.reshape(yc.size, -1)[:, : xc.size]

    def _vote(self, order: np.ndarray) -> np.ndarray:
        """The majority class among each row's neighbours (training rows,
        nearest first); a vote tie goes to the nearest neighbour's class.
        Votes count by index into `classes`, which ascends with the
        labels, so the first of equal counts is still the lowest label."""
        neigh = self.codes[order]
        m, n_classes = neigh.shape[0], self.classes.size
        counts = np.bincount((np.arange(m)[:, None] * n_classes + neigh).ravel(),
                             minlength=m * n_classes).reshape(m, n_classes)
        pred = np.argmax(counts, axis=1)
        top = counts.max(axis=1)
        tied = (counts == top[:, None]).sum(axis=1) > 1
        pred[tied] = neigh[tied, 0]
        return self.classes[pred]


def _term_bounds(tiles: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per tile (a row of centres on one axis) and training coordinate t_j,
    bounds on the term (c - t_j)^2 that `squared_distances` computes for
    any centre c of the tile, taken at the tile's extreme centres: an
    interval straddling 0 bounds it below by 0. The helper's rank-2
    product rounds c - t_j exactly as this subtraction does."""
    below = np.subtract.outer(tiles.min(axis=1), t)
    above = np.subtract.outer(tiles.max(axis=1), t)
    straddle = (below <= 0.0) & (above >= 0.0)
    below *= below
    above *= above
    lower = np.minimum(below, above)
    lower[straddle] = 0.0
    return lower, np.maximum(below, above)


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k smallest entries in (value, index)
    order: the first k of a stable argsort.

    `np.argmin` returns the first minimum, so k rounds of "argmin, then
    set that entry to +inf" give the stable order with ties going to the
    lower index. The rounds run on a copy, and d2 itself is left
    unchanged. A row where some round's minimum is not finite (a NaN or
    -inf, or +inf, which cannot be told from an entry already taken) is
    sorted in full instead, from d2.
    """
    work = d2.copy()
    rows = np.arange(d2.shape[0])
    order = np.empty((d2.shape[0], k), dtype=np.intp)
    finite = np.ones(d2.shape[0], dtype=bool)
    for j in range(k):
        col = np.argmin(work, axis=1)
        order[:, j] = col
        finite &= np.isfinite(work[rows, col])
        work[rows, col] = np.inf
    if not finite.all():
        order[~finite] = np.argsort(d2[~finite], axis=1, kind="stable")[:, :k]
    return order


def fit_knn(x, y, config: KnnConfig = KnnConfig()) -> KnnModel:
    return KnnModel(x=x, y=y, config=config)


__all__ = ["KnnConfig", "KnnModel", "fit_knn"]
