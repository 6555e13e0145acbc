"""k-nearest-neighbor classification with explicit tie rules.

Prediction is the majority vote among the k Euclidean-nearest training
points. Equal distances are resolved toward the lower training-row
index (stable sort order); vote ties are resolved to the class of the
single nearest neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise DataError("k must be >= 1")


@dataclass
class KnnModel:
    x: np.ndarray
    y: np.ndarray
    config: KnnConfig

    kind = "knn"

    def predict(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        k = self.config.k
        n_classes = max(2, int(self.y.max()) + 1)
        out = np.empty(p.shape[0], dtype=np.int64)
        sq_train = np.sum(self.x * self.x, axis=1)
        for start in range(0, p.shape[0], 2048):
            chunk = p[start : start + 2048]
            d2 = (
                np.sum(chunk * chunk, axis=1)[:, None]
                + sq_train[None, :]
                - 2.0 * (chunk @ self.x.T)
            )
            neigh = self.y[_nearest(d2, k)]
            m = neigh.shape[0]
            counts = np.zeros((m, n_classes), dtype=np.int64)
            np.add.at(counts, (np.repeat(np.arange(m), k), neigh.ravel()), 1)
            pred = np.argmax(counts, axis=1)
            top = counts.max(axis=1)
            tied = (counts == top[:, None]).sum(axis=1) > 1
            pred[tied] = neigh[tied, 0]
            out[start : start + 2048] = pred
        return out


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k smallest entries in (value, index)
    order: the first k of a stable argsort, found by partitioning."""
    cand = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    cand_d2 = np.take_along_axis(d2, cand, axis=1)
    # a stable sort of index-ordered candidates breaks distance ties by index
    order = np.take_along_axis(cand, np.argsort(cand_d2, axis=1, kind="stable"), axis=1)
    # where the k-th distance is tied beyond the candidates, the partition
    # chose among the tied indices arbitrarily: sort those rows in full
    kth = cand_d2.max(axis=1)
    tied = np.count_nonzero(d2 <= kth[:, None], axis=1) > k
    if tied.any():
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return order


def fit_knn(x, y, config: KnnConfig = KnnConfig()) -> KnnModel:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if y.shape[0] != x.shape[0]:
        raise DataError("labels misaligned with rows")
    if config.k > x.shape[0]:
        raise DataError(f"k={config.k} exceeds training size {x.shape[0]}")
    return KnnModel(x=x, y=y, config=config)


__all__ = ["KnnConfig", "KnnModel", "fit_knn"]
