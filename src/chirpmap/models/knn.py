"""k-nearest-neighbor classification with explicit tie rules.

Prediction is the majority vote among the k Euclidean-nearest training
points. Equal distances are resolved toward the lower training-row
index (stable sort order); vote ties are resolved to the class of the
single nearest neighbor.

Queries are processed in chunks of about `_CHUNK_ENTRIES` distances.
Each chunk's squared distances are written into two buffers allocated
once per `predict` call, and the k neighbours are picked by k rounds of
argmin: k passes over the chunk instead of a sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distances import squared_distances
from ..errors import DataError

# distances per query chunk; the chunk height only bounds memory, since
# every distance has the same bits under any split of the queries
_CHUNK_ENTRIES = 65536


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
        rows = max(1, _CHUNK_ENTRIES // self.x.shape[0])
        d2_buf = np.empty((min(p.shape[0], rows), self.x.shape[0]))
        work_buf = np.empty_like(d2_buf)
        for start in range(0, p.shape[0], rows):
            chunk = p[start : start + rows]
            m = chunk.shape[0]
            d2, work = d2_buf[:m], work_buf[:m]
            squared_distances(chunk, self.x, out=d2, scratch=work)
            neigh = self.y[_nearest(d2, k, work=work)]
            counts = np.zeros((m, n_classes), dtype=np.int64)
            np.add.at(counts, (np.repeat(np.arange(m), k), neigh.ravel()), 1)
            pred = np.argmax(counts, axis=1)
            top = counts.max(axis=1)
            tied = (counts == top[:, None]).sum(axis=1) > 1
            pred[tied] = neigh[tied, 0]
            out[start : start + m] = pred
        return out


def _nearest(d2: np.ndarray, k: int, work: np.ndarray | None = None) -> np.ndarray:
    """Per row, the indices of the k smallest entries in (value, index)
    order: the first k of a stable argsort.

    `np.argmin` returns the first minimum, so k rounds of "argmin, then
    set that entry to +inf" give the stable order with ties going to the
    lower index. The rounds run on a copy (in `work` if given, which must
    have d2's shape); d2 itself is left unchanged. A row where some round's
    minimum is not finite (a NaN or -inf, or +inf, which cannot be told
    from an entry already taken) is sorted in full instead.
    """
    if work is None:
        work = d2.copy()
    else:
        np.copyto(work, d2)
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
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if y.shape[0] != x.shape[0]:
        raise DataError("labels misaligned with rows")
    if config.k > x.shape[0]:
        raise DataError(f"k={config.k} exceeds training size {x.shape[0]}")
    return KnnModel(x=x, y=y, config=config)


__all__ = ["KnnConfig", "KnnModel", "fit_knn"]
