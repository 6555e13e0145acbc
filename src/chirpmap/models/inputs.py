"""The models' input contract: one check of a training set, read by every
fit and by the k-NN and SVM models, and one check of query points, read
by every `predict` and `decision_function` and by explain's subset values.

A training set is x, float64 rows (at least one, none of them empty),
and y, one label per row. By task:

- "classification" (forests, trees, k-NN): y is a 1-D array of
  nonnegative integer class labels. A float label must be a whole
  number: 0.5 is refused, not truncated.
- "binary" (SVM, logistic regression): the same, and every label is 0
  or 1.
- "regression" (forests): y is a real target of shape (n,) or (n, q)
  with q >= 1.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError


def training_set(x, y, task: str) -> tuple[np.ndarray, np.ndarray, int]:
    """(x, y, n_classes) once (x, y) meets the contract for `task`: x as
    float64, class labels as int64 and a regression target as float64.
    n_classes is max(2, largest label + 1) for class labels and 0 for a
    regression target. Alignment is checked before any label's value."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise DataError("training points must be a nonempty 2-D array")
    y = np.asarray(y, dtype=np.float64 if task == "regression" else None)
    if y.shape[:1] != x.shape[:1]:
        raise DataError("labels must be one per training row")
    if task == "regression":
        if y.ndim not in (1, 2) or y.size == 0:
            raise DataError("a regression target must have shape (n,) or (n, q) with q >= 1")
        return x, y, 0
    if y.ndim != 1 or y.dtype.kind not in "biuf":
        raise DataError("class labels must be a 1-D array of numbers")
    with np.errstate(invalid="ignore"):  # a NaN, an infinity or a huge label: refused below
        labels = y.astype(np.int64, copy=False)
    if not np.array_equal(labels, y):
        raise DataError(f"class labels must be integers, got {y[labels != y][0].item()}")
    if labels.min() < 0:
        raise DataError("class labels must be nonnegative integers")
    if task == "binary" and labels.max() > 1:
        raise DataError("binary class labels must be 0 or 1")
    return x, labels, max(2, int(labels.max()) + 1)


def query_points(points, d: int) -> np.ndarray:
    """`points` as float64 rows of width d: one point may come as a 1-D array."""
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if p.ndim != 2 or p.shape[1] != d:
        raise DataError(f"expected {d} features, got {p.shape[1] if p.ndim == 2 else p.shape}")
    return p


__all__ = ["query_points", "training_set"]
