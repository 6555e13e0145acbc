"""Pairwise squared Euclidean distances, the one implementation in the package.

Each entry is sum_k (b_jk - a_ik)^2, formed elementwise feature by feature
in feature order: a feature's row of b is copied into the output, then
its column of a is subtracted in place, which is faster than one
broadcast subtraction into a third array. Negation is exact, so
(b - a)^2 has the bits of (a - b)^2. An entry's bits depend only on its
two rows, not on how many rows a and b have: any row split of a gives
the same bytes as one call. With ``a is b`` the result is exactly
symmetric, since (u - v)^2 and (v - u)^2 round alike, and its diagonal
is exactly 0. No entry is negative, so no clamp is needed.
"""

from __future__ import annotations

import numpy as np


def squared_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """The (..., len(a), len(b)) matrix of squared distances between the
    rows of a and b, written into ``out``; ``scratch`` holds each later
    feature's squares. Both are allocated here when not given. Leading
    axes of a (..., n, d) and b (..., m, d) broadcast, so a batch of
    matrices is one call with the bits of one call per matrix."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-2])
    out = np.empty(shape) if out is None else out
    # one contiguous row per feature
    a_cols = np.ascontiguousarray(np.moveaxis(a, -1, 0))[..., :, None]
    b_cols = np.ascontiguousarray(np.moveaxis(b, -1, 0))[..., None, :]
    np.copyto(out, b_cols[0])
    out -= a_cols[0]
    np.multiply(out, out, out=out)
    for k in range(1, a_cols.shape[0]):
        scratch = np.empty_like(out) if scratch is None else scratch
        np.copyto(scratch, b_cols[k])
        scratch -= a_cols[k]
        np.multiply(scratch, scratch, out=scratch)
        out += scratch
    return out
