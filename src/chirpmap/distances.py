"""Pairwise squared Euclidean distances, the one implementation in the package.

Each entry is sum_k (a_ik - b_jk)^2, formed elementwise feature by
feature in feature order. A feature's difference matrix is one rank-2
matrix product, [a_k, 1] (n x 2) @ [1; -b_k] (2 x m), written into the
output and squared in place; later features go through the scratch
buffer and are added. This is not the Gram form a.a - 2 a.b + b.b,
which cancels: both products in an entry are by 1 and so exact, and a
sum of two terms is rounded once, with or without a fused multiply-add,
so each entry is round(a_ik - b_jk) up to the sign of zero, which the
square erases. That holds in every BLAS kernel and at any thread count,
in numpy's own matmul loop for strided input, and in the matrix-vector
paths for one row or column. The product needs no copy of a column of a
or a row of b, and it is faster than a broadcast subtraction.

An entry's bits depend only on its two rows, not on how many rows a and
b have: any row split of a gives the same bytes as one call. With
``a is b`` the result is exactly symmetric, since (u - v)^2 and
(v - u)^2 round alike, and its diagonal is exactly 0. No entry is
negative, so no clamp is needed. For NaN input only the positions of
the NaNs are fixed, not their sign bits.
"""

from __future__ import annotations

import numpy as np


def _row_operands(a: np.ndarray) -> np.ndarray:
    """[a_k, 1] for each feature k of a (..., n, d), as a (d, ..., n, 2) array."""
    ops = np.empty((a.shape[-1],) + a.shape[:-1] + (2,))
    ops[..., 0] = np.moveaxis(a, -1, 0)
    ops[..., 1] = 1.0
    return ops


def _column_operands(b: np.ndarray) -> np.ndarray:
    """[1; -b_k] for each feature k of b (..., m, d), as a (d, ..., 2, m) array."""
    ops = np.empty((b.shape[-1],) + b.shape[:-2] + (2, b.shape[-2]))
    ops[..., 0, :] = 1.0
    np.negative(np.moveaxis(b, -1, 0), out=ops[..., 1, :])
    return ops


def _operand_distances(a_ops: np.ndarray, b_ops: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray | None = None) -> np.ndarray:
    """``squared_distances`` from ``_row_operands(a)`` and
    ``_column_operands(b)``, or from slices of them along their row and
    column axes; ``scratch`` is allocated here when not given and d > 1."""
    np.matmul(a_ops[0], b_ops[0], out=out)
    np.multiply(out, out, out=out)
    for k in range(1, a_ops.shape[0]):
        scratch = np.empty_like(out) if scratch is None else scratch
        np.matmul(a_ops[k], b_ops[k], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        out += scratch
    return out


def squared_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """The (..., len(a), len(b)) matrix of squared distances between the
    rows of a and b, written into ``out``; ``scratch`` holds each later
    feature's squares. Both are allocated here when not given. Leading
    axes of a (..., n, d) and b (..., m, d) broadcast, so a batch of
    matrices is one call with the bits of one call per matrix."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-2])
    out = np.empty(shape) if out is None else out
    return _operand_distances(_row_operands(a), _column_operands(b), out, scratch)
