"""Soft-margin SVM trained by sequential minimal optimization.

Solves the dual  min 1/2 a'Qa - sum(a)  s.t. 0 <= a_i <= C, sum(a_i y_i) = 0
with Q_ij = y_i y_j K(x_i, x_j). Each step updates the maximal violating
pair (the point most below and the point most above the running KKT
threshold); termination when the worst violation is within tol. The
class labels are 0 and 1 (`inputs.training_set`'s "binary" task), and
the model keeps them as y = 2 * label - 1, -1 or +1, which the dual
reads; `predict` answers 0 or 1.

An update moves only alpha_i and alpha_j, so the loop keeps the index
sets (as masks) across updates and recomputes them at i and j only; it
reads Q's rows for its columns, which Q's exact symmetry makes the same
numbers. The final threshold and `kkt_violation` take the sets afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distances import squared_distances
from ..errors import DataError
from .inputs import query_points, training_set

_BOUND_EPS = 1e-12


@dataclass(frozen=True)
class SvmConfig:
    c: float = 1.0
    kernel: str = "rbf"  # or "linear"
    gamma: float | None = None  # None: 1 / (n_features * variance of inputs)
    tol: float = 1e-3
    max_passes: int = 10000  # budget of pair updates

    def __post_init__(self):
        if self.c <= 0:
            raise DataError("C must be positive")
        if self.kernel not in ("rbf", "linear"):
            raise DataError(f"unknown kernel {self.kernel!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise DataError("gamma must be positive")
        if self.tol <= 0 or self.max_passes < 1:
            raise DataError("tol must be positive and max_passes >= 1")


def _kernel_block(a: np.ndarray, b: np.ndarray, kernel: str, gamma: float) -> np.ndarray:
    if kernel == "linear":
        return a @ b.T
    return np.exp(-gamma * squared_distances(a, b))


def _violating_sets(alpha: np.ndarray, ys: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """SMO's index sets: `up` marks the points whose y_t alpha_t can still
    grow inside [0, C], `low` those whose y_t alpha_t can still shrink.
    Given one point's alpha and y as floats, its two memberships as bools."""
    below_c, above_0 = alpha < c - _BOUND_EPS, alpha > _BOUND_EPS
    up = (below_c & (ys > 0)) | (above_0 & (ys < 0))
    low = (below_c & (ys < 0)) | (above_0 & (ys > 0))
    return up, low


@dataclass
class SvmModel:
    x: np.ndarray
    y_signed: np.ndarray
    alpha: np.ndarray
    b: float
    config: SvmConfig
    gamma_value: float
    converged: bool
    dual_objective: float
    n_updates: int

    kind = "svm"

    def __post_init__(self):
        training_set(self.x, self.y_signed > 0, "binary")  # the rows and one label per row
        if self.alpha.shape != self.x.shape[:1]:
            raise DataError("SVM multipliers must be one per training row")
        if not np.all(np.abs(self.y_signed) == 1.0):
            raise DataError("SVM labels must be -1 or +1")
        # SMO's rounding can leave a multiplier a few ulps of C below 0
        if np.any(self.alpha < -_BOUND_EPS * max(1.0, self.config.c)):
            raise DataError("SVM multipliers must be nonnegative")
        if not self.gamma_value >= 0.0:
            raise DataError("SVM gamma must be nonnegative")

    def decision_function(self, points) -> np.ndarray:
        p = query_points(points, self.x.shape[1])
        support = self.alpha > 0
        coef = self.alpha[support] * self.y_signed[support]
        sx = self.x[support]
        out = np.empty(p.shape[0], dtype=np.float64)
        for start in range(0, p.shape[0], 4096):
            chunk = p[start : start + 4096]
            k = _kernel_block(chunk, sx, self.config.kernel, self.gamma_value)
            out[start : start + 4096] = k @ coef
        return out + self.b

    def predict(self, points) -> np.ndarray:
        return (self.decision_function(points) >= 0.0).astype(np.int64)


def _resolve_gamma(x: np.ndarray, config: SvmConfig) -> float:
    if config.kernel == "linear":
        return 0.0
    if config.gamma is not None:
        return config.gamma
    var = float(x.var())
    if var <= 0:
        return 1.0
    return 1.0 / (x.shape[1] * var)


def fit_svm(x, y, config: SvmConfig = SvmConfig()) -> SvmModel:
    x, y01, _ = training_set(x, y, "binary")
    # C order makes the linear kernel's x @ x.T exactly symmetric (BLAS
    # syrk), as the RBF kernel always is; strided x gave a Q that was not
    x = np.ascontiguousarray(x)
    n = x.shape[0]
    if y01.min() == y01.max():
        raise DataError("svm training needs both classes present")

    ys = np.where(y01 > 0, 1.0, -1.0)
    gamma = _resolve_gamma(x, config)
    q = _kernel_block(x, x, config.kernel, gamma)  # Q in K's buffer; ys is +-1: exact
    q *= ys[:, None]
    q *= ys
    c = config.c

    alpha = np.zeros(n, dtype=np.float64)
    grad = -np.ones(n, dtype=np.float64)  # grad of the dual = Q a - 1
    converged = False
    n_updates = 0

    # the index sets as masks, 0 inside and -inf (up) or inf (low) outside:
    # for finite vals, vals + up_mask has where(up, vals, -inf)'s argmax
    # (ties to the first index) and max (-inf only when up is empty)
    up, low = _violating_sets(alpha, ys, c)
    up_mask, low_mask = np.where(up, 0.0, -np.inf), np.where(low, 0.0, np.inf)
    signs, diagonal, neg_ys = ys.tolist(), q.diagonal().tolist(), -ys
    vals, up_vals, low_vals, step, step_j = (np.empty(n) for _ in range(5))

    for _ in range(config.max_passes):
        np.multiply(neg_ys, grad, out=vals)
        i = int(np.add(vals, up_mask, out=up_vals).argmax())
        j = int(np.add(vals, low_mask, out=low_vals).argmin())
        if (up_vals.item(i) == -np.inf or low_vals.item(j) == np.inf  # an empty set
                or vals.item(i) - vals.item(j) <= config.tol):
            converged = True
            break

        ai, aj, gi, gj = alpha.item(i), alpha.item(j), grad.item(i), grad.item(j)
        s = signs[i] * signs[j]
        if s < 0:
            lo = max(0.0, aj - ai)
            hi = min(c, c + aj - ai)
        else:
            lo = max(0.0, ai + aj - c)
            hi = min(c, ai + aj)
        if hi - lo < _BOUND_EPS:
            break  # the worst pair cannot move: stuck short of tol

        # Q is exactly symmetric, so its rows are its columns; ys is +-1,
        # so q[i, i] and s * q[i, j] are K's entries bit for bit
        q_i, q_j = q[i], q[j]
        eta = diagonal[i] + diagonal[j] - 2.0 * (s * q_i.item(j))
        if eta > _BOUND_EPS:
            aj_new = min(max(aj + (s * gi - gj) / eta, lo), hi)
        else:
            # flat direction: objective is linear in the step, take the endpoint
            lin = gj - s * gi
            if lin > 0:
                aj_new = lo
            elif lin < 0:
                aj_new = hi
            else:
                break
        dj = aj_new - aj
        if abs(dj) < _BOUND_EPS:
            break
        di = -s * dj
        alpha[j] = aj_new
        alpha[i] = ai + di
        np.multiply(q_i, di, out=step)
        np.multiply(q_j, dj, out=step_j)
        step += step_j
        grad += step
        n_updates += 1
        for t in (i, j):
            in_up, in_low = _violating_sets(alpha.item(t), signs[t], c)
            up_mask[t], low_mask[t] = (0.0 if in_up else -np.inf), (0.0 if in_low else np.inf)

    grad = q @ alpha - 1.0  # refresh: incremental updates accumulate drift
    vals = -ys * grad
    up, low = _violating_sets(alpha, ys, c)
    # KKT: vals_t = y_t - u(x_t) lower-bounds b on the up set and
    # upper-bounds it on the low set; free vectors pin it exactly
    if up.any() and low.any():
        b = (float(np.where(up, vals, -np.inf).max()) + float(np.where(low, vals, np.inf).min())) / 2.0
    else:
        free = (alpha > _BOUND_EPS) & (alpha < c - _BOUND_EPS)
        b = float(vals[free].mean()) if free.any() else 0.0
    # maximized soft-margin dual: sum(alpha) - 0.5 a'Qa, via a'Qa = a@grad + sum(a)
    dual = 0.5 * float(alpha.sum() - alpha @ grad)

    return SvmModel(
        x=x,
        y_signed=ys,
        alpha=alpha,
        b=b,
        config=config,
        gamma_value=gamma,
        converged=converged,
        dual_objective=dual,
        n_updates=n_updates,
    )


def kkt_violation(model: SvmModel) -> float:
    """Worst violating-pair gap; <= tol certifies KKT within tolerance."""
    q = _kernel_block(model.x, model.x, model.config.kernel, model.gamma_value)
    q *= model.y_signed[:, None]
    q *= model.y_signed
    grad = q @ model.alpha - 1.0
    vals = -model.y_signed * grad
    up, low = _violating_sets(model.alpha, model.y_signed, model.config.c)
    if not up.any() or not low.any():
        return 0.0
    return float(np.where(up, vals, -np.inf).max() - np.where(low, vals, np.inf).min())


__all__ = ["SvmConfig", "SvmModel", "fit_svm", "kkt_violation"]
