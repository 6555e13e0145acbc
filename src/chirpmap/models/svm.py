"""Soft-margin SVM trained by sequential minimal optimization.

Solves the dual  min 1/2 a'Qa - sum(a)  s.t. 0 <= a_i <= C, sum(a_i y_i) = 0
with Q_ij = y_i y_j K(x_i, x_j). Each step updates the maximal violating
pair (the point most below and the point most above the running KKT
threshold); termination when the worst violation is within tol. Labels
{0,1} are mapped to {-1,+1} internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distances import squared_distances
from ..errors import DataError

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
    grow inside [0, C], `low` those whose y_t alpha_t can still shrink."""
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

    def decision_function(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
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
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y01 = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    if y01.shape[0] != n:
        raise DataError("labels misaligned with rows")
    if len(np.unique(y01)) < 2:
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

    for _ in range(config.max_passes):
        vals = -ys * grad
        up, low = _violating_sets(alpha, ys, c)
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.where(up, vals, -np.inf).argmax())
        j = int(np.where(low, vals, np.inf).argmin())
        if vals[i] - vals[j] <= config.tol:
            converged = True
            break

        s = ys[i] * ys[j]
        if s < 0:
            lo = max(0.0, alpha[j] - alpha[i])
            hi = min(c, c + alpha[j] - alpha[i])
        else:
            lo = max(0.0, alpha[i] + alpha[j] - c)
            hi = min(c, alpha[i] + alpha[j])
        if hi - lo < _BOUND_EPS:
            break  # the worst pair cannot move: stuck short of tol

        # ys is +-1, so q[i, i] and s * q[i, j] are K's entries bit for bit
        eta = q[i, i] + q[j, j] - 2.0 * (s * q[i, j])
        if eta > _BOUND_EPS:
            aj_new = min(max(alpha[j] + (s * grad[i] - grad[j]) / eta, lo), hi)
        else:
            # flat direction: objective is linear in the step, take the endpoint
            lin = grad[j] - s * grad[i]
            if lin > 0:
                aj_new = lo
            elif lin < 0:
                aj_new = hi
            else:
                break
        dj = aj_new - alpha[j]
        if abs(dj) < _BOUND_EPS:
            break
        di = -s * dj
        alpha[j] = aj_new
        alpha[i] += di
        grad += di * q[:, i] + dj * q[:, j]
        n_updates += 1

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
