"""L2-penalized logistic regression fitted by damped Newton (IRLS).

Maximizes  LL(w, b) = sum_i [y_i z_i - log(1 + e^{z_i})] - (lambda/2)||w||^2
with z = Xw + b, a Bernoulli likelihood whose outcomes y_i are the class
labels 0 and 1 (`inputs.training_set`'s "binary" task); the intercept is
not penalized, and `predict` answers 0 or 1. Each iteration takes the
Newton step d = H^{-1} g, where g is the gradient and
H = [X 1]^T diag(s_i (1 - s_i)) [X 1] + diag(lambda, ..., lambda, 0) is
the negated Hessian at the sigmoid outputs s. H's eigenvalues are floored
at a small fraction of the largest, so a singular or ill-conditioned H
(near-separable classes, with the intercept unpenalized) still yields a
finite ascent direction. The step is halved until it gains at least a
fixed fraction of its predicted first-order increase (Armijo) or the
slope along it is still nonnegative at its end; training stops when the
gradient norm drops below tol or the budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .inputs import query_points, training_set


@dataclass(frozen=True)
class LogisticConfig:
    l2_lambda: float = 1e-4
    max_iters: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        if self.l2_lambda < 0:
            raise DataError("l2_lambda must be nonnegative")
        if self.max_iters < 1 or self.tol <= 0:
            raise DataError("max_iters must be >= 1 and tol positive")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def penalized_log_likelihood(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2_lambda: float) -> float:
    z = x @ w + b
    return float(np.sum(y * z - np.logaddexp(0.0, z)) - 0.5 * l2_lambda * (w @ w))


def _gradient(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2_lambda: float) -> np.ndarray:
    resid = y - _sigmoid(x @ w + b)
    return np.concatenate([x.T @ resid - l2_lambda * w, [resid.sum()]])


def _neg_hessian(x: np.ndarray, w: np.ndarray, b: float, l2_lambda: float) -> np.ndarray:
    """Negated Hessian of the penalized log-likelihood over (w, b)."""
    z = x @ w + b
    x1 = np.column_stack([x, np.ones(x.shape[0])])
    # s (1 - s) as s(z) s(-z) keeps its precision where s is near 1
    h = (x1.T * (_sigmoid(z) * _sigmoid(-z))) @ x1
    h[np.diag_indices(x.shape[1])] += l2_lambda  # the intercept, last, is unpenalized
    return h


def _newton_direction(hess: np.ndarray, g: np.ndarray) -> np.ndarray:
    """hess^{-1} g for the symmetric positive semidefinite ``hess``, with its
    eigenvalues floored at 1e-12 of the largest; ``g`` itself when hess is 0."""
    vals, vecs = np.linalg.eigh(hess)
    floor = 1e-12 * vals[-1]
    if not floor > 0.0:
        return g
    return vecs @ ((vecs.T @ g) / np.maximum(vals, floor))


@dataclass
class LogisticModel:
    w: np.ndarray
    b: float
    config: LogisticConfig
    converged: bool
    n_iters: int
    final_gradient_norm: float

    kind = "logistic_regression"

    def __post_init__(self):
        if self.w.ndim != 1:
            raise DataError("logistic weights must be a 1-D array")

    def decision_function(self, points) -> np.ndarray:
        return query_points(points, self.w.shape[0]) @ self.w + self.b

    def predict(self, points) -> np.ndarray:
        # sigma(z) >= 0.5 iff z >= 0
        return (self.decision_function(points) >= 0.0).astype(np.int64)


def fit_logistic(x, y, config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    x, labels, _ = training_set(x, y, "binary")
    if labels.min() == labels.max():
        raise DataError("logistic training needs both classes present")
    y = labels.astype(np.float64)  # 0 or 1: the Bernoulli likelihood's outcomes
    d = x.shape[1]

    w = np.zeros(d, dtype=np.float64)
    b = 0.0
    ll = penalized_log_likelihood(x, y, w, b, config.l2_lambda)
    g = _gradient(x, y, w, b, config.l2_lambda)
    armijo = 1e-4
    converged = False

    for it in range(1, config.max_iters + 1):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm < config.tol:
            converged = True
            break
        direction = _newton_direction(_neg_hessian(x, w, b, config.l2_lambda), g)
        slope = float(g @ direction)
        step = 1.0
        while step >= 1e-20:
            w_new = w + step * direction[:d]
            b_new = float(b + step * direction[d])
            ll_new = penalized_log_likelihood(x, y, w_new, b_new, config.l2_lambda)
            g_new = _gradient(x, y, w_new, b_new, config.l2_lambda)
            # The objective is concave, so a nonnegative slope at the trial
            # point means the whole step ascended; this still decides once
            # the gain is too small for ll to resolve.
            if ll_new >= ll + armijo * step * slope or g_new @ direction >= 0.0:
                break
            step *= 0.5
        else:
            break  # no ascent step possible at float precision
        w, b, ll, g = w_new, b_new, ll_new, g_new

    return LogisticModel(
        w=w,
        b=b,
        config=config,
        converged=converged,
        n_iters=it,
        final_gradient_norm=grad_norm,
    )


__all__ = ["LogisticConfig", "LogisticModel", "fit_logistic", "penalized_log_likelihood"]
