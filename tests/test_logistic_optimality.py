"""The Newton solver lands on the optimum, checked against scipy as an oracle."""

import numpy as np
from scipy.optimize import minimize

from chirpmap.models.logistic import (
    LogisticConfig,
    _gradient,
    fit_logistic,
    penalized_log_likelihood,
)


def near_separable_embedding(seed, n=300):
    """Three t-SNE-sized clusters within +-30; the positive class is almost
    exactly one cluster, with a few label flips on each side."""
    rng = np.random.default_rng(seed)
    centers = np.array([[-20.0, 5.0], [15.0, 18.0], [10.0, -22.0]])
    cluster = rng.integers(0, 3, size=n)
    x = centers[cluster] + rng.normal(scale=5.0, size=(n, 2))
    y = (rng.random(n) < np.where(cluster == 0, 0.97, 0.02)).astype(np.int64)
    return x, y


def scipy_optimum(x, y, l2_lambda):
    yf = y.astype(float)
    res = minimize(
        lambda t: -penalized_log_likelihood(x, yf, t[:-1], t[-1], l2_lambda),
        np.zeros(x.shape[1] + 1),
        jac=lambda t: -_gradient(x, yf, t[:-1], t[-1], l2_lambda),
        method="BFGS",
        options={"gtol": 1e-12},
    )
    assert res.success, res.message
    return res.x


def test_near_separable_fit_converges_to_the_optimum():
    # a hard case for first-order ascent: it exhausts the default 5000
    # iterations here with the gradient norm still above 1e-6
    x, y = near_separable_embedding(seed=3)
    config = LogisticConfig()
    model = fit_logistic(x, y, config)
    assert model.converged
    assert model.final_gradient_norm < config.tol
    assert model.n_iters < 50
    optimum = scipy_optimum(x, y, config.l2_lambda)
    assert np.max(np.abs(np.append(model.w, model.b) - optimum)) < 1e-6


def test_singular_hessian_with_constant_features():
    # every row is the same point: only the unpenalized intercept can fit,
    # and with lambda = 0 the Hessian is singular in both weight directions
    x = np.zeros((40, 2))
    y = np.array([1] * 10 + [0] * 30)
    model = fit_logistic(x, y, LogisticConfig(l2_lambda=0.0, tol=1e-12))
    assert model.converged
    assert np.array_equal(model.w, np.zeros(2))
    assert abs(model.b - np.log(10 / 30)) < 1e-12


def test_separable_data_without_penalty_stays_finite():
    # no finite optimum exists; the fit must neither raise nor overflow
    x = np.array([[-3.0, 0.0], [-2.0, 1.0], [-1.0, -1.0], [1.0, 0.5], [2.0, -0.5], [3.0, 0.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = fit_logistic(x, y, LogisticConfig(l2_lambda=0.0, max_iters=200))
    assert np.all(np.isfinite(model.w)) and np.isfinite(model.b)
    assert np.array_equal(model.predict(x), y)
