import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.models.logistic import (
    LogisticConfig,
    _gradient,
    fit_logistic,
    penalized_log_likelihood,
)


def fd_gradient(x, y, w, b, lam, h=1e-6):
    out = np.zeros(w.size + 1)
    for j in range(w.size):
        bump = np.zeros_like(w)
        bump[j] = h
        out[j] = (
            penalized_log_likelihood(x, y, w + bump, b, lam)
            - penalized_log_likelihood(x, y, w - bump, b, lam)
        ) / (2 * h)
    out[-1] = (
        penalized_log_likelihood(x, y, w, b + h, lam)
        - penalized_log_likelihood(x, y, w, b - h, lam)
    ) / (2 * h)
    return out


def test_gradient_matches_finite_differences_at_generic_points():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    y = (rng.random(40) < 0.5).astype(float)
    for _ in range(5):
        w = rng.normal(size=2)
        b = float(rng.normal())
        grad = _gradient(x, y, w, b, 1e-4)
        fd = fd_gradient(x, y, w, b, 1e-4)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_gradient_vanishes_at_the_returned_optimum(two_blobs):
    x, y = two_blobs
    config = LogisticConfig(tol=1e-8)
    model = fit_logistic(x, y, config)
    assert model.converged
    assert model.final_gradient_norm < config.tol
    # finite differences agree that this is a stationary point; near zero
    # the comparison is necessarily absolute, not relative
    fd = fd_gradient(x, y.astype(float), model.w, model.b, config.l2_lambda)
    assert np.all(np.abs(fd) < 1e-4)


def test_penalty_excludes_intercept():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 2))
    y = (rng.random(30) < 0.5).astype(float)
    w = rng.normal(size=2)
    weak = _gradient(x, y, w, 2.0, 0.0)
    strong = _gradient(x, y, w, 2.0, 100.0)
    assert weak[-1] == strong[-1]  # intercept term unaffected by lambda
    assert not np.allclose(weak[:2], strong[:2])


def test_mirrored_classes_give_zero_intercept():
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(60, 2)) + np.array([2.0, 0.0])
    x = np.vstack([pos, -pos])
    y = np.concatenate([np.ones(60), np.zeros(60)])
    model = fit_logistic(x, y, LogisticConfig(tol=1e-10))
    assert abs(model.b) <= 1e-6


def test_blob_holdout_accuracy(two_blobs):
    x, y = two_blobs
    train = np.arange(0, 200, 2)
    test = np.arange(1, 200, 2)
    model = fit_logistic(x[train], y[train])
    assert (model.predict(x[test]) == y[test]).mean() >= 0.95


def test_boundary_classification_rule():
    # z >= 0 maps to class 1, strictly negative z to class 0
    x = np.array([[-1.0], [1.0]])
    model = fit_logistic(x, np.array([0, 1]))
    z0 = -model.b / model.w[0]
    assert model.predict(np.array([[z0 + 1e-6]]))[0] == 1
    assert model.predict(np.array([[z0 - 1e-6]]))[0] == 0


def test_starved_iterations_flagged(two_blobs):
    x, y = two_blobs
    model = fit_logistic(x, y, LogisticConfig(max_iters=1))
    assert not model.converged


def test_single_class_is_an_error():
    with pytest.raises(DataError):
        fit_logistic(np.zeros((4, 2)), np.ones(4))


def test_restarts_agree(two_blobs):
    # concave objective: optimum does not depend on iteration order details
    x, y = two_blobs
    a = fit_logistic(x, y, LogisticConfig(tol=1e-9))
    b = fit_logistic(x, y, LogisticConfig(tol=1e-9, max_iters=9000))
    assert np.allclose(a.w, b.w, atol=1e-5)
    assert a.b == pytest.approx(b.b, abs=1e-5)
