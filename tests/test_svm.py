import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.models.svm import SvmConfig, fit_svm, kkt_violation


def test_two_point_bisector():
    x = np.array([[-1.0, 0.0], [1.0, 0.0]])
    model = fit_svm(x, np.array([0, 1]), SvmConfig(kernel="linear", c=10.0))
    assert model.converged
    # midpoint sits on the boundary, the points at the margins
    assert model.decision_function(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-9)
    assert model.decision_function(x)[0] == pytest.approx(-1.0, abs=1e-6)
    assert model.decision_function(x)[1] == pytest.approx(1.0, abs=1e-6)
    assert np.all(model.alpha > 0)  # both are support vectors
    # boundary is vertical: sliding along y keeps the sign
    assert model.predict(np.array([[0.5, 99.0], [-0.5, -99.0]])).tolist() == [1, 0]


def test_conflicting_duplicates_hit_the_box():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    model = fit_svm(x, np.array([0, 1, 1]), SvmConfig(kernel="linear", c=1.0))
    assert np.any(model.alpha >= 1.0 - 1e-9)


def test_multiplier_constraints_hold(two_blobs):
    x, y = two_blobs
    model = fit_svm(x, y, SvmConfig(c=1.0))
    assert np.all(model.alpha >= -1e-12)
    assert np.all(model.alpha <= 1.0 + 1e-12)
    signed = np.where(y > 0, 1.0, -1.0)
    assert abs(float(model.alpha @ signed)) <= 1e-9
    assert kkt_violation(model) < model.config.tol


def test_rbf_blob_holdout_accuracy(two_blobs):
    x, y = two_blobs
    train = np.arange(0, 200, 2)
    test = np.arange(1, 200, 2)
    model = fit_svm(x[train], y[train], SvmConfig())
    assert model.converged
    assert (model.predict(x[test]) == y[test]).mean() >= 0.95


def test_default_gamma_is_inverse_scaled_dimension(two_blobs):
    x, y = two_blobs
    model = fit_svm(x, y, SvmConfig())
    assert model.gamma_value == pytest.approx(1.0 / (x.shape[1] * x.var()))
    explicit = fit_svm(x, y, SvmConfig(gamma=0.25))
    assert explicit.gamma_value == 0.25


def test_dual_matches_qp_oracle():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    from chirpmap.models.svm import _kernel_block

    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(16, 2))
        y = (x[:, 0] + 0.3 * rng.normal(size=16) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        config = SvmConfig(c=1.0)
        model = fit_svm(x, y, config)
        assert kkt_violation(model) < config.tol

        ys = np.where(y > 0, 1.0, -1.0)
        q = (ys[:, None] * ys[None, :]) * _kernel_block(x, x, "rbf", model.gamma_value)

        def negated_dual(a, q=q):
            return 0.5 * a @ q @ a - a.sum()

        result = scipy_optimize.minimize(
            negated_dual,
            np.full(16, 0.5),
            jac=lambda a, q=q: q @ a - 1.0,
            bounds=[(0.0, 1.0)] * 16,
            constraints=[{"type": "eq", "fun": lambda a, ys=ys: a @ ys}],
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-12},
        )
        assert result.success
        assert model.dual_objective == pytest.approx(-result.fun, abs=1e-3)


def test_iteration_starvation_reports_nonconvergence(two_blobs):
    x, y = two_blobs
    model = fit_svm(x, y, SvmConfig(max_passes=1))
    assert not model.converged


def test_single_class_is_an_error():
    with pytest.raises(DataError):
        fit_svm(np.zeros((4, 2)), np.zeros(4, dtype=int))


def test_config_validation():
    with pytest.raises(DataError):
        SvmConfig(c=0.0)
    with pytest.raises(DataError):
        SvmConfig(kernel="poly")
