"""fit_svm against the SMO loop it replaced, bit for bit.

``former_smo`` is that loop as it was: every update recomputes the
index sets with ``_violating_sets`` and picks the pair by ``np.where``
over all points, and the gradient update reads Q's columns. The current
loop keeps the index sets, updates them at the two points that moved,
and reads Q's rows, which Q's exact symmetry makes the same numbers.
alpha, b, the update count, convergence and the dual objective must
match exactly, on both kernels and on every way the loop can end but
one: the flat break (eta <= eps and a zero slope) needs a slope of
y_j (vals_i - vals_j) = 0, while the pair is only chosen with a gap
above tol.
"""

import numpy as np
import pytest

from chirpmap.models.svm import (
    _BOUND_EPS,
    SvmConfig,
    _kernel_block,
    _resolve_gamma,
    _violating_sets,
    fit_svm,
)
from tests.conftest import make_blobs


def signed_q(x, ys, config):
    """Q as fit_svm forms it, from x in C order."""
    x = np.ascontiguousarray(x)
    q = _kernel_block(x, x, config.kernel, _resolve_gamma(x, config))
    q *= ys[:, None]
    q *= ys
    return q


def former_smo(x, y, config):
    """(alpha, b, n_updates, converged, dual, ends): the former loop's
    results, and the set of branches by which its updates ended."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    ys = np.where(np.asarray(y) > 0, 1.0, -1.0)
    q = signed_q(x, ys, config)
    c, n = config.c, x.shape[0]
    alpha = np.zeros(n, dtype=np.float64)
    grad = -np.ones(n, dtype=np.float64)
    converged = False
    n_updates = 0
    ends = set()
    for _ in range(config.max_passes):
        vals = -ys * grad
        up, low = _violating_sets(alpha, ys, c)
        if not up.any() or not low.any():
            converged = True
            ends.add("empty set")
            break
        i = int(np.where(up, vals, -np.inf).argmax())
        j = int(np.where(low, vals, np.inf).argmin())
        if vals[i] - vals[j] <= config.tol:
            converged = True
            ends.add("tol")
            break
        s = ys[i] * ys[j]
        if s < 0:
            lo = max(0.0, alpha[j] - alpha[i])
            hi = min(c, c + alpha[j] - alpha[i])
        else:
            lo = max(0.0, alpha[i] + alpha[j] - c)
            hi = min(c, alpha[i] + alpha[j])
        if hi - lo < _BOUND_EPS:
            ends.add("stuck pair")
            break
        eta = q[i, i] + q[j, j] - 2.0 * (s * q[i, j])
        if eta > _BOUND_EPS:
            aj_new = min(max(alpha[j] + (s * grad[i] - grad[j]) / eta, lo), hi)
        else:
            ends.add("endpoint")  # an update, not an end
            lin = grad[j] - s * grad[i]
            if lin > 0:
                aj_new = lo
            elif lin < 0:
                aj_new = hi
            else:
                ends.add("flat")
                break
        dj = aj_new - alpha[j]
        if abs(dj) < _BOUND_EPS:
            ends.add("no step")
            break
        di = -s * dj
        alpha[j] = aj_new
        alpha[i] += di
        grad += di * q[:, i] + dj * q[:, j]
        n_updates += 1
    else:
        ends.add("budget")
    grad = q @ alpha - 1.0
    vals = -ys * grad
    up, low = _violating_sets(alpha, ys, c)
    if up.any() and low.any():
        b = (float(np.where(up, vals, -np.inf).max()) + float(np.where(low, vals, np.inf).min())) / 2.0
    else:
        free = (alpha > _BOUND_EPS) & (alpha < c - _BOUND_EPS)
        b = float(vals[free].mean()) if free.any() else 0.0
    dual = 0.5 * float(alpha.sum() - alpha @ grad)
    return alpha, b, n_updates, converged, dual, ends


def assert_matches_former(x, y, config):
    alpha, b, n_updates, converged, dual, ends = former_smo(x, y, config)
    model = fit_svm(x, y, config)
    assert model.alpha.tobytes() == alpha.tobytes()
    assert (model.b, model.n_updates, model.converged, model.dual_objective) == (
        b, n_updates, converged, dual)
    return ends


def noisy_blobs(seed, n_per=40):
    x, y = make_blobs([(-1.0, 0.0), (1.0, 0.5)], n_per=n_per, seed=seed)
    flip = np.random.default_rng(seed).random(y.size) < 0.15
    return x, np.where(flip, 1 - y, y)


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
@pytest.mark.parametrize("c", [1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3])
def test_every_box_size_keeps_the_former_bits(kernel, c):
    ends = set()
    for seed in range(3):
        x, y = noisy_blobs(seed)
        ends |= assert_matches_former(x, y, SvmConfig(c=c, kernel=kernel))
    assert ends & {"tol", "budget"}


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_conflicting_duplicates_keep_the_former_bits(kernel, c):
    # points repeated with both labels; where the worst pair is such a
    # point, eta is 0 along the pair and the step goes to an end of the box
    x, y = noisy_blobs(4, n_per=20)
    x = np.vstack([x, x[:6], x[:6]])
    y = np.concatenate([y, np.zeros(6, dtype=y.dtype), np.ones(6, dtype=y.dtype)])
    assert_matches_former(x, y, SvmConfig(c=c, kernel=kernel))
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 1, 0, 1])
    assert "endpoint" in assert_matches_former(x, y, SvmConfig(c=c, kernel=kernel))


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
def test_a_box_inside_the_bound_tolerance_leaves_the_sets_empty(kernel):
    # with C below 1e-12 no multiplier counts as below C or above 0
    x, y = noisy_blobs(6)
    assert assert_matches_former(x, y, SvmConfig(c=5e-13, kernel=kernel)) == {"empty set"}


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
@pytest.mark.parametrize("budget", [1, 2, 7, 40])
def test_a_budget_that_runs_out_keeps_the_former_bits(kernel, budget):
    x, y = noisy_blobs(5)
    config = SvmConfig(c=10.0, kernel=kernel, max_passes=budget)
    assert assert_matches_former(x, y, config) == {"budget"}
    assert not fit_svm(x, y, config).converged


@pytest.mark.parametrize("kernel, x, y", [
    ("rbf", [[0, 0], [0, 0], [2, 2], [1, 0], [0, 0], [1, 1], [1, 0]], [0, 1, 1, 0, 0, 0, 0]),
    ("linear", [[0, 0], [0, 0], [2, 2], [1, 0], [0, 0], [1, 1], [1, 0]], [0, 1, 1, 0, 0, 0, 0]),
    ("linear", [[0, 2], [1, 1], [1, 0], [0, 1], [2, 1], [2, 2], [2, 2]], [1, 1, 1, 1, 0, 1, 0]),
])
def test_a_pair_that_cannot_move_ends_the_loop(kernel, x, y):
    # repeated points with both labels send a multiplier to C = 1e20 (the
    # endpoint branch); beside it, c + alpha_j - alpha_i rounds to 0 for a
    # moderate alpha_j, so the worst pair's box has no width
    config = SvmConfig(c=1e20, kernel=kernel)
    ends = assert_matches_former(np.array(x, dtype=float), np.array(y), config)
    assert ends == {"endpoint", "stuck pair"}


@pytest.mark.parametrize("c", [1.0, 1e3, 1e6])
def test_a_step_too_small_to_move_ends_the_loop(c):
    # at coordinates of 1e6 the linear kernel's eta is about 1e12, so the
    # worst pair's step is under 1e-12 and the loop stops short of tol
    x, y = noisy_blobs(4, n_per=20)
    config = SvmConfig(c=c, kernel="linear")
    assert assert_matches_former(x * 1e6, y, config) == {"no step"}
    assert not fit_svm(x * 1e6, y, config).converged


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
def test_signed_q_is_exactly_symmetric(kernel, layout):
    # the loop reads Q's rows for its columns, which only exact symmetry allows
    rng = np.random.default_rng(11)
    for n, d in ((2, 1), (30, 2), (96, 2), (250, 3), (301, 5)):
        x = rng.normal(scale=10.0, size=(n, 2 * d))
        x = {"c": np.ascontiguousarray(x[:, :d]), "fortran": np.asfortranarray(x[:, :d]),
             "strided": x[:, ::2]}[layout]
        ys = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        q = signed_q(x, ys, SvmConfig(kernel=kernel))
        assert q.tobytes() == np.ascontiguousarray(q.T).tobytes()
