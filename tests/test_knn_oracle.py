"""k-NN prediction against the former argpartition selection, kept here as
a test-only reference: every prediction must be unchanged."""

from types import SimpleNamespace

import numpy as np
import pytest

from chirpmap.distances import squared_distances
from chirpmap.models.knn import KnnConfig, _nearest, fit_knn
from chirpmap.render import boundary_grid
from tests.conftest import make_blobs
from tests.test_knn import reference_predict


def argpartition_nearest(d2, k):
    """The former `_nearest`: partition, sort the candidates, and sort in full
    the rows whose k-th distance is tied beyond the candidates."""
    cand = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    cand_d2 = np.take_along_axis(d2, cand, axis=1)
    order = np.take_along_axis(cand, np.argsort(cand_d2, axis=1, kind="stable"), axis=1)
    kth = cand_d2.max(axis=1)
    tied = np.count_nonzero(d2 <= kth[:, None], axis=1) > k
    if tied.any():
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return order


def argpartition_predict(model, points):
    """The former `KnnModel.predict`, with fresh temporaries per chunk."""
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k = model.config.k
    n_classes = max(2, int(model.y.max()) + 1)
    out = np.empty(p.shape[0], dtype=np.int64)
    for start in range(0, p.shape[0], 2048):
        chunk = p[start : start + 2048]
        d2 = squared_distances(chunk, model.x)
        neigh = model.y[argpartition_nearest(d2, k)]
        m = neigh.shape[0]
        counts = np.zeros((m, n_classes), dtype=np.int64)
        np.add.at(counts, (np.repeat(np.arange(m), k), neigh.ravel()), 1)
        pred = np.argmax(counts, axis=1)
        top = counts.max(axis=1)
        tied = (counts == top[:, None]).sum(axis=1) > 1
        pred[tied] = neigh[tied, 0]
        out[start : start + 2048] = pred
    return out


def clustered_training_set(n, seed):
    """Three overlapping clusters at t-SNE scale with noisy binary labels."""
    centers = [(-20.0, 5.0), (15.0, 15.0), (5.0, -20.0)]
    x, cluster = make_blobs(centers, n_per=n // 3, sd=8.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    y = np.where(rng.random(len(x)) < 0.2, 1 - (cluster == 1), cluster == 1).astype(np.int64)
    return x, y


@pytest.mark.parametrize("n", [84, 315, 630])
def test_render_grid_equals_argpartition_reference(n):
    x, y = clustered_training_set(n, seed=n)
    model = fit_knn(x, y, KnnConfig(k=5))
    reference = SimpleNamespace(predict=lambda points: argpartition_predict(model, points))
    _, _, preds = boundary_grid(model, x, g=300)
    _, _, expected = boundary_grid(reference, x, g=300)
    assert np.array_equal(preds, expected)


def test_lattice_ties_equal_argpartition_reference():
    grid = np.array([(i, j) for i in range(-3, 4) for j in range(-3, 4)], dtype=float)
    rng = np.random.default_rng(6)
    x = np.vstack([grid, grid[rng.permutation(len(grid))[:20]]])
    y = rng.integers(0, 2, size=len(x))
    queries = np.array([(i / 2, j / 2) for i in range(-8, 9) for j in range(-8, 9)])
    for k in (1, 2, 3, 4, 5, 8):
        model = fit_knn(x, y, KnnConfig(k=k))
        assert np.array_equal(model.predict(queries), argpartition_predict(model, queries))


def test_three_chunks_with_short_last_chunk_match_reference_rule():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(60, 2))
    y = rng.integers(0, 3, size=60)
    queries = rng.normal(size=(2 * 2048 + 317, 2))
    model = fit_knn(x, y, KnnConfig(k=5))
    assert np.array_equal(model.predict(queries), reference_predict(x, y, queries, 5))


def test_nearest_equals_stable_argsort_with_non_finite_entries():
    rng = np.random.default_rng(9)
    d2 = rng.integers(0, 4, size=(400, 12)).astype(float)
    specials = np.array([np.inf, -np.inf, np.nan])
    mask = rng.random(d2.shape) < 0.2
    d2[mask] = rng.choice(specials, size=mask.sum())
    d2[0] = np.inf
    d2[1] = np.nan
    d2[2] = -np.inf
    before = d2.copy()
    n = d2.shape[1]
    for k in (1, 2, 5, n):
        expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert np.array_equal(_nearest(d2, k), expected)
        assert d2.tobytes() == before.tobytes()
